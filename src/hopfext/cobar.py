"""Cobar complex of an algebroid presentation: cochains, the exact
differential, concatenation products, small-scale cohomology with
representatives, coboundary solving, and triple Massey products.

Cochains of degree s are left-coefficient combinations of bar words
[r^{e_1}|...|r^{e_s}], each exponent positive (and at most 4 in the reduced
variant).  This module works symbolically and is meant for windows where the
per-bidegree bases are small; the transfer module handles large windows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import (LocalRational, SmithDecomposition,
                           smith_normal_form, v5)
from .flinalg import nullspace_mod, rank_mod, rref_mod, solve_mod
from .gradedpoly import (
    InhomogeneousInput,
    Monomial,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .algebroid import (
    R_DEGREE,
    AlgebroidSpec,
    coefficient_piece,
    eta_R_int,
    parse_word,
    psi_reduced,
    push_coefficient,
)

CobarWord = Tuple[int, ...]


class SpecMismatch(ValueError):
    pass


class NotACocycle(ValueError):
    pass


class BracketUndefined(ValueError):
    pass


def compositions(n: int, s: int, cap: Optional[int]) -> Iterator[CobarWord]:
    """All words (e_1..e_s) with e_i >= 1 (and <= cap) summing to n, lex order."""
    if s == 0:
        if n == 0:
            yield ()
        return
    hi = n - (s - 1)
    if cap is not None:
        hi = min(hi, cap)
    for e in range(1, hi + 1):
        for rest in compositions(n - e, s - 1, cap):
            yield (e,) + rest


class CobarElement:
    """Homogeneous-degree-s cochain: map (base monomial, word) -> scalar."""

    __slots__ = ("spec", "s", "terms")

    def __init__(self, spec: AlgebroidSpec, s: int,
                 terms: Optional[Dict[Tuple[Monomial, CobarWord], object]] = None):
        self.spec = spec
        self.s = s
        self.terms: Dict[Tuple[Monomial, CobarWord], object] = {}
        ring = spec.base_ring
        cap = spec.max_r_power
        if terms:
            for (mono, word), c in terms.items():
                if len(word) != s:
                    raise ValueError("word length != s")
                if any(e < 1 or (cap is not None and e > cap) for e in word):
                    raise ValueError(f"bad word {word}")
                c = ring.coeff(c)
                if c:
                    self.terms[(mono, word)] = c

    @classmethod
    def zero(cls, spec: AlgebroidSpec, s: int) -> "CobarElement":
        return cls(spec, s)

    @classmethod
    def from_polynomial(cls, p: Polynomial, spec: AlgebroidSpec) -> "CobarElement":
        return cls(spec, 0, {(m, ()): c for m, c in p.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, CobarElement):
            return NotImplemented
        return (self.spec, self.s, self.terms) == (other.spec, other.s, other.terms)

    def __add__(self, other: "CobarElement") -> "CobarElement":
        if (self.spec, self.s) != (other.spec, other.s):
            raise SpecMismatch("cannot add cochains of different shape")
        ring = self.spec.base_ring
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            acc = c if acc is None else ring.coeff(acc + c)
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        res = CobarElement.__new__(CobarElement)
        res.spec, res.s, res.terms = self.spec, self.s, out
        return res

    def __neg__(self):
        ring = self.spec.base_ring
        res = CobarElement.__new__(CobarElement)
        res.spec, res.s = self.spec, self.s
        res.terms = {k: ring.coeff(-c) for k, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "CobarElement":
        ring = self.spec.base_ring
        out = {}
        for k, v in self.terms.items():
            w = ring.coeff(v * c)
            if w:
                out[k] = w
        res = CobarElement.__new__(CobarElement)
        res.spec, res.s, res.terms = self.spec, self.s, out
        return res

    def degree(self) -> Optional[int]:
        ring = self.spec.base_ring
        degs = {ring.monomial_degree(m) + R_DEGREE * sum(w) for m, w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousInput(f"mixed internal degrees {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        return f"CobarElement({format_cobar(self)})"


@lru_cache(maxsize=None)
def cochain_basis(spec: AlgebroidSpec, s: int, t: int) -> Tuple[Tuple[Monomial, CobarWord], ...]:
    """Deterministic basis of the (s,t) cochain piece: words in ascending lex
    order, then base monomials in graded-lex order."""
    cap = spec.max_r_power
    out: List[Tuple[Monomial, CobarWord]] = []
    if t % R_DEGREE:
        return ()
    for n in range(s, t // R_DEGREE + 1):
        if cap is not None and n > cap * s:
            break
        monos = coefficient_piece(spec, t - R_DEGREE * n)
        if not monos:
            continue
        for word in compositions(n, s, cap):
            for m in monos:
                out.append((m, word))
    return tuple(out)


def differential(x: CobarElement) -> CobarElement:
    """Cobar differential: insert the reduced right-unit image of the
    coefficient at the left (sign +1), plus the alternating-sign reduced
    coproduct splittings of each slot."""
    spec = x.spec
    if x.terms:
        x.degree()  # raises InhomogeneousInput when mixed
    out = CobarElement.zero(spec, x.s + 1)
    acc: Dict[Tuple[Monomial, CobarWord], object] = {}
    ring = spec.base_ring

    def add(key, val):
        cur = acc.get(key)
        cur = val if cur is None else ring.coeff(cur + val)
        if cur:
            acc[key] = cur
        else:
            acc.pop(key, None)

    for (mono, word), c in x.terms.items():
        for e, m2, c2 in eta_R_int(spec, mono):
            if e:
                add((m2, (e,) + word), ring.coeff(c * c2))
        for i, e in enumerate(word):
            sign = -1 if (i + 1) % 2 else 1
            for coef, k, l in psi_reduced(e):
                val = ring.coeff(c * (coef * sign))
                if val:
                    add((mono, word[:i] + (k, l) + word[i + 1:]), val)
    out.terms = acc
    return out


def _index(basis) -> Dict[Tuple[Monomial, CobarWord], int]:
    return {k: i for i, k in enumerate(basis)}


def element_to_vector(x: CobarElement, t: int) -> List[object]:
    basis = cochain_basis(x.spec, x.s, t)
    idx = _index(basis)
    vec = [0] * len(basis)
    for k, c in x.terms.items():
        vec[idx[k]] = c
    return vec


def vector_to_element(spec: AlgebroidSpec, s: int, t: int, vec) -> CobarElement:
    basis = cochain_basis(spec, s, t)
    return CobarElement(spec, s, {basis[i]: c for i, c in enumerate(vec) if c})


@lru_cache(maxsize=None)
def differential_matrix_int(spec: AlgebroidSpec, s: int, t: int) -> np.ndarray:
    """Integer matrix of d on the (s,t) piece (columns index the source),
    a read-only object array."""
    src = cochain_basis(spec, s, t)
    dst = cochain_basis(spec, s + 1, t)
    idx = _index(dst)
    out = np.zeros((len(dst), len(src)), dtype=object)
    for j, key in enumerate(src):
        img = differential(CobarElement(spec, s, {key: 1}))
        for k, c in img.terms.items():
            val = c.num if isinstance(c, LocalRational) else int(c)
            if isinstance(c, LocalRational) and c.den != 1:
                raise AssertionError("differential structure constant not integral")
            out[idx[k], j] = val
    out.flags.writeable = False
    return out


def differential_matrix_mod(spec: AlgebroidSpec, s: int, t: int, mod: int) -> np.ndarray:
    return (differential_matrix_int(spec, s, t) % mod).astype(np.int64)


@lru_cache(maxsize=None)
def _image_smith(spec: AlgebroidSpec, s: int, t: int) -> SmithDecomposition:
    """Smith normal form of the integral d^{s-1} into the (s,t) piece (of
    a matrix with no columns at s = 0); cohomology and is_coboundary share
    it."""
    if s == 0:
        return smith_normal_form(np.zeros((len(cochain_basis(spec, 0, t)), 0),
                                          dtype=object))
    return smith_normal_form(differential_matrix_int(spec, s - 1, t))


@dataclass
class CohomologyGroup:
    s: int
    t: int
    free_rank: int
    torsion: Tuple[int, ...] = ()
    representatives: List[CobarElement] = field(default_factory=list)


def cohomology(spec: AlgebroidSpec, s: int, t: int) -> CohomologyGroup:
    """Kernel-mod-image at (s,t) with representatives.

    Over a quotient everything is F5 linear algebra.  Over Z_(5) two Smith
    normal forms do the work.  With L b R = D for b = d^{s-1}, the first
    rank(b) columns of L^{-1} span the saturation of im b, the i-th giving
    a cyclic summand Z/d_i; only 5-power torsion is reported (other
    elementary divisors are units locally), in ascending order.  The
    remaining columns C span a complement, and the free classes are a
    saturated kernel basis of d^s restricted to C.  Representatives list
    the torsion classes in diagonal order, then the free ones.
    """
    if spec.quotient_level is not None:
        a = differential_matrix_mod(spec, s, t, 5)
        b = differential_matrix_mod(spec, s - 1, t, 5) if s > 0 else None
        ker = nullspace_mod(a, 5)
        if ker.shape[1] == 0:
            return CohomologyGroup(s, t, 0)
        if b is None or b.shape[1] == 0:
            coords = np.zeros((ker.shape[1], 0), dtype=np.int64)
        else:
            coords = solve_mod(ker, b, 5)
            if coords is None:
                raise AssertionError("image does not lie in kernel (d*d != 0?)")
        _, pivots = rref_mod(coords.T, 5)
        free = sorted(set(range(ker.shape[1])) - set(pivots))
        reps = [vector_to_element(spec, s, t, ker[:, j]) for j in free]
        return CohomologyGroup(s, t, len(free), (), reps)

    a = differential_matrix_int(spec, s, t)
    image = _image_smith(spec, s, t)
    rank = len(image.diagonal)
    saturated = image.left_inverse[:, :rank]
    if (a @ saturated).any():
        raise AssertionError("image does not lie in kernel (d*d != 0?)")
    complement = image.left_inverse[:, rank:]
    restricted = smith_normal_form(a @ complement)
    kernel = complement @ restricted.right_transform[:, len(restricted.diagonal):]

    def column(m: np.ndarray, j: int) -> CobarElement:
        return vector_to_element(spec, s, t, m[:, j].tolist())

    torsion = [(v5(d), j) for j, d in enumerate(image.diagonal) if v5(d) > 0]
    reps = [column(saturated, j) for _, j in torsion] + \
        [column(kernel, j) for j in range(kernel.shape[1])]
    return CohomologyGroup(s, t, kernel.shape[1], tuple(v for v, _ in torsion), reps)


def product(x: CobarElement, y: CobarElement) -> CobarElement:
    """Concatenation product, with the second coefficient moved to the left."""
    if x.spec != y.spec:
        raise SpecMismatch("cochains from different specs")
    spec = x.spec
    ring = spec.base_ring
    acc: Dict[Tuple[Monomial, CobarWord], object] = {}
    for (m1, w1), c1 in x.terms.items():
        left = Polynomial(ring, {m1: c1})
        for (m2, w2), c2 in y.terms.items():
            pushed = push_coefficient(spec, w1 + w2, len(w1),
                                      Polynomial(ring, {m2: c2}))
            for word, poly in pushed.items():
                for mono, c in (left * poly).terms.items():
                    key = (mono, word)
                    cur = acc.get(key)
                    cur = c if cur is None else ring.coeff(cur + c)
                    if cur:
                        acc[key] = cur
                    else:
                        acc.pop(key, None)
    res = CobarElement.__new__(CobarElement)
    res.spec, res.s, res.terms = spec, x.s + y.s, acc
    return res


def is_coboundary(z: CobarElement) -> Optional[CobarElement]:
    """A cochain w with d(w) = z exactly, or None.

    Raises NotACocycle when d(z) != 0.  Over Z_(5) the solve goes through
    Smith normal form, allowing division by 5-units only.
    """
    if differential(z):
        raise NotACocycle("input is not a cocycle")
    if z.is_zero():
        return CobarElement.zero(z.spec, z.s - 1)
    spec = z.spec
    t = z.degree()
    s = z.s
    if s == 0:
        return None
    if spec.quotient_level is not None:
        a = differential_matrix_mod(spec, s - 1, t, 5)
        vec = np.array([int(c) for c in element_to_vector(z, t)], dtype=np.int64)
        sol = solve_mod(a, vec, 5)
        if sol is None:
            return None
        return vector_to_element(spec, s - 1, t, sol)
    raw = element_to_vector(z, t)
    den = 1
    for c in raw:
        if isinstance(c, LocalRational):
            den = den * c.den // math.gcd(den, c.den)
    vec = [(c * den).num if isinstance(c, LocalRational) else int(c) * den for c in raw]
    snf = _image_smith(spec, s, t)
    lz = snf.left_transform.dot(np.array(vec, dtype=object)).tolist()
    diag = snf.diagonal
    y = np.array([LocalRational(0)] * snf.right_transform.shape[0], dtype=object)
    for i, v in enumerate(lz):
        if i < len(diag):
            q = LocalRational(v, diag[i])
            if not q.is_5_integral():
                return None
            y[i] = q
        elif v != 0:
            return None
    return vector_to_element(spec, s - 1, t,
                             (snf.right_transform.dot(y) / den).tolist())


def triple_massey(u: CobarElement, v: CobarElement, w: CobarElement
                  ) -> Tuple[CobarElement, int]:
    """<u,v,w> representative and the rank of its indeterminacy.

    Needs u,v,w cocycles with uv and vw coboundaries; the representative is
    xbar*w - (-1)^{s_u} u*ybar with d(xbar)=uv, d(ybar)=vw.
    """
    for name, x in (("u", u), ("v", v), ("w", w)):
        if differential(x):
            raise NotACocycle(f"{name} is not a cocycle")
    xbar = is_coboundary(product(u, v))
    ybar = is_coboundary(product(v, w))
    if xbar is None or ybar is None:
        raise BracketUndefined("a factor product is not a coboundary")
    sign = -1 if u.s % 2 else 1
    rep = product(xbar, w) - product(u, ybar).scale(sign)
    spec = u.spec
    s_out = rep.s
    t_out = (u.degree() or 0) + (v.degree() or 0) + (w.degree() or 0)
    # indeterminacy: u*H^{s_v+s_w-1} + H^{s_u+s_v-1}*w inside H^{s_out,t_out}
    hg = cohomology(spec, s_out, t_out)
    if not hg.representatives:
        return rep, 0
    left = cohomology(spec, v.s + w.s - 1, (v.degree() or 0) + (w.degree() or 0))
    right = cohomology(spec, u.s + v.s - 1, (u.degree() or 0) + (v.degree() or 0))
    cand = [product(u, h) for h in left.representatives] + \
           [product(h, w) for h in right.representatives]
    return rep, _class_rank(spec, s_out, t_out, cand)


def _class_rank(spec: AlgebroidSpec, s: int, t: int,
                elements: Sequence[CobarElement]) -> int:
    """Rank of the span of the given cocycles in H^{s,t} (mod-5 reduction)."""
    if not elements:
        return 0
    mod = 5
    a = differential_matrix_mod(spec, s - 1, t, mod) if s > 0 else None
    f5 = AlgebroidSpec(spec.variant, 0).base_ring
    v = np.array([[f5.coeff(c) for c in element_to_vector(e, t)]
                  for e in elements], dtype=np.int64).T
    if v.size == 0:
        return 0
    if a is None or a.shape[1] == 0:
        return rank_mod(v.T, mod)
    both = np.concatenate([a, v], axis=1)
    return rank_mod(both.T, mod) - rank_mod(a.T, mod)


def class_equal_up_to_unit(x: CobarElement, y: CobarElement) -> bool:
    """True when x = unit * y modulo coboundaries (unit in F5)."""
    for unit in (1, 2, 3, 4):
        try:
            if is_coboundary(x - y.scale(unit)) is not None:
                return True
        except NotACocycle:
            return False
    return False


# --- text form ------------------------------------------------------------

_BRACKET = re.compile(r"\[([^\]]*)\]")


def format_cobar(x: CobarElement) -> str:
    if not x.terms:
        return "0"
    ring = x.spec.base_ring
    by_word: Dict[CobarWord, Polynomial] = {}
    for (mono, word), c in x.terms.items():
        p = by_word.get(word, Polynomial.zero(ring))
        by_word[word] = p + Polynomial(ring, {mono: c})
    parts = []
    for word in sorted(by_word):
        ptxt = format_polynomial(by_word[word])
        if word:
            wtxt = "|".join("r" if e == 1 else f"r^{e}" for e in word)
            if ptxt == "1":
                parts.append(f"[{wtxt}]")
            elif ptxt == "-1":
                parts.append(f"-[{wtxt}]")
            else:
                parts.append(f"({ptxt})*[{wtxt}]")
        else:
            parts.append(ptxt if "+" not in ptxt[1:] and "- " not in ptxt
                         else f"({ptxt})")
    return " + ".join(parts).replace("+ -", "- ")


def parse_cobar(spec: AlgebroidSpec, s: int, text: str) -> CobarElement:
    """Parse sums like "a2*[r^3|r] - 2*[r|r]" (s >= 1) or plain polynomials
    (s = 0)."""
    ring = spec.base_ring
    if s == 0:
        p = parse_polynomial(ring, text)
        return CobarElement.from_polynomial(p, spec)
    out = CobarElement.zero(spec, s)
    pos = 0
    for m in _BRACKET.finditer(text):
        coeff_txt = text[pos:m.start()].strip()
        pos = m.end()
        sign = 1
        coeff_txt = coeff_txt.rstrip("*").strip()
        while coeff_txt and coeff_txt[0] in "+-":
            if coeff_txt[0] == "-":
                sign = -sign
            coeff_txt = coeff_txt[1:].strip()
        if coeff_txt.startswith("(") and coeff_txt.endswith(")"):
            coeff_txt = coeff_txt[1:-1].strip()
        coeff = parse_polynomial(ring, coeff_txt) if coeff_txt else \
            Polynomial.constant(ring, 1)
        word = parse_word(m.group(1))
        if len(word) != s:
            raise ValueError(f"word {word} has length != {s}")
        terms = {(mono, word): c for mono, c in coeff.scale(sign).terms.items()}
        out = out + CobarElement(spec, s, terms)
    if text[pos:].strip():
        raise ValueError(f"trailing input {text[pos:]!r}")
    return out
