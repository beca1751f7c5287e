"""Cobar complex of an algebroid presentation: cochains, the exact
differential, concatenation products, small-scale cohomology with
representatives, coboundary solving, representatives of triple Massey
products, and comparison of classes up to a unit.

An s-cochain is a Polynomial over gamma_ring(spec, s): a sum of
coefficient * [r^{e_1}|...|r^{e_s}], every coefficient at the global left,
each exponent positive (and at most 4 in the reduced variant), with no
generator the quotient kills.  Every entry point takes the spec first and
raises ValueError for a polynomial over any other ring.  This module works
symbolically and is meant for windows where the per-bidegree bases are
small; the transfer module handles large windows.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .coefficients import SmithDecomposition, smith_normal_form, v5
from .flinalg import nullspace_mod, rref_mod, solve_mod
from .gradedpoly import (
    Monomial,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .algebroid import (
    R_DEGREE,
    AlgebroidSpec,
    _split,
    coefficient_piece,
    eta_R_int,
    gamma_ring,
    parse_word,
    push_coefficient,
    reduce_base,
)

CobarWord = Tuple[int, ...]


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


def cobar_degree(spec: AlgebroidSpec, x: Polynomial) -> int:
    """The s of a cochain over gamma_ring(spec, s); ValueError when x is
    over any other ring (another variant, coefficient mode or shape)."""
    s = len(x.ring.names) - spec.num_generators
    if s < 0 or x.ring != gamma_ring(spec, s):
        raise ValueError("cochain is not over gamma_ring of this spec")
    return s


def _words(spec: AlgebroidSpec, x: Polynomial) -> Dict[CobarWord, Polynomial]:
    """The coefficient of each bar word of the cochain x."""
    n = spec.num_generators
    acc: Dict[CobarWord, Dict[Monomial, object]] = {}
    for m, c in x.terms.items():
        acc.setdefault(m[n:], {})[m[:n]] = c
    return {w: Polynomial(spec.base_ring, t) for w, t in acc.items()}


@lru_cache(maxsize=None)
def cochain_basis(spec: AlgebroidSpec, s: int, t: int) -> Tuple[Monomial, ...]:
    """Deterministic basis of the (s,t) cochain piece, as monomials of
    gamma_ring(spec, s): words in ascending lex order, then base monomials
    in graded-lex order."""
    cap = spec.max_r_power
    out: List[Monomial] = []
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
                out.append(m + word)
    return tuple(out)


def differential(spec: AlgebroidSpec, x: Polynomial) -> Polynomial:
    """Cobar differential: eta_R of each coefficient in a new first slot,
    plus (-1)^(i+1) psi in slot i, keeping the monomials whose slot
    exponents are all positive.  At s = 0 this is eta_R(x) - eta_L(x)."""
    s = cobar_degree(spec, x)
    x.degree()  # raises InhomogeneousInput when mixed
    n = spec.num_generators
    acc: Dict[Monomial, object] = {}
    for m, c in x.terms.items():
        for e, m2, c2 in eta_R_int(spec, m[:n]):
            key = m2 + (e,) + m[n:]
            acc[key] = acc.get(key, 0) + c * c2
    out = Polynomial(gamma_ring(spec, s + 1), acc)
    for i in range(s):
        out = out + _split(spec, x, i).scale((-1) ** (i + 1))
    return Polynomial(out.ring, {m: c for m, c in out.terms.items() if all(m[n:])})


def element_to_vector(spec: AlgebroidSpec, x: Polynomial, t: int) -> List[object]:
    basis = cochain_basis(spec, cobar_degree(spec, x), t)
    index = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in x.terms.items():
        vec[index[m]] = c
    return vec


def vector_to_element(spec: AlgebroidSpec, s: int, t: int, vec) -> Polynomial:
    return Polynomial(gamma_ring(spec, s),
                      {m: c for m, c in zip(cochain_basis(spec, s, t), vec) if c})


@lru_cache(maxsize=None)
def differential_matrix_int(spec: AlgebroidSpec, s: int, t: int) -> np.ndarray:
    """Integer matrix of d on the (s,t) piece (columns index the source),
    a read-only object array."""
    src = cochain_basis(spec, s, t)
    dst = {m: i for i, m in enumerate(cochain_basis(spec, s + 1, t))}
    out = np.zeros((len(dst), len(src)), dtype=object)
    for j, m in enumerate(src):
        img = differential(spec, Polynomial(gamma_ring(spec, s), {m: 1}))
        for k, c in img.terms.items():
            if type(c) is not int:
                raise AssertionError("differential structure constant not integral")
            out[dst[k], j] = c
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


class CohomologyGroup(NamedTuple):
    """One (s,t) piece: its free rank, the exponents of its 5-power cyclic
    summands, and a cocycle representing each summand."""
    free_rank: int
    torsion: Tuple[int, ...]
    representatives: List[Polynomial]


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
            return CohomologyGroup(0, (), [])
        if b is None or b.shape[1] == 0:
            coords = np.zeros((ker.shape[1], 0), dtype=np.int64)
        else:
            coords = solve_mod(ker, b, 5)
            if coords is None:
                raise AssertionError("image does not lie in kernel (d*d != 0?)")
        _, pivots = rref_mod(coords.T, 5)
        free = sorted(set(range(ker.shape[1])) - set(pivots))
        reps = [vector_to_element(spec, s, t, ker[:, j]) for j in free]
        return CohomologyGroup(len(free), (), reps)

    a = differential_matrix_int(spec, s, t)
    image = _image_smith(spec, s, t)
    rank = len(image.diagonal)
    saturated = image.left_inverse[:, :rank]
    if (a @ saturated).any():
        raise AssertionError("image does not lie in kernel (d*d != 0?)")
    complement = image.left_inverse[:, rank:]
    restricted = smith_normal_form(a @ complement)
    kernel = complement @ restricted.right_transform[:, len(restricted.diagonal):]

    def column(m: np.ndarray, j: int) -> Polynomial:
        return vector_to_element(spec, s, t, m[:, j].tolist())

    torsion = [(v5(d), j) for j, d in enumerate(image.diagonal) if v5(d) > 0]
    reps = [column(saturated, j) for _, j in torsion] + \
        [column(kernel, j) for j in range(kernel.shape[1])]
    return CohomologyGroup(kernel.shape[1], tuple(v for v, _ in torsion), reps)


def product(spec: AlgebroidSpec, x: Polynomial, y: Polynomial) -> Polynomial:
    """Concatenation product, with the second coefficient moved to the left."""
    s, s_y = cobar_degree(spec, x), cobar_degree(spec, y)
    right = _words(spec, y).items()
    acc: Dict[Monomial, object] = {}
    for w1, p1 in _words(spec, x).items():
        for w2, p2 in right:
            for word, p in push_coefficient(spec, w1 + w2, s, p2).items():
                for m, c in (p1 * p).terms.items():
                    acc[m + word] = acc.get(m + word, 0) + c
    return Polynomial(gamma_ring(spec, s + s_y), acc)


def is_coboundary(spec: AlgebroidSpec, z: Polynomial) -> Optional[Polynomial]:
    """A cochain w with d(w) = z exactly, or None.

    Raises NotACocycle when d(z) != 0.  Over Z_(5) the solve goes through
    Smith normal form, allowing division by 5-units only, so a z that is
    not 5-integral raises ValueError.
    """
    from fractions import Fraction
    if differential(spec, z):
        raise NotACocycle("input is not a cocycle")
    s = cobar_degree(spec, z)
    if z.is_zero():
        return Polynomial.zero(gamma_ring(spec, max(s - 1, 0)))
    if spec.quotient_level is None and z.content_valuation() < 0:
        raise ValueError("cochain is not 5-integral")
    t = z.degree()
    if s == 0:
        return None
    if spec.quotient_level is not None:
        a = differential_matrix_mod(spec, s - 1, t, 5)
        vec = np.array([int(c) for c in element_to_vector(spec, z, t)], dtype=np.int64)
        sol = solve_mod(a, vec, 5)
        if sol is None:
            return None
        return vector_to_element(spec, s - 1, t, sol)
    den = math.lcm(*(c.denominator for c in z.terms.values()))
    vec = element_to_vector(spec, z.scale(den), t)
    snf = _image_smith(spec, s, t)
    lz = snf.left_transform.dot(np.array(vec, dtype=object)).tolist()
    diag = snf.diagonal
    y = np.zeros(snf.right_transform.shape[0], dtype=object)
    for i, v in enumerate(lz):
        if i < len(diag):
            q = Fraction(v, diag[i])
            if q.denominator % 5 == 0:
                return None
            y[i] = q
        elif v != 0:
            return None
    return vector_to_element(spec, s - 1, t,
                             [Fraction(x, den) for x in snf.right_transform.dot(y)])


def triple_massey(spec: AlgebroidSpec, u: Polynomial, v: Polynomial,
                  w: Polynomial) -> Polynomial:
    """A representative xbar*w - (-1)^{s_u} u*ybar of <u,v,w>, with
    d(xbar) = uv and d(ybar) = vw.

    Needs u,v,w cocycles (else NotACocycle) with uv and vw coboundaries
    (else BracketUndefined).  The indeterminacy u*H + H*w (May, "Matric
    Massey products", J. Algebra 12, 1969) is not computed: a caller that
    compares the bracket to a class does so up to a unit with
    class_equal_up_to_unit.
    """
    for name, x in (("u", u), ("v", v), ("w", w)):
        if differential(spec, x):
            raise NotACocycle(f"{name} is not a cocycle")
    xbar = is_coboundary(spec, product(spec, u, v))
    ybar = is_coboundary(spec, product(spec, v, w))
    if xbar is None or ybar is None:
        raise BracketUndefined("a factor product is not a coboundary")
    sign = (-1) ** cobar_degree(spec, u)
    return product(spec, xbar, w) - product(spec, u, ybar).scale(sign)


def class_equal_up_to_unit(spec: AlgebroidSpec, x: Polynomial, y: Polynomial) -> bool:
    """True when x and y are cocycles and x = unit * y modulo coboundaries
    (unit in F5); False when either is not a cocycle."""
    if differential(spec, x) or differential(spec, y):
        return False
    return any(is_coboundary(spec, x - y.scale(unit)) is not None
               for unit in (1, 2, 3, 4))


# --- text form ------------------------------------------------------------

_BRACKET = r"\[([^\]]*)\]"


def format_cobar(spec: AlgebroidSpec, x: Polynomial) -> str:
    cobar_degree(spec, x)
    if not x.terms:
        return "0"
    parts = []
    for word, p in sorted(_words(spec, x).items()):
        ptxt = format_polynomial(p)
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


def parse_cobar(spec: AlgebroidSpec, s: int, text: str) -> Polynomial:
    """Parse sums like "a2*[r^3|r] - 2*[r|r]" (s >= 1) or plain polynomials
    (s = 0), each coefficient projected into the spec's quotient.  A word
    of length other than s, or with an exponent below 1 (or above 4 in the
    reduced variant), raises ValueError."""
    ring = spec.base_ring
    if s == 0:
        return reduce_base(spec, parse_polynomial(ring, text))
    cap = spec.max_r_power or math.inf
    acc: Dict[Monomial, object] = {}
    pos = 0
    for m in re.finditer(_BRACKET, text):
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
        if len(word) != s or not all(1 <= e <= cap for e in word):
            raise ValueError(f"bad word {word} for a {s}-cochain")
        for mono, c in reduce_base(spec, coeff.scale(sign)).terms.items():
            acc[mono + word] = acc.get(mono + word, 0) + c
    if text[pos:].strip():
        raise ValueError(f"trailing input {text[pos:]!r}")
    return Polynomial(gamma_ring(spec, s), acc)
