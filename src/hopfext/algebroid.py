"""Presentations of the rank-one translation Hopf algebroid at p=5.

Two variants are supported: the full presentation (A, Gamma) with
A = Z_(5)[a1..a5] and Gamma = A[r], and the reduced presentation with
base Z_(5)[a1..a4] and the monic relation r^5 + a1*r^4 + a2*r^3 + a3*r^2
+ a4*r = 0.  Either can be cut down by the invariant ideals
I_k = (5, a1, ..., ak).  Structure maps are exact.  Gamma and its tensor
powers are polynomials over gamma_ring(spec, s): the base generators and
one r per slot, every coefficient written at the global left, with
r-exponents below 5 in the reduced variant.  r is primitive, so psi in
one slot is the substitution r -> r' + r'' and the counit is r -> 0.

The right unit is built once per weight, as the integer matrix eta_block
on the whole coefficient piece (exact or mod 5^K); eta_R_int reads one
monomial's column of it, and _r_power_int gives the normal form of r^e.
eta_R, reduce_gamma, push_coefficient, the cobar differential and the
numeric layers read those, and check_axioms certifies the table.  Every
block, exact or residue, full or reduced, in r-exponents or letters,
comes from the blocks below it by the generator recursion
eta_R(m * a_i) = eta_R(m) * eta_R(a_i) (_eta_block).

For the full presentation, letter_block is the block in the letter
alphabet of the transfer layer, where the letter of weight w is
z^(w div 5) r^(w mod 5) and z = eta_R(a5), built by the same recursion
run in letters: eta_R(a_i) for i <= 4 is a sum of letters and eta_R(a5)
is the letter z, so (letter w) * eta_R(a_i) is z^(w div 5) times letter
forms of powers of r (_letter_form; with z = 0, the reduced normal form).
Each layer is one step, _move_runs, which moves whole runs of rows by a
table of terms to rows found by memoised multiplication maps (_mul_map,
one per source weight and term monomial, shared by every block).  The
sums run in int32, int64 or Python ints: the narrowest type that a bound
taken before the sum proves wide enough.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .gradedpoly import (
    MODE_F5,
    MODE_LOCAL,
    Monomial,
    Polynomial,
    RingSpec,
    graded_piece_basis,
    parse_polynomial,
)

P = 5
R_DEGREE = 8


class AxiomViolation(AssertionError):
    """A structure-map identity failed; the presentation is corrupted."""


class _AlgebroidSpec(NamedTuple):
    variant: str = "full"
    quotient_level: Optional[int] = None


class AlgebroidSpec(_AlgebroidSpec):
    """Which presentation and which quotient.

    quotient_level None works over Z_(5); level k (0 <= k <= 4) works over
    F5 with a1..ak killed, i.e. modulo the invariant ideal I_k.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in ("full", "reduced"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.quotient_level is not None and not 0 <= self.quotient_level <= P - 1:
            raise IndexError(f"quotient level {self.quotient_level} outside 0..{P - 1}")
        return self

    @property
    def num_generators(self) -> int:
        return P if self.variant == "full" else P - 1

    @property
    def killed(self) -> Tuple[str, ...]:
        k = self.quotient_level or 0
        return tuple(f"a{i}" for i in range(1, k + 1))

    @property
    def base_ring(self) -> RingSpec:
        return _base_ring(self.variant, self.quotient_level is not None)

    @property
    def max_r_power(self) -> Optional[int]:
        """Largest r-exponent in normal form, or None when unbounded."""
        return P - 1 if self.variant == "reduced" else None


@lru_cache(maxsize=None)
def _base_ring(variant: str, modular: bool) -> RingSpec:
    n = P if variant == "full" else P - 1
    names = tuple(f"a{i}" for i in range(1, n + 1))
    degrees = tuple(R_DEGREE * i for i in range(1, n + 1))
    return RingSpec(names, degrees, mode=MODE_F5 if modular else MODE_LOCAL)


@lru_cache(maxsize=None)
def coefficient_piece(spec: AlgebroidSpec, t: int) -> Tuple[Monomial, ...]:
    """Base monomials of degree t that survive the quotient (no killed
    generator), in graded-lex order; empty for t < 0."""
    killed = len(spec.killed)
    return tuple(m for m in graded_piece_basis(spec.base_ring, t)
                 if not any(m[:killed]))


def reduce_base(spec: AlgebroidSpec, p: Polynomial) -> Polynomial:
    """Project a base-ring polynomial into the spec's quotient."""
    ring = spec.base_ring
    if p.ring.names != ring.names:
        raise ValueError("polynomial has the wrong generators")
    if p.ring != ring:
        p = p.map_coefficients(ring)
    k = spec.quotient_level or 0
    if k == 0:
        return p
    out = {m: c for m, c in p.terms.items() if not any(m[i] for i in range(k))}
    return Polynomial(ring, out)


@lru_cache(maxsize=None)
def gamma_ring(spec: AlgebroidSpec, s: int = 1) -> RingSpec:
    """The ring Gamma^(x s) is written in: the base generators, then r at
    s = 1 or r1..rs past it; s = 0 is the base ring."""
    base = spec.base_ring
    slots = ("r",) if s == 1 else tuple(f"r{i}" for i in range(1, s + 1))
    return RingSpec(base.names + slots, base.degrees + (R_DEGREE,) * s,
                    mode=base.mode)


@lru_cache(maxsize=None)
def _relation_tail(spec: AlgebroidSpec) -> Tuple[Tuple[int, Monomial], ...]:
    # (5 - j, a_j) over the live generators: r^5 = - (a1 r^4 + ... + a4 r)
    # reduced, and r^5 = z - (a1 r^4 + ... + a4 r + a5) in the letters
    n, k = spec.num_generators, spec.quotient_level or 0
    return tuple((P - j, tuple(int(g == j - 1) for g in range(n)))
                 for j in range(k + 1, n + 1))


def reduce_gamma(spec: AlgebroidSpec, g: Polynomial) -> Polynomial:
    """Project a polynomial over gamma_ring(spec) into Gamma: drop the
    monomials in a killed generator and rewrite each r^e by its normal
    form (the monic r^5 relation in the reduced variant)."""
    if g.ring.names != gamma_ring(spec).names:
        raise ValueError("polynomial has the wrong generators")
    k, mod = spec.quotient_level or 0, coefficient_modulus(spec, None)
    return _gamma(spec, ((e2, _mono_add(m[:-1], m2), c * c2)
                         for m, c in g.terms.items() if not any(m[:k])
                         for e2, m2, c2 in _r_power_int(spec, m[-1], mod)))


def _gamma(spec: AlgebroidSpec, terms: Iterable[Tuple[int, Monomial, object]]
           ) -> Polynomial:
    """The element of Gamma summing (r-exponent, monomial, coefficient)
    triples, such as the rows of eta_R_int."""
    acc: Dict[Monomial, object] = {}
    for e, m, c in terms:
        key = m + (e,)
        acc[key] = acc.get(key, 0) + c
    return Polynomial(gamma_ring(spec), acc)


def eta_R(spec: AlgebroidSpec, x: Polynomial) -> Polynomial:
    """Right unit: ring-map image of a base polynomial in Gamma, read off
    the integer table eta_R_int."""
    x = reduce_base(spec, x)
    return _gamma(spec, ((e, m2, c * c2) for mono, c in x.terms.items()
                         for e, m2, c2 in eta_R_int(spec, mono)))


def eta_L(spec: AlgebroidSpec, x: Polynomial) -> Polynomial:
    """Left unit: a base polynomial as an element of Gamma."""
    return _gamma(spec, ((0, m, c) for m, c in reduce_base(spec, x).terms.items()))


# --- integer right-unit table ---------------------------------------------

IntTerms = Tuple[Tuple[int, Monomial, int], ...]


def coefficient_modulus(spec: AlgebroidSpec, mod: Optional[int]) -> Optional[int]:
    """Modulus the integer right unit works in: a quotient spec works over
    F5, so its coefficients are residues mod 5 whatever `mod` asks."""
    return P if spec.quotient_level is not None else mod


def _mono_add(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(add, m1, m2))


def sort_terms(out: List[Tuple[int, Monomial, int]]) -> None:
    """Sort (exponent, monomial, coefficient) triples in place by exponent,
    then in the polynomial term order (_mono_sort_key ascending, which is
    descending lexicographic order of the monomials)."""
    out.sort(key=itemgetter(1), reverse=True)
    out.sort(key=itemgetter(0))


def _int_terms(acc: Dict[Tuple[int, Monomial], int], mod: Optional[int]) -> IntTerms:
    """Nonzero (r-exponent, monomial, coefficient) triples in sort_terms
    order; _push_prefix_mono keys by a word in place of the exponent."""
    out = []
    for (e, m), c in acc.items():
        if mod:
            c %= mod
        if c:
            out.append((e, m, c))
    sort_terms(out)
    return tuple(out)


@lru_cache(maxsize=None)
def _letter_form(spec: AlgebroidSpec, e: int, mod: Optional[int]) -> IntTerms:
    """Letter normal form of r^e, as (letter weight, monomial, coefficient)
    triples: z = eta_R(a5) = r^5 + a1 r^4 + ... + a4 r + a5 in the full
    presentation and z = 0 in the reduced one, so for e >= 5, r^e =
    z r^(e-5) - sum_j a_j r^(e-j) over the live a_j, and z adds 5 to the
    letter weight (weight-0 terms are kept: the next z carries them on)."""
    if e < P:
        return ((e, (0,) * spec.num_generators, 1),)
    acc: Dict[Tuple[int, Monomial], int] = {}
    if spec.variant == "full":
        acc = {(w + P, m): c for w, m, c in _letter_form(spec, e - P, mod)}
    for exp, mono in _relation_tail(spec):
        for w, m2, c2 in _letter_form(spec, e - P + exp, mod):
            key = (w, _mono_add(mono, m2))
            acc[key] = acc.get(key, 0) - c2
    return _int_terms(acc, mod)


def _r_power_int(spec: AlgebroidSpec, e: int, mod: Optional[int]) -> IntTerms:
    """Normal form of r^e: r^e itself in the full presentation, and its
    letter form (z = 0) in the reduced one."""
    if spec.variant == "full":
        return ((e, (0,) * spec.num_generators, 1),)
    return _letter_form(spec, e, mod)


@lru_cache(maxsize=None)
def _times_eta_generator(spec: AlgebroidSpec, e: int, i: int,
                         mod: Optional[int], letters: bool) -> IntTerms:
    """Normal form of r^e * eta_R(a_i) = sum_{j=0..i} C(5-j, i-j) a_j
    r^(e+i-j), a_0 = 1; in `letters`, of (letter e) * eta_R(a_i): z^q times
    the letter forms of r^(g+i-j) for e = 5q + g (for a5, the letter e + 5)."""
    n, k = spec.num_generators, spec.quotient_level or 0
    q, g = divmod(e, P) if letters else (0, e)
    form = _letter_form if letters else _r_power_int
    acc: Dict[Tuple[int, Monomial], int] = {}
    for j in range(0, i + 1):
        if 1 <= j <= k:
            continue
        aj = tuple(int(x == j - 1) for x in range(n))
        for e2, m2, c2 in form(spec, g + i - j, mod):
            key = (e2 + P * q, _mono_add(aj, m2))
            acc[key] = acc.get(key, 0) + comb(P - j, i - j) * c2
    return _int_terms(acc, mod)


# --- the right-unit block ----------------------------------------------------

_INT64_MAX = 2 ** 63 - 1
_INT32_MAX = 2 ** 31 - 1


@lru_cache(maxsize=None)
def piece_index(spec: AlgebroidSpec, d: int) -> Dict[Monomial, int]:
    """Position of each monomial in coefficient_piece(spec, d)."""
    return {m: i for i, m in enumerate(coefficient_piece(spec, d))}


@lru_cache(maxsize=None)
def eta_block_offsets(spec: AlgebroidSpec, n: int) -> Tuple[int, ...]:
    """Row offsets of eta_block(spec, n, mod) by r-exponent, then its
    height: exponent e owns rows offsets[e]:offsets[e + 1], one per
    monomial of coefficient_piece(spec, 8 (n - e)), in that order."""
    top = n if spec.max_r_power is None else min(n, spec.max_r_power)
    offsets = [0]
    for e in range(top + 1):
        offsets.append(offsets[-1]
                       + len(coefficient_piece(spec, R_DEGREE * (n - e))))
    return tuple(offsets)


@lru_cache(maxsize=None)
def _row_labels(spec: AlgebroidSpec, n: int) -> Tuple[Tuple[int, Monomial], ...]:
    """(r-exponent, monomial) of each row of eta_block(spec, n, mod)."""
    top = len(eta_block_offsets(spec, n)) - 2
    return tuple((e, m) for e in range(top + 1)
                 for m in coefficient_piece(spec, R_DEGREE * (n - e)))


def _last_generator_columns(spec: AlgebroidSpec, n: int
                            ) -> Tuple[Tuple[int, np.ndarray, np.ndarray], ...]:
    """(i, columns, sources) per generator a_i: the columns of the weight-n
    piece whose last live generator is a_i, and the columns of the
    weight-(n - i) piece that hold them divided by a_i; none at n = 0."""
    groups: Dict[int, Tuple[List[int], List[int]]] = {}
    for j, mono in enumerate(coefficient_piece(spec, R_DEGREE * n) if n else ()):
        g = max(k for k, x in enumerate(mono) if x)
        rest = mono[:g] + (mono[g] - 1,) + mono[g + 1:]
        cols, srcs = groups.setdefault(g + 1, ([], []))
        cols.append(j)
        srcs.append(piece_index(spec, R_DEGREE * (n - g - 1))[rest])
    return tuple((i, np.array(cols), np.array(srcs))
                 for i, (cols, srcs) in sorted(groups.items()))


@lru_cache(maxsize=None)
def _mul_map(spec: AlgebroidSpec, w: int, m2: Monomial) -> Tuple[int, ...]:
    """Multiplication by the monomial m2 on the weight-w piece: position
    in the product piece of m1 * m2, for each monomial m1 of
    coefficient_piece(spec, 8 w) in turn."""
    index = piece_index(spec, R_DEGREE * w + spec.base_ring.monomial_degree(m2))
    return tuple(index[_mono_add(m1, m2)]
                 for m1 in coefficient_piece(spec, R_DEGREE * w))


def _move_runs(spec: AlgebroidSpec, src: np.ndarray, n_src: int, n: int,
               terms: Callable[[int], IntTerms], mod: Optional[int]) -> np.ndarray:
    """Rows of the weight-n layout (eta_block_offsets(spec, n)) from src,
    whose rows are laid out as the weight-n_src block: each nonzero
    exponent-e1 run of src moves by each term (e, m2, c2) of terms(e1) to
    the exponent-e rows, monomial m1 to m1 * m2, times c2, and the moves
    are summed (mod `mod` unless it is None).  Row positions come from the
    memoised multiplication map _mul_map(spec, n_src - e1, m2), which
    every exponent (letter weight, in letters) and block shares.

    src holds residues or exact integers (an object array may pass 2^63).
    Each layer adds one product to an entry, so no partial sum passes the
    bound layers * (mod - 1)^2 mod 5^K, or layers * max|c2| * max|src|
    exact.  The sums run in int32 where that bound is at most 2^31 - 1
    and in int64 where it is at most 2^63 - 1.  Past that, a modulus is
    refused (ValueError) and exact sums run on Python ints in an object
    array.  Exact int32 sums are returned as int64."""
    high, low = eta_block_offsets(spec, n), eta_block_offsets(spec, n_src)
    live = src.any(axis=1).tolist()
    # the terms on one exponent may hit one row; terms on different
    # exponents never do, so layer k gathers the k-th term on each
    # exponent and is one indexed add
    layers: List[Tuple[List[int], List[int], List[int]]] = []
    depth = [0] * len(high)
    c2_max = 0
    for e1 in range(len(low) - 1):
        lo = low[e1]
        run = [p for p, x in enumerate(live[lo:low[e1 + 1]]) if x]
        if not run:
            continue
        run_rows = [lo + p for p in run]
        for e, m2, c2 in terms(e1):
            if mod is not None:
                c2 %= mod
                if not c2:
                    continue
            if depth[e] == len(layers):
                layers.append(([], [], []))
            rows, src_rows, coefs = layers[depth[e]]
            depth[e] += 1
            c2_max = max(c2_max, abs(c2))
            mp, base = _mul_map(spec, n_src - e1, m2), high[e]
            rows += [base + mp[p] for p in run]
            src_rows += run_rows
            coefs += [c2] * len(run)
    if mod is not None:
        bound = len(layers) * (mod - 1) ** 2
        if bound > _INT64_MAX:
            raise ValueError("modulus too large for exact int64 accumulation")
    else:
        bound = len(layers) * c2_max * (int(np.abs(src).max()) if src.size else 0)
    dtype = (object if bound > _INT64_MAX
             else np.int32 if bound <= _INT32_MAX else np.int64)
    src = src.astype(dtype, copy=False)
    acc = np.zeros((high[-1], src.shape[1]), dtype)
    for rows, src_rows, coefs in layers:
        # one index array serves both the read and the write of the add
        acc[np.array(rows)] += np.array(coefs, dtype)[:, None] * src[src_rows]
    if mod is not None:
        return acc % mod
    return acc.astype(np.int64) if dtype == np.int32 else acc


def eta_block(spec: AlgebroidSpec, n: int, mod: Optional[int] = None) -> np.ndarray:
    """The right unit on the whole weight-n coefficient piece, as one matrix.

    Column j is eta_R of coefficient_piece(spec, 8n)[j]; its rows are
    r-exponent-major (see eta_block_offsets), each exponent's rows in
    coefficient_piece order, so the nonzero entries of a column, read down,
    are its (r-exponent, monomial, coefficient) terms in sort_terms order.

    mod = 5^K gives residues in the smallest unsigned dtype that holds
    one, summed in int32 or int64 (see _move_runs) and refused
    (ValueError) where a sum could pass 2^63.  mod = None gives exact
    integers: int64 where a bound taken before the sum proves that no sum
    can pass 2^63, and an object array past that bound (the first entries
    past 2^63 are at weight 24 reduced, 26 full).  A quotient spec always
    works mod 5 (see coefficient_modulus).  Each block is built once per
    (spec, weight, working modulus), however the modulus is asked for.

    Every block comes from the generator recursion (_eta_block), and
    check_axioms certifies the table through eta_R_int."""
    return _eta_block(spec, n, coefficient_modulus(spec, mod), False)


def _letters(spec: AlgebroidSpec, n: int) -> bool:
    """Whether the weight-n letter block differs from eta_block: only in
    the full presentation from weight 5, its first r-exponent >= 5."""
    return spec.variant == "full" and n >= P


@lru_cache(maxsize=None)
def _eta_block(spec: AlgebroidSpec, n: int, mod: Optional[int], letters: bool
               ) -> np.ndarray:
    """eta_block at the working modulus `mod`, or letter_block where
    `letters` (every call passes `letters` positionally, false wherever
    _letters is, so each block has one key), by the generator recursion
    eta_R(m * a_i) = eta_R(m) * eta_R(a_i): the columns whose last live
    generator is a_i are eta_R(a_i) times columns of the weight-(n - i)
    block, which _move_runs moves by _times_eta_generator."""
    cmod = coefficient_modulus(spec, None)
    parts = [(cols, _move_runs(
        spec, _eta_block(spec, n - i, mod, letters and _letters(spec, n - i))[:, srcs],
        n - i, n, lambda e1: _times_eta_generator(spec, e1, i, cmod, letters), mod))
        for i, cols, srcs in _last_generator_columns(spec, n)]
    if mod is not None:
        dtype = np.min_scalar_type(mod - 1)
    else:
        dtype = object if any(part.dtype == object for _, part in parts) \
            else np.int64
    out = np.zeros((eta_block_offsets(spec, n)[-1],
                    len(coefficient_piece(spec, R_DEGREE * n))), dtype)
    if n == 0:
        out[0, 0] = 1
    for cols, part in parts:
        out[:, cols] = part
    out.setflags(write=False)
    return out


def letter_block(spec: AlgebroidSpec, n: int, mod: Optional[int] = None
                 ) -> np.ndarray:
    """eta_block(spec, n, mod) in letters: the rows of letter weight w sit
    where the exponent-w rows do.  It is built by the generator recursion
    run in letters (_eta_block), in the dtypes of that recursion:
    exact full letter blocks are int64 through weight 22 and object arrays
    past it.  A block with no exponent >= 5 (every reduced block, every
    full block below weight 5) is eta_block itself."""
    return _eta_block(spec, n, coefficient_modulus(spec, mod), _letters(spec, n))


@lru_cache(maxsize=None)
def eta_R_int(spec: AlgebroidSpec, mono: Monomial, mod: Optional[int] = None) -> IntTerms:
    """Right unit of a base monomial with integer coefficients, as
    (r-exponent, monomial, coefficient) triples in normal form, in
    sort_terms order: the monomial's column of eta_block (empty for a
    monomial the quotient kills).

    mod = 5^K gives residues and None exact integers (see
    coefficient_modulus for quotient specs)."""
    mod = coefficient_modulus(spec, mod)
    if any(mono[:spec.quotient_level or 0]):
        return ()
    n = spec.base_ring.monomial_degree(mono) // R_DEGREE
    col = eta_block(spec, n, mod)[:, piece_index(spec, R_DEGREE * n)[mono]]
    rows = np.flatnonzero(col)
    labels = _row_labels(spec, n)
    return tuple((*labels[r], c) for r, c in zip(rows.tolist(), col[rows].tolist()))


def _split(spec: AlgebroidSpec, g: Polynomial, slot: int) -> Polynomial:
    """psi in one slot of an element of Gamma^(x s): r is primitive, so
    psi is the substitution r -> r' + r'' there, into Gamma^(x s+1)."""
    i = spec.num_generators + slot
    acc: Dict[Monomial, object] = {}
    for m, c in g.terms.items():
        e = m[i]
        for k in range(e + 1):
            key = m[:i] + (k, e - k) + m[i + 1:]
            acc[key] = acc.get(key, 0) + c * comb(e, k)
    return Polynomial(gamma_ring(spec, len(g.ring.names) - spec.num_generators + 1),
                      acc)


def _counit(spec: AlgebroidSpec, g: Polynomial, slot: int) -> Polynomial:
    """epsilon in one slot of an element of Gamma^(x s): r -> 0 there,
    into Gamma^(x s-1)."""
    i = spec.num_generators + slot
    return Polynomial(gamma_ring(spec, len(g.ring.names) - spec.num_generators - 1),
                      {m[:i] + m[i + 1:]: c for m, c in g.terms.items() if not m[i]})


def psi(spec: AlgebroidSpec, g: Polynomial) -> Polynomial:
    """Coproduct Gamma -> Gamma (x) Gamma: r -> r1 + r2."""
    return _split(spec, g, 0)


@lru_cache(maxsize=None)
def _push_prefix_mono(spec: AlgebroidSpec, word: Tuple[int, ...], mono: Monomial
                      ) -> Tuple[Tuple[Tuple[int, ...], Monomial, int], ...]:
    """Move the base monomial sitting right of `word` across it to the global
    left, as (word, monomial, coefficient) triples.  One move multiplies
    eta_R(mono) into the last factor; the monomials of that product then
    continue across the shorter prefix."""
    if not word:
        return (((), mono, 1),)
    mod = coefficient_modulus(spec, None)
    moved: Dict[Tuple[int, Monomial], int] = {}
    for e1, m1, c1 in eta_R_int(spec, mono):
        for e, m2, c2 in _r_power_int(spec, word[-1] + e1, mod):
            key = (e, _mono_add(m1, m2))
            moved[key] = moved.get(key, 0) + c1 * c2
    out: Dict[Tuple[Tuple[int, ...], Monomial], int] = {}
    for (e, m), c in moved.items():
        for prefix, m3, c3 in _push_prefix_mono(spec, word[:-1], m):
            key = (prefix + (e,), m3)
            out[key] = out.get(key, 0) + c * c3
    return _int_terms(out, mod)


def push_coefficient(spec: AlgebroidSpec, word: Tuple[int, ...], pos: int,
                     coeff: Polynomial) -> Dict[Tuple[int, ...], Polynomial]:
    """Normal form of the tensor word with `coeff` inserted right of factor
    `pos` (pos=0 means it is already at the global left)."""
    coeff = reduce_base(spec, coeff)
    suffix = word[pos:]
    acc: Dict[Tuple[int, ...], Dict[Monomial, object]] = {}
    for mono, c in coeff.terms.items():
        for prefix, m, c2 in _push_prefix_mono(spec, word[:pos], mono):
            poly = acc.setdefault(prefix + suffix, {})
            poly[m] = poly.get(m, 0) + c * c2
    ring = spec.base_ring
    out = {w: Polynomial(ring, t) for w, t in acc.items()}
    return {w: p for w, p in out.items() if p}


def quotient(spec: AlgebroidSpec, k: int) -> AlgebroidSpec:
    """Cut down by the invariant ideal I_k = (5, a1, ..., ak), 0 <= k <= 4."""
    return AlgebroidSpec(variant=spec.variant, quotient_level=k)


# --- axiom checking -------------------------------------------------------

def _check(cond: bool, detail: str):
    if not cond:
        raise AxiomViolation(detail)


def check_axioms(spec: AlgebroidSpec, t_max: int) -> Dict[str, int]:
    """Verify the Hopf algebroid identities on all basis data of internal
    degree at most t_max.  Returns counts of checks performed; raises
    AxiomViolation on the first failure, or on an identity left unchecked.

    The right-unit images are the rows of eta_R_int, the table every
    numeric route reads, so these checks certify that table.
    """
    ring = spec.base_ring

    def eta(*gens: int) -> Polynomial:
        # the table's image of the product of the generators a_i, i in gens
        mono = tuple(gens.count(g) for g in range(1, spec.num_generators + 1))
        return _gamma(spec, eta_R_int(spec, mono))

    counts = {"counit_unit": 0, "ring_map": 0, "degree": 0, "coassoc": 0,
              "counit_law": 0, "psi_eta_r": 0}

    max_e = t_max // R_DEGREE
    cap = spec.max_r_power
    basis_exps = [e for e in range(0, max_e + 1) if cap is None or e <= cap]

    # epsilon o eta_R = epsilon o eta_L = id on generators
    for i in range(1, spec.num_generators + 1):
        if R_DEGREE * i > t_max:
            break
        gi = reduce_base(spec, Polynomial.generator(ring, f"a{i}"))
        _check(_counit(spec, eta(i), 0) == gi, f"epsilon(eta_R(a{i})) != a{i}")
        _check(_counit(spec, eta_L(spec, gi), 0) == gi,
               f"epsilon(eta_L(a{i})) != a{i}")
        counts["counit_unit"] += 1
        d = None if gi.is_zero() else eta(i).degree()
        _check(d in (None, R_DEGREE * i), f"eta_R(a{i}) not homogeneous of degree {8 * i}")
        counts["degree"] += 1

    # eta_R multiplicative on generator pairs: the table's image of a_i*a_j
    # is the product of the generator images in Gamma
    for i in range(1, spec.num_generators + 1):
        for j in range(i, spec.num_generators + 1):
            if R_DEGREE * (i + j) > t_max:
                break
            _check(eta(i, j) == reduce_gamma(spec, eta(i) * eta(j)),
                   f"eta_R(a{i}*a{j}) != eta_R(a{i}) * eta_R(a{j})")
            counts["ring_map"] += 1

    # counit laws and coassociativity on r-power basis elements
    r = Polynomial.generator(gamma_ring(spec), "r")
    for e in basis_exps:
        g = r ** e
        t = psi(spec, g)
        _check(_counit(spec, t, 0) == g, f"(eps x id) psi(r^{e}) != r^{e}")
        _check(_counit(spec, t, 1) == g, f"(id x eps) psi(r^{e}) != r^{e}")
        counts["counit_law"] += 1
        _check(_split(spec, t, 0) == _split(spec, t, 1),
               f"coassociativity fails on r^{e}")
        counts["coassoc"] += 1

    # psi o eta_R = (1 x eta_R), both sides in left-pushed normal form
    for i in range(1, spec.num_generators + 1):
        if R_DEGREE * i > t_max:
            break
        img = eta(i)
        rhs: Dict[Monomial, object] = {}
        for m, c in img.terms.items():
            coeff = Polynomial(ring, {m[:-1]: c})
            for w, p in push_coefficient(spec, (0, m[-1]), 1, coeff).items():
                for m2, c2 in p.terms.items():
                    rhs[m2 + w] = rhs.get(m2 + w, 0) + c2
        _check(psi(spec, img) == Polynomial(gamma_ring(spec, 2), rhs),
               f"psi(eta_R(a{i})) != 1 x eta_R(a{i})")
        counts["psi_eta_r"] += 1

    # invariance of the ideal chain: eta_R(a_i) has all coefficients in I_k
    # whenever i <= k (checked on the unquotiented presentation)
    if spec.quotient_level is None:
        counts["ideal_chain"] = 0
        for k in range(1, P):
            for i in range(1, min(k, spec.num_generators) + 1):
                for m, c in eta(i).terms.items():
                    _check(any(m[:k]) or c.numerator % P == 0,
                           f"eta_R(a{i}) term r^{m[-1]} coefficient outside I_{k}")
                counts["ideal_chain"] += 1
    idle = sorted(k for k, v in counts.items() if v <= 0)
    _check(not idle, f"no instances checked for {idle}")
    return counts


# --- text forms -----------------------------------------------------------

def parse_gamma(spec: AlgebroidSpec, text: str) -> Polynomial:
    """Parse expressions like "a4*r + a3*r^2 + a2*r^3"."""
    return reduce_gamma(spec, parse_polynomial(gamma_ring(spec), text))


def parse_word(text: str) -> Tuple[int, ...]:
    """Parse a bar word like "r^4|r" into its exponent sequence."""
    out = []
    for part in text.split("|"):
        part = part.strip()
        if part == "r":
            out.append(1)
        elif part.startswith("r^"):
            out.append(int(part[2:]))
        else:
            raise ValueError(f"bad tensor factor {part!r}")
    return tuple(out)
