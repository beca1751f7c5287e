"""The ring of translation invariants of the base, degree by degree.

The right unit is eta_R = exp(rD) for the translation derivation
D(a_i) = (6 - i) a_(i-1), a_0 = 1 (_derivation_matrix, the one place D is
written), so an element of A is invariant exactly when D kills it: that is
is_invariant, and per degree the invariants are the integer kernel,
saturated over Z_(5), of D as a dense int64 matrix.  Each kernel is
checked by an exact product D V = 0 in Python ints, and its rank against
the rational rank of Q[c2..c5] (partitions_2345).  On top of the raw
kernels the module builds the named generators (c classes, the Delta
table, the discriminant), runs the generator census (one F5 echelon per
degree, over products of the earlier generators memoised across degrees)
with the depth heuristic, and reports Hilbert data.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algebroid import AlgebroidSpec, coefficient_piece, piece_index
from .coefficients import kernel_saturated, v5
from .flinalg import rref_mod
from .gradedpoly import (
    MODE_F5,
    Monomial,
    Polynomial,
    RingSpec,
    graded_piece_basis,
    parse_polynomial,
)

SPEC = AlgebroidSpec("full", None)
A_RING = SPEC.base_ring
R_DEG = 8
# largest degree whose invariant kernels are tractable; the rational rank
# carries the integral H^0 beyond it
H0_T_CEILING = 176


class IntegralityFailure(ArithmeticError):
    """A table expression failed to clear its denominators 5-adically."""


class InvarianceFailure(AssertionError):
    """A claimed invariant moves under the right unit."""


class NormalizationFailure(AssertionError):
    """The discriminant does not reduce to a unit multiple of a4^5."""


def is_invariant(p: Polynomial) -> bool:
    """Exact invariance, eta_R(p) = p inside Gamma: eta_R = exp(rD), so p
    is invariant exactly when D(p) = 0.  D keeps degrees, so each
    homogeneous part of p is tested on its own, in Python ints (the
    coefficients cleared of their denominators); ValueError for a
    polynomial over another ring than A_RING."""
    if p.ring != A_RING:
        raise ValueError("is_invariant needs a polynomial over A_RING")
    parts: Dict[int, Dict[Monomial, object]] = {}
    for m, c in p.terms.items():
        parts.setdefault(A_RING.monomial_degree(m), {})[m] = c
    for t, terms in parts.items():
        index = piece_index(SPEC, t)
        den = lcm(*(c.denominator for c in terms.values()))
        cols = [index[m] for m in terms]
        vec = np.array([int(c * den) for c in terms.values()], dtype=object)
        if (_derivation_matrix(t)[:, cols].astype(object) @ vec).any():
            return False
    return True


# --- degreewise kernels -----------------------------------------------------

def partitions_2345(n: int) -> int:
    """Partitions of n into parts 2, 3, 4, 5: the rank of the rational
    polynomial ring on c2..c5 in degree 8n."""
    count = 0
    for x5 in range(n // 5 + 1):
        for x4 in range((n - 5 * x5) // 4 + 1):
            rest = n - 5 * x5 - 4 * x4
            count += sum(1 for x3 in range(rest // 3 + 1)
                         if (rest - 3 * x3) % 2 == 0)
    return count


def _derivation_matrix(t: int) -> np.ndarray:
    """The translation derivation D(a_i) = (6 - i) a_(i-1), a_0 = 1, from
    the degree-t piece to the degree t - 8 piece as a dense int64 matrix:
    one column per monomial m of coefficient_piece(SPEC, t), one row per
    monomial of coefficient_piece(SPEC, t - 8), and in column m, for each
    a_i that divides m, the entry m_i (6 - i) at the row of m a_(i-1) / a_i."""
    index = piece_index(SPEC, t - R_DEG)
    piece = coefficient_piece(SPEC, t)
    d = np.zeros((len(index), len(piece)), np.int64)
    for j, mono in enumerate(piece):
        for i, x in enumerate(mono, 1):
            if x:
                src = list(mono)
                src[i - 1] -= 1
                if i > 1:
                    src[i - 2] += 1
                d[index[tuple(src)], j] = x * (6 - i)
    return d


@lru_cache(maxsize=None)
def invariant_basis(t: int) -> Tuple[Polynomial, ...]:
    """Saturated Z_(5)-basis of the degree-t invariants, deterministic."""
    if t < 0 or t % R_DEG:
        return ()
    if t == 0:
        return (Polynomial.constant(A_RING, 1),)
    d, cols = _derivation_matrix(t), coefficient_piece(SPEC, t)
    vecs = kernel_saturated(d)
    # eta_R = exp(rD) (r^e part D^e / e!) fixes v exactly when D v = 0; summed
    # over D's nonzeros in Python ints, as kernel entries pass 2^63 from t = 120
    entries = np.column_stack(np.nonzero(d) + (d[d != 0],)).tolist()
    for v in vecs:
        image = [0] * d.shape[0]
        for i, j, x in entries:
            image[i] += x * v[j]
        if any(image):
            raise InvarianceFailure(f"a kernel vector in degree {t} moves"
                                    " under the right unit")
    want = partitions_2345(t // R_DEG)
    if len(vecs) != want:
        raise AssertionError(f"the invariants in degree {t} have rank"
                             f" {len(vecs)}, not {want}, the rank of"
                             " Q[c2..c5]")
    # coefficient_piece is in the polynomial term order, so the first
    # nonzero entry of v is the leading coefficient: it fixes the sign, and
    # its position the basis order (a stable sort, as by leading monomial)
    leads = []
    for v in vecs:
        lead = next(i for i, c in enumerate(v) if c)
        sign = -1 if v[lead] < 0 else 1
        leads.append((lead, Polynomial(A_RING, {m: sign * c
                                                for m, c in zip(cols, v) if c})))
    leads.sort(key=itemgetter(0))
    return tuple(p for _, p in leads)


def hilbert_h0(t_max: int) -> List[Tuple[int, int]]:
    """Free rank of the invariants for every internal degree up to t_max."""
    return [(t, len(invariant_basis(t))) for t in range(0, t_max + 1, R_DEG)]


# --- named generators -------------------------------------------------------

class GeneratorRecord(NamedTuple):
    name: str
    degree: int
    expression: str
    polynomial: Polynomial
    depth: int


def depth(exponents: Tuple[int, int, int, int]) -> int:
    """Depth of a leading term a1^eps a2^i a3^j a4^k: i + 2j + 3k."""
    eps, i, j, k = exponents
    if eps not in (0, 1):
        raise ValueError("leading exponent of a1 must be 0 or 1")
    return i + 2 * j + 3 * k


def _leading_depth(p: Polynomial) -> int:
    mono = p.sorted_terms()[0][0]
    return depth((min(mono[0], 1), mono[1], mono[2], mono[3]))


_C_TEXT = {
    2: "-2*a1^2 + 5*a2",
    3: "4*a1^3 - 15*a1*a2 + 25*a3",
    4: "-3*a1^4 + 15*a1^2*a2 - 50*a1*a3 + 125*a4",
    5: "4*a1^5 - 25*a1^3*a2 + 125*a1^2*a3 - 625*a1*a4 + 3125*a5",
}


def c_class(i: int) -> GeneratorRecord:
    """The degree-8i invariant c_i, in the normalization of the explicit
    list (the closed binomial formula differs by a power of 5; see
    c_formula_discrepancy)."""
    if i not in _C_TEXT:
        raise KeyError(f"no c class at index {i}")
    p = parse_polynomial(A_RING, _C_TEXT[i])
    if not is_invariant(p):
        raise InvarianceFailure(f"c_{i} is not invariant")
    return GeneratorRecord(f"c{i}", R_DEG * i, _C_TEXT[i], p, _leading_depth(p))


def c_closed_formula(i: int) -> Polynomial:
    """The binomial closed form: sum_j C(5-j, i-j) (-1)^j a_j a_1^(i-j) 5^j."""
    ring = A_RING
    out = Polynomial.zero(ring)
    a1 = Polynomial.generator(ring, "a1")
    for j in range(0, i + 1):
        aj = Polynomial.constant(ring, 1) if j == 0 else \
            Polynomial.generator(ring, f"a{j}")
        term = aj
        for _ in range(i - j):
            term = term * a1
        coeff = comb(5 - j, i - j) * (-1) ** j * 5 ** j
        out = out + term.scale(coeff)
    return out


def c_formula_discrepancy(i: int) -> Fraction:
    """Scalar lambda with closed_formula = lambda * listed c_i (exact)."""
    from fractions import Fraction
    listed = c_class(i).polynomial
    closed = c_closed_formula(i)
    lead_m, lead_c = listed.sorted_terms()[0]
    top = closed.terms.get(lead_m)
    if top is None:
        raise AssertionError("formulas have different supports")
    lam = Fraction(top, lead_c)
    if closed != listed.scale(lam):
        raise AssertionError("closed formula is not proportional to the list")
    return lam


# Table of generator expressions: (name, degree index, 1/denominator,
# numerator as {product-of-names: integer coefficient}).
TABLE1: Tuple[Tuple[str, int, int, Tuple[Tuple[Tuple[str, ...], int], ...]], ...] = (
    ("D4", 4, 25, ((("c4",), 4), (("c2", "c2"), 3))),
    ("D5", 5, 25, ((("c5",), 2), (("c2", "c3"), 1))),
    ("D6", 6, 125, ((("c3", "c3"), 2), (("c2", "c4"), -4), (("c2",) * 3, 1))),
    ("D7", 7, 5, ((("c3", "D4"), 1), (("c2", "D5"), -2))),
    ("D8", 8, 5 ** 5, ((("c2", "c3", "c3"), -3), (("c2", "c2", "c4"), 9),
                       (("c4", "c4"), -4), (("c3", "c5"), 3))),
    ("D9", 9, 5 ** 5, ((("c3",) * 3, -9), (("c2", "c3", "c4"), 32),
                       (("c2", "c2", "c5"), -9), (("c4", "c5"), 4))),
    ("D10", 10, 200, ((("D5", "D5"), 2), (("c2", "D4", "D4"), 1),
                      (("D4", "D6"), -15))),
    ("D11", 11, 10, ((("D5", "D6"), 3), (("D4", "D7"), -1))),
    ("D12", 12, 5 ** 8, ((("c3",) * 4, 54), (("c2", "c3", "c3", "c4"), -279),
                         (("c2", "c2", "c4", "c4"), 216), (("c4",) * 3, -224),
                         (("c2", "c2", "c3", "c5"), 81),
                         (("c3", "c4", "c5"), 144), (("c2", "c5", "c5"), -27))),
    ("D13", 13, 15, ((("D4", "D9"), 1), (("D5", "D8"), -4))),
    ("D14", 14, 50, ((("c4", "D10"), 4), (("c3", "D11"), -6),
                     (("D6", "D8"), 30), (("D4", "D10"), -15),
                     (("c2", "D12"), 15))),
    ("D15p", 15, 5, ((("D5", "D10"), 1), (("D4", "D11"), -2))),
    ("D15", 15, 25, ((("D6", "D9"), 2), (("D7", "D8"), -1),
                     (("D15p",), 5), (("c2", "D13"), -15))),
    ("D16", 16, 25, ((("D5", "D11"), -4), (("c2", "D4", "D10"), -1),
                     (("D6", "D10"), 15), (("c2", "D14"), -15))),
    ("D17", 17, 25, ((("c3", "D14"), -3), (("c2", "D15p"), -2),
                     (("D8", "D9"), 20))),
    ("D18", 18, 5, ((("D5", "D13"), 2), (("D4", "D4", "D10"), -1),
                    (("D4", "D6", "D8"), 2))),
    ("D18p", 18, 25, ((("D9", "D9"), 2), (("c2", "D8", "D8"), 16),
                      (("D8", "D10"), -95))),
    ("D19", 19, 5, ((("D8", "D11"), 8), (("D9", "D10"), -1))),
    ("D21", 21, 25, ((("c3", "D18p"), 2), (("c2", "D19"), 12),
                     (("D10", "D11"), -30), (("D9", "D12"), 15))),
    ("D22", 22, 25, ((("c3", "D19"), 1), (("c4", "D18p"), 1),
                     (("D9", "D13"), 10), (("D11", "D11"), -5))),
    ("D", 20, 5 ** 15, (
        (("c2", "c2", "c2", "c3", "c3", "c4", "c4"), -100),
        (("c3", "c3", "c3", "c3", "c4", "c4"), -135),
        (("c2", "c2", "c2", "c2", "c4", "c4", "c4"), 400),
        (("c2", "c3", "c3", "c4", "c4", "c4"), 720),
        (("c2", "c2", "c4", "c4", "c4", "c4"), -640),
        (("c4",) * 5, 256),
        (("c2", "c2", "c2", "c3", "c3", "c3", "c5"), 80),
        (("c3",) * 5 + ("c5",), 108),
        (("c2", "c2", "c2", "c2", "c3", "c4", "c5"), -360),
        (("c2", "c3", "c3", "c3", "c4", "c5"), -630),
        (("c2", "c2", "c3", "c4", "c4", "c5"), 560),
        (("c3", "c4", "c4", "c4", "c5"), -320),
        (("c2",) * 5 + ("c5", "c5"), 108),
        (("c2", "c2", "c3", "c3", "c5", "c5"), 165),
        (("c2", "c2", "c2", "c4", "c5", "c5"), -180),
        (("c3", "c3", "c4", "c5", "c5"), 90),
        (("c2", "c4", "c4", "c5", "c5"), 80),
        (("c2", "c3", "c5", "c5", "c5"), -30),
        (("c5",) * 4, 1))),
)

TABLE1_NAMES = ("c2", "c3") + tuple(row[0] for row in TABLE1)


def _expression_text(denom: int, terms) -> str:
    bits = []
    for names, coeff in terms:
        prod = "*".join(names)
        bits.append(f"{coeff:+d}*{prod}")
    return f"(1/{denom})*({' '.join(bits)})"


@lru_cache(maxsize=None)
def table1_expand(name: str) -> GeneratorRecord:
    """Expand a named generator into the base ring and certify it.

    Certifies 5-integrality, exact invariance, and homogeneity of the
    stated degree; raises IntegralityFailure or InvarianceFailure."""
    from fractions import Fraction
    if name in ("c2", "c3", "c4", "c5"):
        return c_class(int(name[1]))
    for row_name, deg_idx, denom, terms in TABLE1:
        if row_name == name:
            break
    else:
        raise KeyError(f"unknown generator {name!r}")
    p = Polynomial.zero(A_RING)
    for names, coeff in terms:
        term = Polynomial.constant(A_RING, coeff)
        for factor in names:
            term = term * table1_expand(factor).polynomial
        p = p + term
    p = p.scale(Fraction(1, denom))
    t = R_DEG * deg_idx
    if any(A_RING.monomial_degree(m) != t for m in p.terms):
        raise AssertionError(f"{name} is not homogeneous of degree {t}")
    if not p:
        raise AssertionError(f"{name} expanded to zero")
    if p.content_valuation() < 0:
        raise IntegralityFailure(f"{name} has a residual 5 in the denominator")
    if not is_invariant(p):
        raise InvarianceFailure(f"{name} is not invariant")
    return GeneratorRecord(name, t, _expression_text(denom, terms), p,
                           _leading_depth(p))


def table1_records() -> List[GeneratorRecord]:
    return [table1_expand(n) for n in TABLE1_NAMES]


# --- discriminant -----------------------------------------------------------

def _sylvester_determinant(rows: List[List[Polynomial]]) -> Polynomial:
    """Determinant by Laplace expansion over column subsets (the matrix is
    small and banded, so the subset table stays sparse)."""
    n = len(rows)
    ring = rows[0][0].ring
    table: Dict[int, Polynomial] = {0: Polynomial.constant(ring, 1)}
    for i in range(n):
        nxt: Dict[int, Polynomial] = {}
        for mask, val in table.items():
            col_rank = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    col_rank += 1
                    continue
                entry = rows[i][j]
                if entry:
                    sign = -1 if (i + col_rank) % 2 else 1
                    add = (val * entry).scale(sign)
                    key = mask | bit
                    nxt[key] = nxt.get(key, Polynomial.zero(ring)) + add
        table = {k: v for k, v in nxt.items() if v}
    return table.get((1 << n) - 1, Polynomial.zero(ring))


@lru_cache(maxsize=None)
def discriminant() -> Polynomial:
    """Discriminant of x^5 + a1 x^4 + ... + a5, normalized so that the
    image modulo (5, a1, a2, a3) is exactly a4^5."""
    from fractions import Fraction
    ring = A_RING
    zero = Polynomial.zero(ring)
    one = Polynomial.constant(ring, 1)
    gens = {i: Polynomial.generator(ring, f"a{i}") for i in range(1, 6)}
    f = [one, gens[1], gens[2], gens[3], gens[4], gens[5]]
    fp = [one.scale(5), gens[1].scale(4), gens[2].scale(3),
          gens[3].scale(2), gens[4]]
    n = 9
    rows: List[List[Polynomial]] = []
    for i in range(4):
        rows.append([zero] * i + f + [zero] * (4 - 1 - i))
    for i in range(5):
        rows.append([zero] * i + fp + [zero] * (5 - 1 - i))
    res = _sylvester_determinant(rows)
    killed = {m: c for m, c in res.terms.items()
              if not (m[0] or m[1] or m[2])}
    a4_5 = (0, 0, 0, 5, 0)
    lead = killed.get(a4_5)
    if lead is None:
        raise NormalizationFailure("no a4^5 term modulo (a1, a2, a3)")
    if v5(lead) != 0:
        raise NormalizationFailure("a4^5 coefficient is not a 5-unit")
    disc = res.scale(Fraction(1, lead))
    extra = [(m, c) for m, c in disc.terms.items()
             if not (m[0] or m[1] or m[2]) and m != a4_5
             and v5(c) == 0]
    if extra:
        raise NormalizationFailure("residual unit terms modulo I_3")
    if not is_invariant(disc):
        raise InvarianceFailure("discriminant moves under the right unit")
    return disc


def disc_unit_factor() -> Tuple[Fraction, bool]:
    """(lambda, matches): lambda is Table 1's D row over the discriminant
    at the discriminant's leading monomial, and matches says lambda is a
    5-unit with lambda * disc = D.  A D row without that monomial gives
    lambda = 0, a mismatch."""
    from fractions import Fraction
    disc = discriminant()
    d_row = table1_expand("D").polynomial
    lead_m, lead_c = disc.sorted_terms()[0]
    lam = Fraction(d_row.terms.get(lead_m, 0), lead_c)
    return lam, bool(lam) and v5(lam) == 0 and disc.scale(lam) == d_row


# --- generator census -------------------------------------------------------

F5_RING = RingSpec(A_RING.names, A_RING.degrees, mode=MODE_F5)


def _mod5(p: Polynomial) -> Polynomial:
    """Image of an invariant in F5[a1..a5]; exact because the saturated
    basis has 5-unit content."""
    return p.map_coefficients(F5_RING)


def _mod5_rows(polys: Sequence[Polynomial], t: int) -> "np.ndarray":
    monos = graded_piece_basis(F5_RING, t)
    idx = {m: i for i, m in enumerate(monos)}
    rows = np.zeros((len(polys), len(monos)), dtype=np.int64)
    for i, p in enumerate(polys):
        for m, c in p.terms.items():
            rows[i, idx[m]] = int(c) % 5
    return rows


@lru_cache(maxsize=None)
def _census_upto(t: int) -> Tuple[Tuple[int, Tuple[Polynomial, ...]], ...]:
    """Sequential generator discovery: at each degree, the quotient of the
    invariants by products of previously found generators (and 5).

    All ranks are computed in the ambient F5 polynomial ring; this agrees
    with ranks in the invariants mod 5 because the basis is saturated, so
    its mod-5 reduction stays independent in the ambient ring.

    The pick is greedy and comes from one echelon per degree: the mod-5
    products, then the basis, are the columns of one matrix, and a column
    is a pivot of its F5 row echelon form exactly when it is independent
    of the columns before it.  So the pivots past the products are the
    basis elements that each raise the rank over the products and the
    elements picked before them, in basis order.

    Each degree is computed once: the census through t extends the cached
    census through t - 8 by degree t alone, and the products of earlier
    generators come from one memo shared by every degree (see
    _products_of_degree), since each degree's registry extends the one
    before it by appending.
    """
    if t % R_DEG:
        return _census_upto(t - t % R_DEG)
    if t < R_DEG:
        return ()
    earlier = _census_upto(t - R_DEG)
    basis = invariant_basis(t)
    if not basis:
        return earlier + ((t, ()),)
    mod5_registry = tuple((deg, _mod5(p)) for deg, reps in earlier
                          for p in reps)
    products = _products_of_degree(mod5_registry, t, _CENSUS_PRODUCTS)
    rows = _mod5_rows(products + [_mod5(b) for b in basis], t)
    _, pivots = rref_mod(rows.T, 5)
    if len(pivots) != len(basis):
        raise AssertionError("generators fail to span a graded piece")
    new_reps = tuple(basis[c - len(products)] for c in pivots
                     if c >= len(products))
    return earlier + ((t, new_reps),)


Products = Dict[Tuple[int, int], List[Polynomial]]

# the census's memo of Q(j, d) (see _products_of_degree), shared by every
# degree of _census_upto
_CENSUS_PRODUCTS: Products = {}


def _products_of_degree(registry: Tuple[Tuple[int, Polynomial], ...],
                        t: int, memo: Optional[Products] = None
                        ) -> List[Polynomial]:
    """Every product of registry entries, with repetition, of total degree
    t > 0: nonempty products of nonzero polynomials, so none is zero.

    Q(j, d), the products of degree d over registry[:j], is Q(j - 1, d)
    followed by g_j * Q(j, d - deg g_j), where g_j = registry[j - 1]: the
    products without g_j, then those with it at least once.  So each
    multiset of generators appears exactly once.  memo holds Q by (j, d);
    calls may share one when each registry extends the earlier ones by
    appending, since Q(j, d) reads registry[:j] alone."""
    memo = {} if memo is None else memo
    one = Polynomial.constant(registry[0][1].ring if registry else A_RING, 1)

    def q(j: int, d: int) -> List[Polynomial]:
        if d == 0:
            return [one]
        if j == 0 or d < 0:
            return []
        if (j, d) not in memo:
            deg, g = registry[j - 1]
            memo[j, d] = q(j - 1, d) + [g * p for p in q(j, d - deg)]
        return memo[j, d]

    return list(q(len(registry), t))


def new_generators(t: int) -> Tuple[int, Tuple[Polynomial, ...]]:
    """(count, representatives) of fresh algebra generators in degree t."""
    for deg, reps in _census_upto(t):
        if deg == t:
            return len(reps), reps
    return 0, ()
