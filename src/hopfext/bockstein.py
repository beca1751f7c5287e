"""Spectral sequence pages for the generator-adic and 5-adic filtrations.

Adding the generator a_k to the quotient base A/I_k gives a filtration of
the A/I_{k-1} cobar complex by powers of a_k; the associated spectral
sequence starts at H*(A/I_k) tensor F5[a_k] and converges to H*(A/I_{k-1}).
The final stage filters the 5-local complex by powers of 5.  Page
dimensions come from rank counts on filtration-restricted matrices of the
transferred small complex; stated differentials are verified on the
symbolic cobar complex by a lift-and-solve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .algebroid import AlgebroidSpec
from .cobar import (
    class_equal_up_to_unit,
    cobar_degree,
    cochain_basis,
    differential,
    differential_matrix_mod,
    element_to_vector,
    vector_to_element,
)
from .flinalg import nullspace_mod, rank_gf5, solve_mod
from .gradedpoly import Polynomial
from .transfer import (
    K_POWER,
    R_DEG,
    integral_valuations,
    periodic_cell,
    small_basis,
    transferred_matrix,
)

UNITS = (1, 2, 3, 4)


class NotAPageCycle(ValueError):
    """The element admits no lift whose differential jumps r filtration steps."""


class _FiltrationSpec(NamedTuple):
    k: int


class FiltrationSpec(_FiltrationSpec):
    """Which filtration: k in 1..4 filters A/I_{k-1} by powers of a_k;
    k = 0 filters the 5-local complex by powers of 5."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.k <= 4:
            raise IndexError(f"filtration index {self.k} outside 0..4")
        return self

    @property
    def base(self) -> AlgebroidSpec:
        level = None if self.k == 0 else self.k - 1
        return AlgebroidSpec("reduced", level)

    @property
    def filter_name(self) -> str:
        return "5" if self.k == 0 else f"a{self.k}"


class PageEntry(NamedTuple):
    s: int
    t: int
    u: int
    dim: int


# --- page dimensions (transferred complex) ---------------------------------

@lru_cache(maxsize=None)
def _filtered_cell(fspec: FiltrationSpec, s: int, t: int, symbolic: bool = False
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D mod 5, a_k exponents of the source basis, of the target basis),
    all read-only, for the differential out of (s, t): of the transferred
    complex, or with symbolic=True of the cobar complex."""
    base, pos = fspec.base, fspec.k - 1
    if symbolic:
        d = differential_matrix_mod(base, s, t, 5)
        filts = [[m[pos] for m in cochain_basis(base, u, t)] for u in (s, s + 1)]
    else:
        d = transferred_matrix(base, s, t, 5)
        filts = [[m[pos] for _, m in small_basis(base, u, t)] for u in (s, s + 1)]
    cell = (d,) + tuple(np.array(f, dtype=np.int64) for f in filts)
    for a in cell:
        a.setflags(write=False)
    return cell


@lru_cache(maxsize=None)
def _z_dim(fspec: FiltrationSpec, s: int, t: int, u: int, r: int) -> int:
    """dim {x in F^u C^s : D x in F^(u+r)} over F5.

    u may be negative (F^u is then the whole space) while the target
    filtration u + r keeps its stated value.  A cell reads its
    transfer.periodic_cell, whose filtered cell is the same arrays (the
    same coefficient pieces under the same differential), so each is built
    and ranked once."""
    cell = periodic_cell(fspec.base, s, t)
    if cell != (s, t):
        return _z_dim(fspec, *cell, u, r)
    d, filt_src, filt_dst = _filtered_cell(fspec, s, t)
    cols = np.nonzero(filt_src >= max(u, 0))[0]
    if cols.size == 0:
        return 0
    rows = np.nonzero(filt_dst < u + r)[0]
    if rows.size == 0 or d.size == 0:
        return int(cols.size)
    return int(cols.size) - rank_gf5(d[np.ix_(rows, cols)])


def page_entry_dim(fspec: FiltrationSpec, r: int, s: int, t: int, u: int
                   ) -> int:
    """dim E_r^{s,t,u} by the filtered-complex rank formula."""
    val = _z_dim(fspec, s, t, u, r) - _z_dim(fspec, s, t, u + 1, r - 1)
    if s > 0:
        val -= _z_dim(fspec, s - 1, t, u - r + 1, r - 1)
        val += _z_dim(fspec, s - 1, t, u - r + 1, r)
    return val


def _u_max(fspec: FiltrationSpec, t: int) -> int:
    return t // (R_DEG * fspec.k)


def page_dimensions(fspec: FiltrationSpec, r: int, s_max: int, t_max: int
                    ) -> List[PageEntry]:
    """Nonzero E_r entries in the window, ordered by (t, s, u)."""
    if r < 1:
        raise ValueError("pages start at r = 1")
    out: List[PageEntry] = []
    for t in range(0, t_max + 1, R_DEG):
        # every cobar slot has degree >= 8, so nothing lives at 8s > t
        s_top = min(s_max, t // R_DEG)
        if fspec.k == 0:
            for s in range(0, s_top + 1):
                d = _five_adic_page_dim(fspec, r, s, t)
                if d:
                    out.append(PageEntry(s, t, 0, d))
            continue
        for s in range(0, s_top + 1):
            for u in range(0, _u_max(fspec, t) + 1):
                d = page_entry_dim(fspec, r, s, t, u)
                if d:
                    out.append(PageEntry(s, t, u, d))
    return out


def infinity_page(fspec: FiltrationSpec, s_max: int, t_max: int
                  ) -> List[PageEntry]:
    """E_infinity within the window: in a fixed internal degree the
    filtration is bounded, so a page beyond the largest possible jump is
    stable."""
    r = (t_max // (R_DEG * fspec.k) if fspec.k else K_POWER) + 2
    return page_dimensions(fspec, r, s_max, t_max)


def _five_adic_page_dim(fspec: FiltrationSpec, r: int, s: int, t: int) -> int:
    """E_r of the 5-adic tower: free rank plus torsion surviving r-1
    Bockstein differentials on either side."""
    free, below, here = integral_valuations(fspec.base, s, t)
    return free + sum(1 for v in below + here if v >= r)


# --- stated differentials (symbolic cobar complex) -------------------------

def _vec(spec: AlgebroidSpec, x: Polynomial, t: int) -> np.ndarray:
    return np.array([int(c) % 5 for c in element_to_vector(spec, x, t)],
                    dtype=np.int64)


def _zr_subspace(fspec: FiltrationSpec, s: int, t: int, u: int, r: int
                 ) -> np.ndarray:
    """Columns spanning Z_r^u at cochain level s (embedded coordinates)."""
    d, filt, filt_dst = _filtered_cell(fspec, s, t, symbolic=True)
    cols = np.nonzero(filt >= u)[0]
    dim = filt.size
    if cols.size == 0:
        return np.zeros((dim, 0), dtype=np.int64)
    rows = np.nonzero(filt_dst < u + r)[0]
    if rows.size == 0 or d.size == 0:
        sub_ker = np.eye(cols.size, dtype=np.int64)
    else:
        sub_ker = nullspace_mod(d[np.ix_(rows, cols)], 5)
    out = np.zeros((dim, sub_ker.shape[1]), dtype=np.int64)
    out[cols, :] = sub_ker
    return out


def page_differential(source: Polynomial, fspec: FiltrationSpec, r: int
                      ) -> Polynomial:
    """d_r of an E_r class, a cochain over fspec.base: lift the
    representative within its filtration, then apply the cobar differential.

    Raises NotAPageCycle when no lift pushes the differential r steps up."""
    s, t = cobar_degree(fspec.base, source), source.degree()
    vec = _vec(fspec.base, source, t)
    d, filt, filt_dst = _filtered_cell(fspec, s, t, symbolic=True)
    support = np.nonzero(vec)[0]
    if support.size == 0:
        raise ValueError("zero source")
    u0 = int(filt[support].min())
    rows = np.nonzero(filt_dst < u0 + r)[0]
    corr_cols = np.nonzero(filt >= u0 + 1)[0]
    rhs = (-(d @ vec)) % 5
    if rows.size and corr_cols.size:
        sol = solve_mod(d[np.ix_(rows, corr_cols)], rhs[rows], 5)
    elif rows.size:
        sol = None if np.any(rhs[rows] % 5) else np.zeros(0, dtype=np.int64)
    else:
        sol = np.zeros(corr_cols.size, dtype=np.int64)
    if sol is None:
        raise NotAPageCycle(
            f"no lift of filtration {u0} with a jump of {r} steps")
    lift = vec.copy()
    if corr_cols.size:
        lift[corr_cols] = (lift[corr_cols] + sol) % 5
    value = (d @ lift) % 5
    return vector_to_element(fspec.base, s + 1, t, value)


def _in_denominator(fspec: FiltrationSpec, value: np.ndarray, s1: int, t: int,
                    u: int, r: int) -> bool:
    """Membership of a level-s1 vector in Z_{r-1}^{u+1} + d Z_{r-1}^{u-r+1}."""
    z_high = _zr_subspace(fspec, s1, t, u + 1, r - 1)
    z_low = _zr_subspace(fspec, s1 - 1, t, u - r + 1, r - 1)
    d = _filtered_cell(fspec, s1 - 1, t, symbolic=True)[0]
    bound = (d @ z_low) % 5 if z_low.size and d.size else \
        np.zeros((value.size, 0), dtype=np.int64)
    span = np.concatenate([z_high, bound], axis=1)
    if not span.size:
        return not np.any(value % 5)
    base_rank = rank_gf5(span)
    return rank_gf5(np.concatenate([span, value[:, None]], axis=1)) == base_rank


def verify_differential(source: Polynomial, target: Polynomial,
                        fspec: FiltrationSpec, r: int) -> bool:
    """True iff d_r(source) equals a unit multiple of target in E_r."""
    if fspec.k == 0:
        return _verify_five_adic(source, target, r)
    spec = fspec.base
    s, t = cobar_degree(spec, source), source.degree()
    if target and (cobar_degree(spec, target) != s + 1 or target.degree() != t):
        return False
    _, filt, filt_dst = _filtered_cell(fspec, s, t, symbolic=True)
    vec = _vec(spec, source, t)
    u0 = int(filt[np.nonzero(vec)[0]].min())
    value = _vec(spec, page_differential(source, fspec, r), t)
    tvec = _vec(spec, target, t)
    tsup = np.nonzero(tvec)[0]
    if tsup.size and int(filt_dst[tsup].min()) < u0 + r:
        return False
    u = u0 + r
    for w in UNITS:
        if _in_denominator(fspec, (value - w * tvec) % 5, s + 1, t, u, r):
            return True
    return False


def _verify_five_adic(source: Polynomial, target: Polynomial, r: int
                      ) -> bool:
    """5-adic Bockstein differential check on the symbolic complex.

    The source is an integral cochain whose differential is divisible by
    5^r; the value d(source)/5^r mod 5 is compared to a unit multiple of
    the target modulo mod-5 coboundaries (the page-r identification for the
    one page the tower needs is the E_1 one, torsion being exponent one).
    A target that is not a mod-5 cocycle fails the check."""
    spec_int = AlgebroidSpec("reduced", None)
    spec_f5 = AlgebroidSpec("reduced", 0)
    cobar_degree(spec_f5, target)  # ValueError unless a mod-5 cochain
    scaled = differential(spec_int, source).scale(Fraction(1, 5 ** r))
    if scaled and scaled.content_valuation() < 0:
        return False  # differential not divisible by 5^r
    # the mod-5 cochain: each coefficient reduced through the F5 ring
    value = scaled.map_coefficients(target.ring)
    return class_equal_up_to_unit(spec_f5, value, target)


# --- report feed ------------------------------------------------------------

def page_dump(fspec: FiltrationSpec, r: int, s_max: int, t_max: int
              ) -> Dict[str, object]:
    entries = page_dimensions(fspec, r, s_max, t_max)
    return {
        "filtration": fspec.filter_name,
        "page": r,
        "entries": [{"s": e.s, "t": e.t, "u": e.u, "dim": e.dim}
                    for e in entries],
    }
