"""The paper's exact statements, each written once.

CLAIMS is the ordered registry that `hopfext verify` runs and that the
acceptance suite parametrizes over.  A check returns None when its claim
holds and raises ClaimFailed, naming the failing cell or generator, when
it does not.  Checks raise explicitly, so they still fail under
``python -O``.  Nothing is computed at import time.

Where the source states a form that is wrong, the claim checks the
corrected form and pins the stated one to its exact discrepancy
(`v1-algebra-hilbert`, `h0-generator-census`).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple

from .algebroid import (AlgebroidSpec, AxiomViolation, check_axioms, eta_R,
                        parse_gamma, quotient)
from .bockstein import (FiltrationSpec, infinity_page, page_dimensions,
                        verify_differential)
from .cobar import (class_equal_up_to_unit, cohomology, differential,
                    format_cobar, is_coboundary, parse_cobar, product,
                    triple_massey)
from .coefficients import v5
from .flinalg import rank_mod
from .gradedpoly import Polynomial, parse_polynomial
from .invariants import (F5_RING, H0_T_CEILING, _mod5, _mod5_rows,
                         _products_of_degree, disc_unit_factor, discriminant,
                         hilbert_h0, invariant_basis, new_generators,
                         partitions_2345, table1_records)
from .transfer import ext_dim, integral_structure
from .v1algebra import presented_dim
from .wordcx import dual_h_dim, reduced_word_h_dim

FULL = AlgebroidSpec("full")
RED = AlgebroidSpec("reduced")
I = {k: quotient(RED, k) for k in range(5)}

B = "[r^4|r] + 2*[r^3|r^2] + 2*[r^2|r^3] + [r|r^4]"
X1 = "a1*[r^4] + a2*[r^3] + a3*[r^2] + a4*[r]"
X1_I1 = "a2*[r^3] + a3*[r^2] + a4*[r]"
X1_I2 = "a3*[r^2] + a4*[r]"
X2 = "a4^2*[r] + 2*a3*a4*[r^2] + 3*a3^2*[r^3]"
X3 = "a4^3*[r] + 3*a3*a4^2*[r^2] - a3^2*a4*[r^3] - 3*a3^3*[r^4]"
Y_I1 = "a3^2 + 2*a2*a4"
Z_I1 = "a3^5 + 2*a2^3*a3^3 + a2^4*a3*a4"
DISC_I1 = ("a4^5 - 2*a3^4*a4^2 - a2*a3^2*a4^3 + 2*a2^2*a4^4"
           " + a2^3*a3^2*a4^2 + a2^4*a4^3")
C2 = "-2*a1^2 + 5*a2"
C3 = "4*a1^3 - 15*a1*a2 + 25*a3"


class ClaimFailed(Exception):
    """A paper statement does not hold; the message names where."""


class Claim(NamedTuple):
    tag: str
    description: str
    check: Callable[[], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ClaimFailed(message)


def cb(spec, s, text):
    return parse_cobar(spec, s, text)


def times(spec, poly_text, text, s):
    return product(spec, cb(spec, 0, poly_text), cb(spec, s, text))


# --- 1. structure maps ------------------------------------------------------

def _axioms(variant):
    try:
        check_axioms(AlgebroidSpec(variant), 200)
    except AxiomViolation as exc:
        raise ClaimFailed(f"{variant}: {exc}") from exc


def _right_unit(gen, text):
    got = eta_R(FULL, parse_polynomial(FULL.base_ring, gen))
    _require(got == parse_gamma(FULL, text), f"eta_R({gen}) != {text}")


# --- 2. top-quotient cohomology ---------------------------------------------

def _top_quotient_ring():
    # the full window via the minimal resolution over the dual algebra,
    # which stays small at every bidegree
    hits = set()
    for k in range(0, 11):
        hits.add((2 * k, 40 * k))
        hits.add((2 * k + 1, 40 * k + 8))
    for s in range(0, 9):
        for t in range(0, 401, 8):
            got, want = dual_h_dim(s, t), int((s, t) in hits)
            _require(got == want, f"dim H^{(s, t)} = {got}, expected {want}")
    # cross-checks: the direct word-complex ranks where those are cheap,
    # and the generic transfer path at a few cells
    for n in range(0, 14):
        for s in range(0, n + 2):
            _require(dual_h_dim(s, 8 * n) == reduced_word_h_dim(n, s),
                     f"word complex disagrees at (s, n) = {(s, n)}")
    for s, t in ((0, 0), (1, 8), (2, 40), (3, 48), (4, 80), (2, 48), (5, 96)):
        _require(ext_dim(I[4], s, t) == dual_h_dim(s, t),
                 f"ext_dim mod I4 disagrees at {(s, t)}")


# --- 3. and 4. cochain identities and cocycles -------------------------------

def _d_equals(spec, s, text, *wants):
    d = differential(spec, cb(spec, s, text))
    for want in wants:
        _require(d == want, f"d({text}) = {format_cobar(spec, d)},"
                 " not the stated value")


def _hidden_extension():
    lhs = product(I[1], cb(I[1], 0, Y_I1), cb(I[1], 1, "[r]")).scale(2) \
        - times(I[1], "a2", X1_I1, 1)
    _require(lhs == differential(I[1], cb(I[1], 0, "a3*a4")),
             "2*a*[a3^2] - a2*x1 != d(a3*a4) mod I1")


def _x1_bounds_5b():
    d_x1 = differential(RED, cb(RED, 1, X1))
    _require(any(d_x1 == cb(RED, 2, B).scale(5 * u)
                 for u in (1, 2, 3, 4, -1, -2)),
             "d(x1) is not a unit times 5*b")


def _cocycles(*cases):
    for spec, s, text in cases:
        _require(differential(spec, cb(spec, s, text)).is_zero(),
                 f"d({text}) != 0 mod I{spec.quotient_level}")


# --- 5. tower differentials -------------------------------------------------

def _tower_d(source, target, k, r):
    _require(verify_differential(source, target, FiltrationSpec(k), r),
             f"d{r} in tower {k} misses the stated target")


def _collapse():
    for k, page in ((4, 1), (3, 5), (2, 3), (1, 3), (0, 2)):
        fs = FiltrationSpec(k)
        now = {(e.s, e.t, e.u): e.dim for e in page_dimensions(fs, page, 3, 120)}
        inf = {(e.s, e.t, e.u): e.dim for e in infinity_page(fs, 3, 120)}
        _require(now == inf, f"tower {k} has not collapsed at E{page}")


# --- 6. the mod-I1 answer algebra ---------------------------------------------

def _v1_algebra_hilbert():
    # As stated, the relation list (presented_dim's default) leaves three
    # products alive that are exact in the cobar complex: x1*y, x1*z and
    # a2*b*y, with y = [a3^2] and z = [a3^5], first visible at (1,88),
    # (2,104) and (1,160).  The completed list adds exactly those three.
    # So the completed model must agree with ext_dim on the whole window,
    # and the stated model must disagree exactly where completion changes
    # the count (a set computed from the presentation alone), always by
    # counting more classes than the cobar complex has.
    stated, completed, ext = {}, {}, {}
    for s in range(0, 7):
        for t in range(0, 401, 8):
            stated[(s, t)] = presented_dim(s, t)
            completed[(s, t)] = presented_dim(s, t, completed=True)
            ext[(s, t)] = ext_dim(I[1], s, t)
    wrong = [c for c in ext if completed[c] != ext[c]]
    _require(not wrong, f"completed model disagrees with ext_dim at {wrong}")
    mismatches = sorted(c for c in ext if stated[c] != ext[c])
    _require(mismatches[:1] == [(1, 88)],
             f"stated model first disagrees at {mismatches[:1]}, not (1, 88)")
    unseen = {(1, 88), (2, 104), (1, 160)} - set(mismatches)
    _require(not unseen, f"stated model agrees at {sorted(unseen)}")
    under = [c for c in mismatches if stated[c] < ext[c]]
    _require(not under, f"stated model undercounts at {under}")
    changed = sorted(c for c in stated if stated[c] != completed[c])
    _require(mismatches == changed,
             f"stated-model mismatches {mismatches} != completion changes"
             f" {changed}")
    # cochain-level evidence: y and z are the H^0 generators the cobar
    # layer itself returns, and the three missing products are coboundaries
    # mod I1, while a2*b, which both models keep, is not
    y = cb(I[1], 0, Y_I1)
    z = cb(I[1], 0, Z_I1)
    _require(differential(I[1], z).is_zero(), "z is not a cocycle mod I1")
    _require(y in cohomology(I[1], 0, 48).representatives,
             "y is not a representative of H^{0,48}")
    _require(cohomology(I[1], 0, 120).representatives == [z],
             "z is not the representative of H^{0,120}")
    x1 = cb(I[1], 1, X1_I1)
    a2_b = times(I[1], "a2", B, 2)
    for name, missing in (("x1*y", product(I[1], y, x1)),
                          ("x1*z", product(I[1], z, x1)),
                          ("a2*b*y", product(I[1], y, a2_b))):
        _require(is_coboundary(I[1], missing) is not None,
                 f"{name} is not a coboundary mod I1")
    _require(is_coboundary(I[1], a2_b) is None, "a2*b is a coboundary mod I1")


# --- 7. Massey products -------------------------------------------------------

def _massey(spec, u, v, w, target):
    rep = triple_massey(spec, u, v, w)
    _require(class_equal_up_to_unit(spec, rep, target),
             "the Massey product misses every unit multiple of the target")


def _x1x2_extension():
    prod = product(I[2], cb(I[2], 1, X1_I2), cb(I[2], 1, X2))
    _require(class_equal_up_to_unit(I[2], prod, times(I[2], "a3^3", B, 2)),
             "x1*x2 is not a unit times a3^3*b mod I2")


# --- 8. full versus reduced presentation --------------------------------------

def _full_reduced():
    for k in range(5):
        fq = quotient(FULL, k)
        for s in range(0, 5):
            for t in range(8, 241, 8):
                _require(ext_dim(I[k], s, t) == ext_dim(fq, s, t),
                         f"presentations disagree at (k, s, t) = {(k, s, t)}")


# --- 9. the invariant ring ----------------------------------------------------

def _table1_integral():
    recs = table1_records()
    _require(len(recs) == 23, f"{len(recs)} table rows, expected 23")
    for r in recs:
        _require(r.polynomial.content_valuation() >= 0,
                 f"{r.name} is not 5-integral")


def _rational_ranks():
    for t, rank in hilbert_h0(H0_T_CEILING):
        want = partitions_2345(t // 8)
        _require(rank == want, f"rank {rank} at t = {t}, expected {want}")


def _generator_census():
    # As stated: the listed generators c2, c3, D4..D22 and the discriminant
    # D (degree index 20) give one fresh generator in degrees 16, 24 and 8i
    # for i in 4..22, with a second one at 120 (D15, D15p) and at 144 (D18,
    # D18p).  The computed minimal census is lower in exactly three degrees:
    # D16, D18 and D22 are products of earlier listed generators mod 5, so
    # 128, 144 and 176 lose one each.  The census is generator-choice
    # independent (it is dim M_t/(5*M_t + decomposables)), so the witness
    # below pins the drop on those three table entries.
    as_stated = {8: 0, 16: 1, 24: 1}
    for i in range(4, 23):
        as_stated[8 * i] = 1
    as_stated[120] = 2
    as_stated[144] = 2
    got = {t: new_generators(t)[0] for t in range(8, 177, 8)}
    drift = {t: (as_stated[t], got[t]) for t in got if got[t] != as_stated[t]}
    _require(drift == {128: (1, 0), 144: (2, 1), 176: (1, 0)},
             f"census departs from the stated list at {drift}")
    # witness from the table itself: the listed generators of degree t add
    # exactly the census count over the products of lower listed ones, and
    # together they span M_t mod 5
    listed = sorted(((r.degree, r.name, _mod5(r.polynomial))
                     for r in table1_records()), key=lambda x: x[0])

    def rank(polys, t):
        return rank_mod(_mod5_rows(polys, t), 5) if polys else 0

    redundant = []
    for t in range(8, 177, 8):
        products = _products_of_degree(
            tuple((d, p) for d, _, p in listed if d < t), t)
        here = [(name, p) for d, name, p in listed if d == t]
        base = rank(products, t)
        full = rank(products + [p for _, p in here], t)
        _require(full == len(invariant_basis(t)),
                 f"listed generators fail to span degree {t}")
        _require(full - base == got[t],
                 f"listed generators add {full - base} in degree {t},"
                 f" the census {got[t]}")
        redundant += [name for name, p in here
                      if rank(products + [p], t) == base]
    _require(redundant == ["D16", "D18", "D22"],
             f"decomposable listed generators {redundant}")


def _disc_mod_i3():
    disc = discriminant()
    units = {m: c for m, c in disc.terms.items()
             if not (m[0] or m[1] or m[2]) and v5(c) == 0}
    _require(set(units) == {(0, 0, 0, 5, 0)}
             and units[(0, 0, 0, 5, 0)] == 1,
             f"unit terms modulo I3 are {sorted(units)}")


def _disc_mod_i1():
    disc = _mod5(discriminant())
    got = Polynomial(F5_RING, {m: c for m, c in disc.terms.items()
                               if not (m[0] or m[4])})
    want = parse_polynomial(F5_RING, DISC_I1)
    _require(any(got == want.scale(u) for u in (1, 2, 3, 4)),
             "discriminant mod I1 is not a unit times the quintic")


def _disc_table():
    _require(disc_unit_factor()[1],
             "resultant discriminant is not a 5-unit times table entry D")


# --- 10. integral structure ---------------------------------------------------

def _integral_window():
    expected = {}
    for j in (0, 1):
        for s, dt in ((1, 8), (2, 40), (3, 48), (4, 80)):
            expected[(s, 160 * j + dt)] = (0, (1,))
    for s in range(1, 5):
        for t in range(8, 241, 8):
            free, torsion = integral_structure(RED, s, t)
            want = expected.get((s, t), (0, ()))
            _require((free, tuple(torsion)) == want,
                     f"H^{(s, t)} = {(free, tuple(torsion))}, expected {want}")
    # s = 0 free ranks match the invariant-ring Hilbert function; the
    # direct ambient kernel is only tractable through H0_T_CEILING, where
    # it agrees with the closed count, so the closed count carries the
    # rest of the window
    for t in range(0, 241, 8):
        got = integral_structure(RED, 0, t)
        want = (partitions_2345(t // 8), ())
        _require(got == want, f"H^{(0, t)} = {got}, expected {want}")
    for t in range(0, H0_T_CEILING + 1, 8):
        _require(len(invariant_basis(t)) == partitions_2345(t // 8),
                 f"invariant basis in degree {t} has the wrong rank")


def _exact(x, what):
    _require(is_coboundary(RED, x) is not None, f"{what} is not a coboundary")


def _kills(text, s):
    for killer in ("5", C2, C3):
        _exact(times(RED, killer, text, s), f"({killer})*{text}")


def _delta_faithful():
    d5 = _mod5(discriminant())
    for t in (16, 48, 96):
        basis = [_mod5(p) for p in invariant_basis(t)]
        _require(rank_mod(_mod5_rows([p * d5 for p in basis], t + 160), 5)
                 == len(basis), f"D kills an invariant of degree {t}")
    # on the torsion classes: mod I1 the discriminant reduces to a quintic
    # in a4, and a nonzero product there certifies a nonzero integral one
    dbar = cb(I[1], 0, DISC_I1)
    _require(differential(I[1], dbar).is_zero(), "D mod I1 is not a cocycle")
    for s, text in ((1, "[r]"), (2, B)):
        _require(is_coboundary(I[1], product(I[1], dbar, cb(I[1], s, text)))
                 is None,
                 f"D*{text} is a coboundary mod I1")


# --- the registry ---------------------------------------------------------------

CLAIMS: List[Claim] = [
    Claim("axioms-full", "structure maps satisfy all identities, full"
          " presentation, t <= 200", lambda: _axioms("full")),
    Claim("axioms-reduced", "structure maps satisfy all identities,"
          " reduced presentation, t <= 200", lambda: _axioms("reduced")),
    Claim("right-unit-a1", "eta_R(a1) = a1 + 5r",
          lambda: _right_unit("a1", "a1 + 5*r")),
    Claim("right-unit-a4",
          "eta_R(a4) = a4 + 2*a3*r + 3*a2*r^2 + 4*a1*r^3 + 5*r^4",
          lambda: _right_unit(
              "a4", "a4 + 2*a3*r + 3*a2*r^2 + 4*a1*r^3 + 5*r^4")),
    Claim("top-quotient-ring", "mod-I4 cohomology is a polynomial class"
          " on (2,40) times an exterior class on (1,8), s <= 8,"
          " t <= 400", _top_quotient_ring),
    Claim("cochain-d-a3", "d(a3) = 3*a2*[r] mod I1",
          lambda: _d_equals(I[1], 0, "a3", cb(I[1], 1, "3*a2*[r]"),
                            times(I[1], "3*a2", "[r]", 1))),
    Claim("cochain-d-a3cubed", "d(a3^3 + 3*a2*a3*a4) = -a2^2*x1 mod I1",
          lambda: _d_equals(I[1], 0, "a3^3 + 3*a2*a3*a4",
                            times(I[1], "-a2^2", X1_I1, 1),
                            -times(I[1], "a2^2", X1_I1, 1))),
    Claim("cochain-d-x2-correction",
          "d(x2 + 2*a2*a4*[r^3] + 3*a2*a3*[r^4]) = -a2^2*b mod I1",
          lambda: _d_equals(I[1], 1, X2 + " + 2*a2*a4*[r^3] + 3*a2*a3*[r^4]",
                            times(I[1], "-a2^2", B, 2),
                            -times(I[1], "a2^2", B, 2))),
    Claim("cochain-d-a2x1-correction",
          "d(a2*x1 - a1*a2*[r^4] + a1*a3*[r^3] + 2*a1*a4*[r^2])"
          " = a1^2*b mod 5",
          lambda: _d_equals(I[0], 1, "a2*a4*[r] + a2*a3*[r^2] + a2^2*[r^3]"
                            " - a1*a2*[r^4] + a1*a3*[r^3] + 2*a1*a4*[r^2]",
                            times(I[0], "a1^2", B, 2))),
    Claim("cochain-hidden-extension",
          "2*a*[a3^2] - a2*x1 = d(a3*a4) mod I1", _hidden_extension),
    Claim("cochain-x1-bounds-5b", "d(x1) = unit * 5*b integrally",
          _x1_bounds_5b),
    Claim("cocycle-x1-i2", "x1 is a 1-cocycle mod I2",
          lambda: _cocycles((I[2], 1, X1_I2))),
    Claim("cocycle-x2-x3-i2", "x2 and x3 are 1-cocycles mod I2",
          lambda: _cocycles((I[2], 1, X2), (I[2], 1, X3))),
    Claim("cocycle-x1-i1", "x1 is a 1-cocycle mod I1",
          lambda: _cocycles((I[1], 1, X1_I1))),
    Claim("cocycle-b-everywhere", "b is a 2-cocycle in every quotient",
          lambda: _cocycles(*((I[k], 2, B) for k in range(5)))),
    Claim("bockstein-d4-x4", "d4(x4) = a3^4*b in the a3 tower",
          lambda: _tower_d(cb(I[2], 1, "a4^4*[r]"),
                           times(I[2], "a3^4", B, 2), 3, 4)),
    Claim("bockstein-d1-a3", "d1(a3) = a2*a in the a2 tower",
          lambda: _tower_d(cb(I[1], 0, "a3"), cb(I[1], 1, "a2*[r]"), 2, 1)),
    Claim("bockstein-d1-x3", "d1(x3) = a2*a3^2*b in the a2 tower",
          lambda: _tower_d(cb(I[1], 1, X3), times(I[1], "a2*a3^2", B, 2),
                           2, 1)),
    Claim("bockstein-d2-a3cubed", "d2(a3^3) = -a2^2*x1 in the a2 tower",
          lambda: _tower_d(cb(I[1], 0, "a3^3"),
                           times(I[1], "a2^2", X1_I1, 1), 2, 2)),
    Claim("bockstein-d2-x2", "d2(x2) = -a2^2*b in the a2 tower",
          lambda: _tower_d(cb(I[1], 1, X2), times(I[1], "a2^2", B, 2), 2, 2)),
    Claim("bockstein-d1-a2", "d1(a2) = -a1*a in the a1 tower",
          lambda: _tower_d(cb(I[0], 0, "a2"), cb(I[0], 1, "a1*[r]"), 1, 1)),
    Claim("bockstein-d1-a3sq", "d1([a3^2]) = 3*a1*x1 in the a1 tower",
          lambda: _tower_d(cb(I[0], 0, Y_I1), times(I[0], "a1", X1, 1),
                           1, 1)),
    Claim("bockstein-d2-a2x1", "d2(a2*x1) = a1^2*b in the a1 tower",
          lambda: _tower_d(times(I[0], "a2", X1, 1),
                           times(I[0], "a1^2", B, 2), 1, 2)),
    Claim("bockstein-d1-a1", "d1(a1) = 5r in the 5-adic tower",
          lambda: _tower_d(cb(RED, 0, "a1"), cb(I[0], 1, "[r]"), 0, 1)),
    Claim("bockstein-d1-x1", "d1(x1) = unit * 5b in the 5-adic tower",
          lambda: _tower_d(cb(RED, 1, X1), cb(I[0], 2, B), 0, 1)),
    Claim("bockstein-collapse",
          "towers collapse at the stated pages (E1/E5/E3/E3/E2),"
          " s <= 3, t <= 120", _collapse),
    Claim("v1-algebra-hilbert",
          "mod-I1 cohomology matches the presented algebra on"
          " 7 generators (relation list completed by x1*y, x1*z,"
          " a2*b*y), s <= 6, t <= 400", _v1_algebra_hilbert),
    Claim("massey-x1-a-a", "<x1, a, a> contains a2*b mod I1",
          lambda: _massey(I[1], cb(I[1], 1, X1_I1), cb(I[1], 1, "[r]"),
                          cb(I[1], 1, "[r]"), times(I[1], "a2", B, 2))),
    Claim("massey-x1-a-a3", "<x1, a, a3> contains x2 mod I2",
          lambda: _massey(I[2], cb(I[2], 1, X1_I2), cb(I[2], 1, "[r]"),
                          cb(I[2], 0, "a3"), cb(I[2], 1, X2))),
    Claim("hidden-x1x2", "x1*x2 = unit * a3^3*b mod I2", _x1x2_extension),
    Claim("full-reduced-agree",
          "full and reduced presentations give equal dimensions,"
          " s <= 4, t <= 240, every quotient level", _full_reduced),
    Claim("table1-integral", "all 23 table expressions are 5-integral,"
          " invariant, of the declared degree", _table1_integral),
    Claim("h0-rational-ranks", "invariant ranks match the rational"
          f" polynomial ring on c2..c5, t <= {H0_T_CEILING}", _rational_ranks),
    Claim("h0-generator-census", "generator census: one fresh class per"
          " even degree through 112, two at 120, one at 160; the named"
          " generators span every graded piece", _generator_census),
    Claim("disc-mod-i3", "discriminant = a4^5 modulo (5, a1, a2, a3)",
          _disc_mod_i3),
    Claim("disc-mod-i1", "discriminant = unit * quintic a4-expression"
          " modulo (5, a1) in the reduced presentation", _disc_mod_i1),
    Claim("disc-table-match", "resultant discriminant equals the table"
          " entry up to a 5-unit", _disc_table),
    Claim("integral-structure",
          "integral cohomology matches H0[a,b]/(a^2, m*(a,b)),"
          " s <= 4, t <= 240, torsion exponent 1", _integral_window),
    Claim("a-squared-zero", "a^2 is an integral coboundary",
          lambda: _exact(product(RED, cb(RED, 1, "[r]"), cb(RED, 1, "[r]")),
                         "a^2")),
    Claim("five-c2-c3-kill-a", "5, c2, c3 each annihilate the a class",
          lambda: _kills("[r]", 1)),
    Claim("five-c2-c3-kill-b", "5, c2, c3 each annihilate the b class",
          lambda: _kills(B, 2)),
    Claim("delta-faithful", "multiplication by the discriminant is"
          " injective on computed groups", _delta_faithful),
]
