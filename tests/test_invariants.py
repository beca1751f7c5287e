from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfext.algebroid as algebroid
from hopfext.algebroid import eta_L, eta_R, eta_block
from hopfext.coefficients import kernel_saturated, v5
from hopfext.flinalg import rank_mod
from hopfext.gradedpoly import Polynomial, graded_piece_basis, parse_polynomial
import hopfext.invariants as inv
from hopfext.invariants import (
    A_RING,
    IntegralityFailure,
    InvarianceFailure,
    R_DEG,
    TABLE1,
    TABLE1_NAMES,
    _mod5,
    _mod5_rows,
    _products_of_degree,
    c_class,
    c_closed_formula,
    c_formula_discrepancy,
    depth,
    discriminant,
    hilbert_h0,
    invariant_basis,
    is_invariant,
    new_generators,
    partitions_2345,
    table1_expand,
    table1_records,
)
from kernel_reference import kernel_saturated_tracked


def test_low_degree_kernels():
    assert invariant_basis(8) == ()
    assert len(invariant_basis(16)) == 1
    assert len(invariant_basis(32)) == 2
    # degree 16 is spanned by c2 up to scale
    (p,) = invariant_basis(16)
    c2 = c_class(2).polynomial
    lead = p.sorted_terms()[0][1]
    c2lead = c2.sorted_terms()[0][1]
    assert p.scale(c2lead) == c2.scale(lead)


def test_hilbert_matches_rational_polynomial_ring():
    # free rank at 8n = dim of degree-8n piece of Q[c2,c3,c4,c5]
    for t, rank in hilbert_h0(176):
        assert rank == partitions_2345(t // R_DEG), t


def test_basis_saturated_and_invariant():
    for t in (32, 64, 96):
        basis = invariant_basis(t)
        assert all(is_invariant(p) for p in basis)
        rows = _mod5_rows([_mod5(p) for p in basis], t)
        assert rank_mod(rows, 5) == len(basis)


def test_kernel_certificate_catches_a_moved_vector(monkeypatch):
    # invariant_basis certifies kernel_saturated's vectors by mat * V = 0
    t = 32
    assert invariant_basis.__wrapped__(t) == invariant_basis(t)
    real = inv.kernel_saturated

    def perturbed(mat):
        vecs = real(mat)
        return [(vecs[0][0] + 1,) + tuple(vecs[0][1:])] + vecs[1:]

    monkeypatch.setattr(inv, "kernel_saturated", perturbed)
    with pytest.raises(InvarianceFailure):
        invariant_basis.__wrapped__(t)


def test_certificate_is_exact_past_int64(monkeypatch):
    # plant v0 + 2^64 e_j for a kernel vector v0 (the first, then the last)
    # and a column j that D moves: D v moves by 2^64 D e_j, which an int64
    # product wraps back to zero, so only the exact product catches it,
    # below 2^63 (t = 32) and past it (t = 128)
    real = inv.kernel_saturated
    for t, k in [(32, 0), (32, -1), (128, 0), (128, -1)]:
        d = inv._derivation_matrix(t)
        j = int(np.flatnonzero(d.any(axis=0))[k])
        shift = np.int64(2 ** 32)
        assert not (d[:, j] * shift * shift).any()

        def planted(mat):
            vecs = list(real(mat))
            v0 = list(vecs[k])
            v0[j] += 2 ** 64
            vecs[k] = tuple(v0)
            return vecs

        monkeypatch.setattr(inv, "kernel_saturated", planted)
        with pytest.raises(InvarianceFailure):
            invariant_basis.__wrapped__(t)


def test_basis_sign_and_order_from_leading_coefficient():
    # each basis polynomial has a positive leading coefficient, and the
    # basis is ordered by leading monomial, first generator biggest
    for t in range(8, 113, 8):
        basis = invariant_basis(t)
        leads = [p.sorted_terms()[0] for p in basis]
        assert all(c > 0 for _, c in leads)
        keys = [tuple(-e for e in m) for m, _ in leads]
        assert keys == sorted(keys)


def test_r1_block_kernel_matches_full_kernel():
    # D is the r^1 rows of the exact right-unit block, dtype included, and
    # its kernel is the kernel of every stacked r^k row, vector for vector
    for t in range(8, 129, 8):
        d = inv._derivation_matrix(t)
        # the r^(>=1) rows of the exact right-unit block
        moved = eta_block(inv.SPEC, t // R_DEG)[len(graded_piece_basis(A_RING, t)):]
        assert d.dtype == moved.dtype == np.int64
        assert np.array_equal(d, moved[:len(d)]), t
        assert kernel_saturated(d) == kernel_saturated(moved), t


def test_kernel_matches_tracked_transform_on_r1_blocks():
    # the backward replay gives the tracked transform's vectors on every
    # kernel the H^0 path takes up to degree 128
    for t in range(8, 129, 8):
        d = inv._derivation_matrix(t)
        assert kernel_saturated(d) == kernel_saturated_tracked(d), t


def test_d_invariance_agrees_with_the_right_unit():
    # is_invariant tests D(p) = 0; the symbolic eta_R(p) == eta_L(p) must
    # say the same on every Table 1 record, the discriminant, each record
    # plus a1^n for its weight n (not invariant, as D(a1^n) = 5n a1^(n-1)
    # is not 0), and two inhomogeneous sums; a polynomial over F5 is
    # refused
    a1 = Polynomial.generator(A_RING, "a1")
    c2 = c_class(2).polynomial
    recs = table1_records()
    cases = [(r.polynomial, True) for r in recs] + [(discriminant(), True)]
    cases += [(r.polynomial + a1 ** (r.degree // R_DEG), False) for r in recs]
    cases += [(1 + c2, True), (c2 + a1, False)]
    for p, want in cases:
        assert is_invariant(p) == (eta_R(inv.SPEC, p) == eta_L(inv.SPEC, p)) == want
    with pytest.raises(ValueError):
        is_invariant(_mod5(c2))


def test_h0_path_builds_no_eta_block(monkeypatch):
    # the kernels read D alone, so hilbert_h0 builds no right-unit block
    monkeypatch.setattr(inv, "invariant_basis", inv.invariant_basis.__wrapped__)
    algebroid._eta_block.cache_clear()
    hilbert_h0(112)
    assert algebroid._eta_block.cache_info().misses == 0


def test_c_classes():
    assert c_class(2).polynomial == parse_polynomial(A_RING, "-2*a1^2 + 5*a2")
    for i in (2, 3, 4, 5):
        rec = c_class(i)
        assert rec.degree == 8 * i
        assert is_invariant(rec.polynomial)


def test_c_formula_discrepancy_factors():
    # the closed binomial formula differs from the explicit list by a
    # fixed unit-or-5 factor per class
    want = {2: -5, 3: 5, 4: -5, 5: -1}
    got = {i: c_formula_discrepancy(i) for i in (2, 3, 4, 5)}
    for i in (2, 3, 4, 5):
        assert got[i] in (want[i], -want[i]), (i, got[i])
        assert abs(v5(got[i])) <= 1


def test_table1_all_rows_certify():
    recs = table1_records()
    assert len(recs) == 23
    by_name = {r.name: r for r in recs}
    assert set(by_name) == set(TABLE1_NAMES)
    for name, deg_idx, _, _ in TABLE1:
        assert by_name[name].degree == 8 * deg_idx
    for r in recs:
        assert is_invariant(r.polynomial)
        assert r.polynomial.content_valuation() >= 0


def test_corrupted_table_row_fails_integrality():
    # flipping one coefficient of the degree-80 combination destroys the
    # exact divisibility by 200
    good = {("D5", "D5"): 2, ("c2", "D4", "D4"): 1, ("D4", "D6"): -15}
    bad = dict(good)
    bad[("D5", "D5")] = 3
    for combo, ok in ((good, True), (bad, False)):
        acc = Polynomial.zero(A_RING)
        for names, coeff in combo.items():
            term = Polynomial.constant(A_RING, coeff)
            for f in names:
                term = term * table1_expand(f).polynomial
            acc = acc + term
        acc = acc.scale(Fraction(1, 200))
        assert (acc.content_valuation() >= 0) == ok


def test_discriminant_normalization():
    disc = discriminant()
    assert is_invariant(disc)
    # modulo (5, a1, a2, a3) only a4^5 survives
    residue = {m: c for m, c in disc.terms.items()
               if not (m[0] or m[1] or m[2])
               and v5(c) == 0}
    assert set(residue) == {(0, 0, 0, 5, 0)}
    assert residue[(0, 0, 0, 5, 0)] == 1


def test_discriminant_mod_i1_sextic():
    disc = discriminant()
    want = parse_polynomial(
        A_RING,
        "a4^5 - 2*a3^4*a4^2 - a2*a3^2*a4^3 + 2*a2^2*a4^4"
        " + a2^3*a3^2*a4^2 + a2^4*a4^3")
    # compare in the reduced presentation: kill a1 and the top generator
    got = {}
    for m, c in disc.terms.items():
        if m[0] or m[4]:
            continue
        v = c.numerator * pow(c.denominator, -1, 5) % 5
        if v:
            got[m] = v
    for unit in (1, 2, 3, 4):
        scaled = {m: unit * c % 5 for m, c in want.terms.items()}
        if got == {m: v for m, v in scaled.items() if v}:
            break
    else:
        raise AssertionError("mod-I1 residue is not a unit multiple of the sextic")


def test_discriminant_matches_table():
    disc = discriminant()
    d_row = table1_expand("D").polynomial
    lead_m, lead_c = disc.sorted_terms()[0]
    other = d_row.terms[lead_m]
    lam = Fraction(other, lead_c)
    assert v5(lam) == 0
    assert disc.scale(lam) == d_row


def test_census_spec_examples():
    assert new_generators(40)[0] == 1
    assert new_generators(120)[0] == 2
    assert new_generators(160)[0] == 1


def test_census_low_degrees():
    counts = {t: new_generators(t)[0] for t in range(8, 121, 8)}
    want = {t: 1 for t in range(16, 113, 8)}
    want[8] = 0
    want[120] = 2
    assert counts == want


def test_table_generators_span_every_graded_piece():
    # witness that the named generators do generate the invariant ring in
    # every computed degree: products of lower ones plus the generators
    # in the degree itself span mod 5
    recs = table1_records()
    registry5 = tuple(sorted(((r.degree, _mod5(r.polynomial)) for r in recs),
                             key=lambda x: x[0]))
    for t in range(R_DEG, 177, R_DEG):
        basis = invariant_basis(t)
        if not basis:
            continue
        lower = tuple((d, p) for d, p in registry5 if d < t)
        polys = _products_of_degree(lower, t) + \
            [p for d, p in registry5 if d == t]
        assert rank_mod(_mod5_rows(polys, t), 5) == len(basis), t


def test_products_are_nonzero_of_their_degree():
    census = inv._census_upto(176)
    for t in range(R_DEG, 177, R_DEG):
        registry = tuple((d, _mod5(p)) for d, reps in census if d < t
                         for p in reps)
        for p in _products_of_degree(registry, t):
            assert p and all(A_RING.monomial_degree(m) == t for m in p.terms)


def _greedy_new_reps(products, basis, t):
    """The census pick by one F5 re-rank per candidate: the reference the
    one-echelon pick of _census_upto is checked against.  Also returns the
    rank of the products alone."""
    stacked = list(_mod5_rows(products, t)) if products else []
    rank = rank_mod(np.array(stacked, dtype=np.int64), 5) if stacked else 0
    product_rank = rank
    new_reps = []
    if rank < len(basis):
        eye = _mod5_rows([_mod5(b) for b in basis], t)
        for cand_row, cand in zip(eye, basis):
            trial = np.array(stacked + [cand_row], dtype=np.int64)
            if rank_mod(trial, 5) > rank:
                stacked.append(cand_row)
                rank += 1
                new_reps.append(cand)
            if rank == len(basis):
                break
    assert rank == len(basis), t
    return tuple(new_reps), product_rank


def test_census_pick_matches_greedy_reranks():
    census = inv._census_upto(176)
    partly_spanned = []
    for t, reps in census:
        basis = invariant_basis(t)
        registry = tuple((d, _mod5(p)) for d, earlier in census if d < t
                         for p in earlier)
        products = _products_of_degree(registry, t) if basis else []
        want, product_rank = _greedy_new_reps(products, basis, t)
        assert reps == want, t
        if 0 < product_rank < len(basis):
            partly_spanned.append(t)
    assert 120 in partly_spanned


def test_depth():
    assert depth((0, 1, 0, 0)) == 1
    assert depth((0, 0, 0, 5)) == 15
    assert depth((1, 0, 0, 0)) == 0
    with pytest.raises(ValueError):
        depth((2, 0, 0, 0))
    for r in table1_records():
        assert r.depth >= 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=2),
       st.integers(-4, 4))
def test_invariants_closed_under_products(idxs, scalar):
    acc = c_class(idxs[0]).polynomial
    for i in idxs[1:]:
        acc = acc * c_class(i).polynomial
    assert is_invariant(acc.scale(scalar) if scalar else acc)
