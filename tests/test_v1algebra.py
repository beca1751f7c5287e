import hashlib
import json
from itertools import product

import pytest

from hopfext import v1algebra
from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.transfer import ext_dim
from hopfext.v1algebra import (
    COMPLETION,
    GEN_S,
    GEN_T,
    RELATIONS,
    _bidegree,
    _monomials,
    presented_dim,
)

from presented_reference import presented_dim_dense

I1 = quotient(AlgebroidSpec("reduced"), 1)


def test_small_pieces():
    assert presented_dim(0, 0) == 1
    assert presented_dim(1, 8) == 1      # a
    assert presented_dim(1, 40) == 1     # x1
    assert presented_dim(2, 16) == 0     # a^2 dies
    assert presented_dim(2, 48) == 0     # a*x1 dies
    assert presented_dim(0, 48) == 2     # a2^3 and [a3^2]
    assert presented_dim(1, 24) == 0     # a*a2 dies
    assert presented_dim(2, 56) == 1     # a2*b survives; a2^2*b dies


def test_relation_counts():
    assert len(RELATIONS) == 11
    assert len(COMPLETION) == 3


def test_completion_changes_known_cells():
    # the three extra products are alive under the stated relations only
    assert presented_dim(1, 88) == 1          # x1*[a3^2]
    assert presented_dim(1, 88, completed=True) == 0
    assert presented_dim(1, 160) == 1         # x1*[a3^5]
    assert presented_dim(1, 160, completed=True) == 0
    assert presented_dim(2, 104) == 1         # a2*b*[a3^2]
    assert presented_dim(2, 104, completed=True) == 0


def test_completed_model_matches_cobar_sample():
    for s in range(0, 5):
        for t in range(0, 161, 8):
            assert presented_dim(s, t, completed=True) == \
                ext_dim(I1, s, t), (s, t)


def test_completed_model_matches_cobar_beyond_the_claim_window():
    # verify's v1-algebra-hilbert claim stops at s = 6
    for s in (7, 8):
        for t in range(0, 201, 8):
            assert presented_dim(s, t, completed=True) == \
                ext_dim(I1, s, t), (s, t)


def _monomials_by_filter(s, t):
    """Reference: filter the full box of exponent ranges by bidegree."""
    if s < 0 or t < 0:
        return ()
    ranges = []
    for gs, gt in zip(GEN_S, GEN_T):
        cap = t // gt
        if gs:
            cap = min(cap, s // gs)
        ranges.append(range(cap + 1))
    return tuple(sorted(m for m in product(*ranges) if _bidegree(m) == (s, t)))


def test_monomials_match_the_filtered_box():
    for s in range(0, 5):
        for t in range(0, 241, 8):
            assert _monomials(s, t) == _monomials_by_filter(s, t), (s, t)
    # every generator has t divisible by 8, so nothing lives off that grid
    for s, t in ((-1, 0), (0, -8), (-2, 40), (3, -1), (0, 4), (2, 60)):
        assert _monomials(s, t) == (), (s, t)


def test_completed_hilbert_window_digest():
    # serialized as the v1-hilbert benchmark workload prints it
    cells = [[s, t, presented_dim(s, t, completed=True)]
             for s in range(7) for t in range(0, 401, 8)]
    digest = hashlib.sha256(json.dumps(cells).encode()).hexdigest()
    assert digest.startswith("436ac589eb6c")


def test_presented_dim_matches_the_dense_oracle():
    for completed in (False, True):
        for s in range(10):
            for t in range(0, 401, 8):
                assert presented_dim(s, t, completed) == \
                    presented_dim_dense(s, t, completed), (s, t, completed)


def test_relations_are_bihomogeneous_with_unit_coefficients():
    for rel in RELATIONS + COMPLETION:
        assert len({_bidegree(m) for m in rel}) == 1, rel
        assert all(c % 5 for c in rel.values()), rel


def test_a_single_term_that_is_zero_mod_5_kills_nothing(monkeypatch):
    # 5 * a2 is the zero relation; read as a monomial it would kill a2
    monkeypatch.setattr(v1algebra, "RELATIONS",
                        RELATIONS + ({(0, 0, 0, 1, 0, 0, 0): 5},))
    assert presented_dim(0, 16) == 1
    for completed in (False, True):
        for s in range(5):
            for t in range(0, 281, 8):
                assert presented_dim(s, t, completed) == \
                    presented_dim_dense(s, t, completed), (s, t, completed)


def test_a_term_off_the_relation_bidegree_raises(monkeypatch):
    # a has bidegree (1, 8) and a2 (0, 16): a + a2 is not bihomogeneous
    monkeypatch.setattr(v1algebra, "RELATIONS", RELATIONS + (
        {(1, 0, 0, 0, 0, 0, 0): 1, (0, 0, 0, 1, 0, 0, 0): 1},))
    for completed in (False, True):
        with pytest.raises(KeyError):
            presented_dim_dense(1, 8, completed)
        with pytest.raises(KeyError):
            presented_dim(1, 8, completed)


def test_cells_below_the_polynomial_relations_need_no_rank(monkeypatch):
    # the polynomial relations sit in bidegrees (1, 56) and (0, 240), so
    # below t = 56 only monomial relations have multiples
    assert {_bidegree(next(iter(rel))) for rel in RELATIONS
            if len(rel) > 1} == {(1, 56), (0, 240)}
    expected = {(s, t, completed): presented_dim_dense(s, t, completed)
                for completed in (False, True)
                for s in range(3) for t in range(0, 56, 8)}

    def no_rank(*args):
        raise AssertionError("rank_mod called below the polynomial relations")

    monkeypatch.setattr(v1algebra, "rank_mod", no_rank)
    for (s, t, completed), dim in expected.items():
        assert presented_dim(s, t, completed) == dim, (s, t, completed)
