import hashlib
import json
from itertools import product

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
