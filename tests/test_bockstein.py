import pytest

import hopfext.bockstein as bockstein
import hopfext.transfer as transfer
from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.bockstein import (
    FiltrationSpec,
    NotAPageCycle,
    PageEntry,
    infinity_page,
    page_differential,
    page_dimensions,
    page_entry_dim,
    verify_differential,
)
from hopfext.cobar import class_equal_up_to_unit, parse_cobar
from hopfext.transfer import PrecisionExhausted, ext_dim

RED = AlgebroidSpec("reduced")
F1 = FiltrationSpec(1)
F2 = FiltrationSpec(2)
F3 = FiltrationSpec(3)
F4 = FiltrationSpec(4)
F5ADIC = FiltrationSpec(0)

B_TEXT = "[r^4|r] + 2*[r^3|r^2] + 2*[r^2|r^3] + [r|r^4]"
X1_I0 = "a1*[r^4] + a2*[r^3] + a3*[r^2] + a4*[r]"
X1_I1 = "a2*[r^3] + a3*[r^2] + a4*[r]"
X2_I1 = "a4^2*[r] + 2*a3*a4*[r^2] + 3*a3^2*[r^3]"
X3_I1 = "a4^3*[r] + 3*a3*a4^2*[r^2] - a3^2*a4*[r^3] - 3*a3^3*[r^4]"


def cb(spec, s, text):
    return parse_cobar(spec, s, text)


def test_filtration_spec_bases():
    assert F3.base == quotient(RED, 2)
    assert F1.base == quotient(RED, 0)
    assert F5ADIC.base == RED
    assert F3.filter_name == "a3"
    assert F5ADIC.filter_name == "5"
    with pytest.raises(IndexError):
        FiltrationSpec(5)


def test_first_page_is_tensor_decomposition():
    # E_1 of the a_k filtration is H(A/I_k) with an a_k power split off
    for fs, k in [(F3, 3), (F2, 2)]:
        over = quotient(RED, k)
        for s in range(0, 3):
            for t in (24, 48, 72, 104):
                for u in range(0, t // (8 * k) + 1):
                    want = ext_dim(over, s, t - 8 * k * u)
                    assert page_entry_dim(fs, 1, s, t, u) == want, \
                        (k, s, t, u)


def test_first_page_single_monomial_entry():
    # the class a3 sits alone at filtration 1 of the k=3 tower
    assert page_entry_dim(F3, 1, 0, 24, 1) == 1


def test_pages_decrease():
    for fs in (F3, F2, F1):
        for e in page_dimensions(fs, 1, 3, 96):
            for r in (2, 3, 4):
                d = page_entry_dim(fs, r, e.s, e.t, e.u)
                assert 0 <= d <= e.dim


@pytest.mark.parametrize("fs", [F1, F5ADIC], ids=["k1", "k0"])
@pytest.mark.parametrize("r", [0, -1])
def test_pages_start_at_one(fs, r):
    # r < 1 is no page; the 5-adic count `v >= r` would keep every torsion class
    with pytest.raises(ValueError, match="pages start at r = 1"):
        page_dimensions(fs, r, 1, 8)


def test_stated_differentials_k3():
    i2 = F3.base
    x4 = cb(i2, 1, "a4^4*[r]")
    a3_4_b = _poly_times(i2, "a3^4", B_TEXT, 2)
    assert verify_differential(x4, a3_4_b, F3, 4)


def test_stated_differentials_k2():
    i1 = F2.base
    a_class = cb(i1, 1, "a2*[r]")
    assert verify_differential(cb(i1, 0, "a3"), a_class, F2, 1)
    assert verify_differential(
        cb(i1, 1, X3_I1), _poly_times(i1, "a2*a3^2", B_TEXT, 2), F2, 1)
    assert verify_differential(
        cb(i1, 0, "a3^3"), _poly_times(i1, "a2^2", X1_I1, 1), F2, 2)
    assert verify_differential(
        cb(i1, 1, X2_I1), _poly_times(i1, "a2^2", B_TEXT, 2), F2, 2)


def test_stated_differentials_k1():
    i0 = F1.base
    assert verify_differential(cb(i0, 0, "a2"), cb(i0, 1, "a1*[r]"), F1, 1)
    assert verify_differential(
        cb(i0, 0, "a3^2 + 2*a2*a4"), _poly_times(i0, "a1", X1_I0, 1), F1, 1)
    src = _poly_times(i0, "a2", X1_I0, 1)
    assert verify_differential(src, _poly_times(i0, "a1^2", B_TEXT, 2), F1, 2)


def test_stated_differentials_five_adic():
    a1 = cb(RED, 0, "a1")
    i0 = quotient(RED, 0)
    assert verify_differential(a1, cb(i0, 1, "[r]"), F5ADIC, 1)
    x1 = cb(RED, 1, X1_I0)
    assert verify_differential(x1, cb(i0, 2, B_TEXT), F5ADIC, 1)


def test_not_a_page_cycle():
    i1 = F2.base
    # a4 supports a d_1, so it is not a cycle for the jump-2 page
    with pytest.raises(NotAPageCycle):
        page_differential(cb(i1, 0, "a4"), F2, 2)


def test_wrong_target_rejected():
    i0 = F1.base
    # wrong internal degree
    assert not verify_differential(
        cb(i0, 0, "a2"), cb(i0, 1, "a2*[r]"), F1, 1)
    # right degree, wrong filtration layer
    assert not verify_differential(
        cb(i0, 0, "a2"), cb(i0, 1, "[r^2]"), F1, 1)


def test_page_differential_value():
    # d_1(a3) mod the k=2 tower literally equals 3 a2 [r]
    i1 = F2.base
    val = page_differential(cb(i1, 0, "a3"), F2, 1)
    assert class_equal_up_to_unit(i1, val, cb(i1, 1, "a2*[r]"))


def test_collapse_pages_small_window():
    # stated stabilization pages, checked on a moderate window
    cases = [(F4, 1), (F3, 5), (F2, 3), (F1, 3), (F5ADIC, 2)]
    for fs, page in cases:
        now = {(e.s, e.t, e.u): e.dim for e in page_dimensions(fs, page, 3, 120)}
        nxt = {(e.s, e.t, e.u): e.dim
               for e in page_dimensions(fs, page + 1, 3, 120)}
        inf = {(e.s, e.t, e.u): e.dim for e in infinity_page(fs, 3, 120)}
        assert now == nxt == inf, fs


def test_k3_does_not_collapse_before_e5():
    e4 = {(e.s, e.t, e.u): e.dim for e in page_dimensions(F3, 4, 3, 160)}
    e5 = {(e.s, e.t, e.u): e.dim for e in page_dimensions(F3, 5, 3, 160)}
    assert e4 != e5  # d_4(x_4) = a3^4 b is still alive on page 4


def test_convergence_to_quotient_cohomology():
    for fs in (F2, F3):
        inf = {}
        for e in infinity_page(fs, 3, 104):
            key = (e.s, e.t)
            inf[key] = inf.get(key, 0) + e.dim
        for s in range(0, 4):
            for t in range(8, 105, 8):
                want = ext_dim(fs.base, s, t)
                assert inf.get((s, t), 0) == want, (fs, s, t)


def _poly_times(spec, poly_text, cobar_text, s):
    from hopfext.cobar import product
    left = parse_cobar(spec, 0, poly_text)
    right = parse_cobar(spec, s, cobar_text)
    return product(spec, left, right)


def test_five_adic_page_rejects_planted_5K_divisor(monkeypatch):
    # the Z/5 divisor out of (0, 8), scaled to 5^K, reads as zero mod 5^K
    # and would leave a free class where the rational rank is 0
    real = transfer.transferred_matrix

    def planted(spec, s, t, mod):
        mat = real(spec, s, t, mod)
        return mat * 5 ** (transfer.K_POWER - 1) % mod if s == 0 else mat

    monkeypatch.setattr(transfer, "transferred_matrix", planted)
    # a valuation cached by an earlier test would hide the plant
    transfer.differential_valuations.cache_clear()
    try:
        with pytest.raises(PrecisionExhausted):
            page_dimensions(F5ADIC, 1, 1, 8)
    finally:
        transfer.differential_valuations.cache_clear()


def test_page_dimensions_build_each_cell_once(monkeypatch):
    # the rank queries of a page read one memoised filtered cell per
    # b-periodic representative: (s, t) steps down by (2, 40) while t stays
    # >= 0, and each representative's transferred matrix is built once and
    # kept read-only
    real = bockstein.transferred_matrix
    built = {}

    def counted(spec, s, t, mod):
        built[(s, t)] = built.get((s, t), 0) + 1
        return real(spec, s, t, mod)

    monkeypatch.setattr(bockstein, "transferred_matrix", counted)
    for memo in (bockstein._z_dim, bockstein._filtered_cell):
        memo.cache_clear()
    try:
        page_dimensions(F1, 1, 4, 120)
        steps = {(s, t): min(s // 2, t // 40) for t in range(0, 121, 8)
                 for s in range(min(4, t // 8) + 1)}
        assert built == {(s - 2 * j, t - 40 * j): 1
                         for (s, t), j in steps.items()}
        assert all(t >= 0 for _, t in built)
        cells = [bockstein._filtered_cell(F1, s, t) for s, t in built]
        assert all(not a.flags.writeable for cell in cells for a in cell)
        assert set(built.values()) == {1}
    finally:
        for memo in (bockstein._z_dim, bockstein._filtered_cell):
            memo.cache_clear()
