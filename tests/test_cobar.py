import random
from fractions import Fraction

import numpy as np
import pytest

import hopfext.cobar as cobar
from hopfext.algebroid import (AlgebroidSpec, coefficient_piece, eta_L, eta_R,
                               gamma_ring, quotient)
from hopfext.cobar import (
    BracketUndefined,
    NotACocycle,
    class_equal_up_to_unit,
    cochain_basis,
    cohomology,
    differential,
    element_to_vector,
    format_cobar,
    is_coboundary,
    parse_cobar,
    product,
    triple_massey,
)
from hopfext.gradedpoly import InhomogeneousInput, Polynomial
FULL = AlgebroidSpec("full")
RED = AlgebroidSpec("reduced")
I0 = quotient(RED, 0)
I1 = quotient(RED, 1)
I2 = quotient(RED, 2)
I4 = quotient(RED, 4)
SPECS = [AlgebroidSpec(v, k) for v in ("full", "reduced") for k in (None, 0, 1, 2, 3, 4)]

B_TEXT = "[r^4|r] + 2*[r^3|r^2] + 2*[r^2|r^3] + [r|r^4]"


def cb(spec, s, text):
    return parse_cobar(spec, s, text)


def basis_cochain(spec, s, mono, c=1):
    """c times the cochain of one monomial of gamma_ring(spec, s)."""
    return Polynomial(gamma_ring(spec, s), {mono: c})


def test_cochain_basis_examples():
    assert [m[4:] for m in cochain_basis(I4, 2, 40)] == [(1, 4), (2, 3), (3, 2), (4, 1)]
    basis0 = cochain_basis(FULL, 0, 16)
    assert list(basis0) == [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    assert list(cochain_basis(RED, 1, 8)) == [(0, 0, 0, 0, 1)]


def test_differential_degree_zero_examples():
    assert differential(I1, cb(I1, 0, "a3")) == cb(I1, 1, "3*a2*[r]")
    lhs = differential(I1, cb(I1, 0, "a3^3 + 3*a2*a3*a4"))
    x1 = cb(I1, 1, "a2*[r^3] + a3*[r^2] + a4*[r]")
    assert lhs == -product(I1, cb(I1, 0, "a2^2"), x1)


def test_differential_b_identity():
    u = cb(I0, 1, "a2*a4*[r] + a2*a3*[r^2] + a2^2*[r^3] - a1*a2*[r^4] "
                  "+ a1*a3*[r^3] + 2*a1*a4*[r^2]")
    b = cb(I0, 2, B_TEXT)
    assert differential(I0, u) == product(I0, cb(I0, 0, "a1^2"), b)


def test_differential_x2_identity():
    u = cb(I1, 1, "a4^2*[r] + 2*a3*a4*[r^2] + 3*a3^2*[r^3] "
                  "+ 2*a2*a4*[r^3] + 3*a2*a3*[r^4]")
    b = cb(I1, 2, B_TEXT)
    assert differential(I1, u) == -product(I1, cb(I1, 0, "a2^2"), b)


def test_integral_x1_bounds_5b():
    x1 = cb(RED, 1, "a1*[r^4] + a2*[r^3] + a3*[r^2] + a4*[r]")
    b = cb(RED, 2, B_TEXT)
    d = differential(RED, x1)
    assert any(d == b.scale(5 * u) for u in (1, 2, 3, 4, -1, -2))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.variant}-{s.quotient_level}")
def test_degree_zero_differential_is_eta_r_minus_eta_l(spec):
    # on C^0 the cobar differential is eta_R - eta_L, read off the same table
    for t in range(0, 81, 8):
        for mono in coefficient_piece(spec, t):
            p = Polynomial(spec.base_ring, {mono: 1})
            assert differential(spec, p) == eta_R(spec, p) - eta_L(spec, p)


def test_mixed_degree_differential_is_refused():
    with pytest.raises(InhomogeneousInput):
        differential(I1, cb(I1, 1, "[r] + [r^2]"))


def test_parse_cobar_projects_into_the_quotient():
    # a1 = 0 mod I1: its terms are dropped on parsing, as parse_gamma does
    x = cb(I1, 1, "a1*[r^2] + a2*[r]")
    assert x == cb(I1, 1, "a2*[r]")
    assert differential(I1, x).is_zero()
    assert element_to_vector(I1, x, 24) == element_to_vector(I1, cb(I1, 1, "a2*[r]"), 24)
    killed = cb(I1, 1, "a1*[r]")
    assert killed == Polynomial.zero(gamma_ring(I1, 1))
    assert is_coboundary(I1, killed) == Polynomial.zero(gamma_ring(I1, 0))
    assert cb(I1, 0, "a1*a3 + a2") == cb(I1, 0, "a2")


@pytest.mark.parametrize("spec,s,text", [
    (FULL, 1, "[r^0]"),
    (RED, 2, "[r|r^0]"),
    (RED, 1, "[r^5]"),
    (I1, 2, "[r]"),
    (I1, 1, "a2*[r|r]"),
])
def test_parse_cobar_rejects_bad_words(spec, s, text):
    with pytest.raises(ValueError):
        parse_cobar(spec, s, text)


def test_full_words_past_four_parse():
    assert cb(FULL, 1, "[r^5]") == Polynomial.generator(gamma_ring(FULL), "r") ** 5


@pytest.mark.parametrize("spec,x", [
    (FULL, cb(RED, 1, "[r]")),
    (I0, cb(RED, 1, "[r]")),
    (RED, cb(I0, 1, "[r]")),
    (RED, cb(FULL, 0, "a1")),
    (FULL, cb(RED, 2, B_TEXT)),
], ids=["red-as-full", "integral-as-mod5", "mod5-as-integral", "full-base-as-red",
        "red-2-as-full-1"])
def test_cochain_over_another_ring_is_refused(spec, x):
    for call in (lambda: differential(spec, x), lambda: product(spec, x, x),
                 lambda: is_coboundary(spec, x), lambda: format_cobar(spec, x),
                 lambda: element_to_vector(spec, x, 8)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("spec", [FULL, RED, I0, I1, I4])
@pytest.mark.parametrize("s,t", [(0, 40), (1, 48), (2, 56), (3, 64)])
def test_d_squared_zero_on_basis(spec, s, t):
    for key in cochain_basis(spec, s, t):
        x = basis_cochain(spec, s, key)
        assert differential(spec, differential(spec, x)).is_zero()


def test_leibniz_random():
    rng = random.Random(7)
    for spec in (I0, I1, RED):
        for _ in range(20):
            s1, s2 = rng.choice([(0, 1), (1, 1), (0, 2), (1, 2)])
            t1 = 8 * rng.randint(s1, s1 + 4)
            t2 = 8 * rng.randint(s2, s2 + 4)
            b1 = cochain_basis(spec, s1, t1)
            b2 = cochain_basis(spec, s2, t2)
            if not b1 or not b2:
                continue
            x = basis_cochain(spec, s1, rng.choice(b1), rng.randint(1, 4))
            y = basis_cochain(spec, s2, rng.choice(b2), rng.randint(1, 4))
            lhs = differential(spec, product(spec, x, y))
            sign = -1 if s1 % 2 else 1
            rhs = product(spec, differential(spec, x), y) \
                + product(spec, x, differential(spec, y)).scale(sign)
            assert lhs == rhs


def test_product_examples():
    a = cb(I4, 1, "[r]")
    assert product(I4, a, a) == cb(I4, 2, "[r|r]")
    # a*a is a coboundary in the top quotient (exterior relation)
    w = is_coboundary(I4, product(I4, a, a))
    assert w is not None and differential(I4, w) == product(I4, a, a)
    # the hidden-extension identity: 2a*[a3^2] - a2*x1 = d(a3*a4) mod I1
    a_i1 = cb(I1, 1, "[r]")
    sq = cb(I1, 0, "a3^2 + 2*a2*a4")
    x1 = cb(I1, 1, "a2*[r^3] + a3*[r^2] + a4*[r]")
    a2 = cb(I1, 0, "a2")
    lhs = product(I1, sq, a_i1).scale(2) - product(I1, a2, x1)
    assert lhs == differential(I1, cb(I1, 0, "a3*a4"))


def test_cohomology_top_quotient():
    g = cohomology(I4, 1, 8)
    assert (g.free_rank, g.torsion) == (1, ())
    assert g.representatives[0] == cb(I4, 1, "[r]") or \
        g.representatives[0] in [cb(I4, 1, f"{u}*[r]") for u in (2, 3, 4)]
    g2 = cohomology(I4, 2, 40)
    assert g2.free_rank == 1
    b = cb(I4, 2, B_TEXT)
    assert class_equal_up_to_unit(I4, g2.representatives[0], b)
    assert cohomology(I4, 1, 16).free_rank == 0
    assert cohomology(I4, 2, 48).free_rank == 0
    assert cohomology(I4, 3, 48).free_rank == 1  # the a*b class


def test_cohomology_integral_tower():
    g = cohomology(RED, 1, 8)
    assert g.free_rank == 0
    assert g.torsion == (1,)
    rep = g.representatives[0]
    assert rep == cb(RED, 1, "[r]") or rep == cb(RED, 1, "-[r]")
    g0 = cohomology(RED, 0, 16)
    assert g0.free_rank == 1 and g0.torsion == ()


@pytest.fixture
def fresh_smith(monkeypatch):
    """monkeypatch, with the memoised integral matrices of d and Smith forms
    of d^{s-1} cleared before and after, so a planted differential is read
    and then forgotten."""
    cobar.differential_matrix_int.cache_clear()
    cobar._image_smith.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    cobar.differential_matrix_int.cache_clear()
    cobar._image_smith.cache_clear()


def test_differential_matrix_refuses_a_fraction(fresh_smith):
    # plant a d whose image carries the structure constant 1/2
    key = cochain_basis(RED, 1, 8)[0]
    fresh_smith.setattr(cobar, "differential", lambda spec, x: basis_cochain(
        spec, 1, key, Fraction(1, 2)))
    with pytest.raises(AssertionError, match="not integral"):
        cobar.differential_matrix_int(RED, 0, 8)


def test_integral_cohomology_guards_d_squared(fresh_smith):
    # plant d∘d != 0: with the identity in place of d^0, the image is all of
    # C^1, which d^1 does not kill at t = 16
    real = cobar.differential_matrix_int

    def planted(spec, s, t):
        m = real(spec, s, t)
        if s == 0:
            return np.eye(m.shape[0], dtype=object)
        return m

    fresh_smith.setattr(cobar, "differential_matrix_int", planted)
    with pytest.raises(AssertionError, match=r"d\*d != 0"):
        cohomology(RED, 1, 16)


def test_integral_cohomology_planted_complex(fresh_smith):
    # C^0 -> C^1 -> C^2 at t = 16 replaced by b = diag(35, 0) and a = 0:
    # H^1 = Z/35 + Z, which is Z/5 + Z locally; torsion comes first
    planted = {0: np.array([[35, 0], [0, 0]], dtype=object),
               1: np.zeros((1, 2), dtype=object)}
    fresh_smith.setattr(cobar, "differential_matrix_int",
                        lambda spec, s, t: planted[s])
    g = cohomology(RED, 1, 16)
    assert (g.free_rank, g.torsion) == (1, (1,))
    basis = cochain_basis(RED, 1, 16)
    for rep, key in zip(g.representatives, basis):
        assert rep in (basis_cochain(RED, 1, key, u) for u in (1, -1))
    assert len(g.representatives) == 2


def test_one_smith_form_of_d_per_cell(fresh_smith):
    # cohomology and every is_coboundary at (s, t) share one Smith form of
    # d^{s-1}; class_equal_up_to_unit tries three units here
    shapes = []
    real = cobar.smith_normal_form

    def counted(m):
        shapes.append(m.shape)
        return real(m)

    fresh_smith.setattr(cobar, "smith_normal_form", counted)
    b = cobar.differential_matrix_int(RED, 1, 40)
    g = cohomology(RED, 2, 40)
    assert g.torsion == (1,)
    rep = g.representatives[0]
    assert class_equal_up_to_unit(RED, rep, rep.scale(2))
    assert is_coboundary(RED, rep) is None
    assert shapes.count(b.shape) == 1
    assert len(shapes) == 2


def test_exact_matrices_are_read_only():
    # both are memoised, so a caller writing into one would change every
    # later answer at that cell
    d = cobar.differential_matrix_int(RED, 1, 40)
    snf = cobar._image_smith(RED, 2, 40)
    for a in (d, snf.left_transform, snf.right_transform, snf.left_inverse):
        assert a.dtype == object and a.size and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1


def test_is_coboundary_cases():
    b_int = cb(RED, 2, B_TEXT)
    w = is_coboundary(RED, b_int.scale(5))
    assert w is not None
    assert differential(RED, w) == b_int.scale(5)
    assert is_coboundary(I4, cb(I4, 2, B_TEXT)) is None
    with pytest.raises(NotACocycle):
        is_coboundary(I0, cb(I0, 0, "a3"))


def test_is_coboundary_refuses_a_cochain_that_is_not_5_integral():
    # d(a2) has the integral preimage a2; d(a2) / 5 would need a division
    # by 5, which an integral coboundary never takes, so it is refused
    # rather than answered with a cochain of content valuation -1
    a2 = Polynomial.generator(RED.base_ring, "a2")
    z = differential(RED, a2)
    w = is_coboundary(RED, z)
    assert w is not None and w.content_valuation() >= 0
    assert differential(RED, w) == z
    with pytest.raises(ValueError, match="5-integral"):
        is_coboundary(RED, z.scale(Fraction(1, 5)))


def test_massey_products():
    a = cb(I1, 1, "[r]")
    x1 = cb(I1, 1, "a2*[r^3] + a3*[r^2] + a4*[r]")
    a2b = cb(I1, 2, "a2*[r^4|r] + 2*a2*[r^3|r^2] + 2*a2*[r^2|r^3] + a2*[r|r^4]")
    assert class_equal_up_to_unit(I1, triple_massey(I1, x1, a, a), a2b)

    a_i2 = cb(I2, 1, "[r]")
    x1_i2 = cb(I2, 1, "a3*[r^2] + a4*[r]")
    a3_i2 = cb(I2, 0, "a3")
    x2 = cb(I2, 1, "a4^2*[r] + 2*a3*a4*[r^2] + 3*a3^2*[r^3]")
    assert class_equal_up_to_unit(I2, triple_massey(I2, x1_i2, a_i2, a3_i2), x2)

    a4_ = cb(I4, 1, "[r]")
    rep3 = triple_massey(I4, a4_, a4_, a4_)
    assert is_coboundary(I4, rep3) is not None


def test_massey_product_refuses_an_undefined_bracket():
    a = cb(I4, 1, "[r]")
    b = cb(I4, 2, B_TEXT)
    a_i1 = cb(I1, 1, "[r]")
    with pytest.raises(NotACocycle, match="v is not a cocycle"):
        triple_massey(I1, a_i1, cb(I1, 0, "a3"), a_i1)
    # a*b is the nonzero class of H^{3,48} mod I4
    with pytest.raises(BracketUndefined):
        triple_massey(I4, a, b, a)


def test_class_equal_up_to_unit_needs_two_cocycles():
    # a3 is not a cocycle mod I1, so no unit multiple of it is compared
    a3 = cb(I1, 0, "a3")
    assert not class_equal_up_to_unit(I1, a3.scale(2), a3)
    assert not class_equal_up_to_unit(I1, a3, a3)
    x1 = cb(I1, 1, "a2*[r^3] + a3*[r^2] + a4*[r]")
    assert class_equal_up_to_unit(I1, x1, x1.scale(2))


def test_cocycles_criterion():
    x1_i2 = cb(I2, 1, "a3*[r^2] + a4*[r]")
    x2_i2 = cb(I2, 1, "a4^2*[r] + 2*a3*a4*[r^2] + 3*a3^2*[r^3]")
    x3_i2 = cb(I2, 1, "a4^3*[r] + 3*a3*a4^2*[r^2] - a3^2*a4*[r^3] - 3*a3^3*[r^4]")
    for x in (x1_i2, x2_i2, x3_i2):
        assert differential(I2, x).is_zero()
    x1_i1 = cb(I1, 1, "a2*[r^3] + a3*[r^2] + a4*[r]")
    assert differential(I1, x1_i1).is_zero()
    for spec in (I0, I1, I2, I4):
        assert differential(spec, cb(spec, 2, B_TEXT)).is_zero()


def test_parse_format_roundtrip():
    x = cb(I1, 2, "a2*[r^4|r] + 2*[r|r] - [r^2|r^3]")
    assert parse_cobar(I1, 2, format_cobar(I1, x)) == x
    z = Polynomial.zero(gamma_ring(I1, 2))
    assert format_cobar(I1, z) == "0"
