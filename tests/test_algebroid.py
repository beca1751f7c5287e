import hashlib
from functools import lru_cache

import numpy as np
import pytest

import hopfext.algebroid as algebroid
from hopfext.algebroid import (
    AlgebroidSpec,
    AxiomViolation,
    check_axioms,
    eta_R,
    gamma_ring,
    parse_gamma,
    parse_word,
    psi,
    push_coefficient,
    quotient,
    reduce_gamma,
)
from hopfext.cobar import differential
from hopfext.gradedpoly import Polynomial, format_polynomial, graded_piece_basis
from translation_reference import translation_block

FULL = AlgebroidSpec("full")
RED = AlgebroidSpec("reduced")
SPECS = [AlgebroidSpec(v, k) for v in ("full", "reduced") for k in (None, 0, 1, 2, 3, 4)]


def gam(spec, text):
    return parse_gamma(spec, text)


def r_power(spec, e):
    """r^e in gamma_ring(spec), before any reduction."""
    return Polynomial.generator(gamma_ring(spec), "r") ** e


def tensor(spec, words):
    """The element of Gamma^(x s) with constant coefficient c on each word."""
    s = len(next(iter(words)))
    zero = (0,) * spec.num_generators
    return Polynomial(gamma_ring(spec, s), {zero + w: c for w, c in words.items()})


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebroidSpec("bogus")
    with pytest.raises(IndexError):
        AlgebroidSpec("full", 5)
    with pytest.raises(IndexError):
        quotient(FULL, -1)


def test_eta_r_generator_images():
    a = Polynomial.generator(FULL.base_ring, "a1")
    assert eta_R(FULL, a) == gam(FULL, "a1 + 5*r")
    a3 = Polynomial.generator(FULL.base_ring, "a3")
    assert eta_R(FULL, a3) == gam(FULL, "a3 + 3*a2*r + 6*a1*r^2 + 10*r^3")
    a4 = Polynomial.generator(FULL.base_ring, "a4")
    assert eta_R(FULL, a4) == gam(FULL, "a4 + 2*a3*r + 3*a2*r^2 + 4*a1*r^3 + 5*r^4")
    a5 = Polynomial.generator(FULL.base_ring, "a5")
    assert eta_R(FULL, a5) == gam(FULL, "a5 + a4*r + a3*r^2 + a2*r^3 + a1*r^4 + r^5")


def test_eta_r_degree_preserved():
    ring = FULL.base_ring
    for i, name in enumerate(ring.names):
        img = eta_R(FULL, Polynomial.generator(ring, name))
        assert img.degree() == ring.degrees[i]
    p = Polynomial.generator(ring, "a1") * Polynomial.generator(ring, "a2")
    assert eta_R(FULL, p).degree() == 24


def test_eta_r_multiplicative_on_powers():
    ring = FULL.base_ring
    a3 = Polynomial.generator(ring, "a3")
    img = eta_R(FULL, a3)
    assert eta_R(FULL, a3 ** 3) == img * img * img
    assert eta_R(FULL, a3 ** 3).degree() == 72


def test_eta_r_mod_quotients():
    q1 = quotient(RED, 1)
    a3 = Polynomial.generator(q1.base_ring, "a3")
    assert eta_R(q1, a3) == gam(q1, "a3 + 3*a2*r")
    q2 = quotient(RED, 2)
    a4 = Polynomial.generator(q2.base_ring, "a4")
    assert eta_R(q2, a4) == gam(q2, "a4 + 2*a3*r")


def test_reduce_gamma_relation():
    r5 = reduce_gamma(RED, r_power(RED, 5))
    assert r5 == gam(RED, "-a1*r^4 - a2*r^3 - a3*r^2 - a4*r")
    r4 = reduce_gamma(RED, r_power(RED, 4))
    assert r4 == gam(RED, "r^4")
    # oracle for r^6: multiply the r^5 normal form by r and re-reduce
    r6 = reduce_gamma(RED, r_power(RED, 6))
    assert r6 == reduce_gamma(RED, r_power(RED, 1) * r5)
    assert max(m[-1] for m in r6.terms) <= 4


def test_quotient_top_level_is_primitive_hopf_algebra():
    q4 = quotient(RED, 4)
    r5 = reduce_gamma(q4, r_power(q4, 5))
    assert r5.is_zero()


def test_psi_examples():
    assert psi(FULL, r_power(FULL, 1)) == tensor(FULL, {(1, 0): 1, (0, 1): 1})
    t = psi(FULL, r_power(FULL, 2))
    assert t == tensor(FULL, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    t5 = psi(FULL, r_power(FULL, 5))
    middle = {m[-2:]: c for m, c in t5.terms.items() if 0 not in m[-2:]}
    assert middle == {(4, 1): 5, (3, 2): 10, (2, 3): 10, (1, 4): 5}


@pytest.mark.parametrize("spec", [FULL, RED])
def test_cobar_differential_of_a_word_is_minus_the_interior_of_psi(spec):
    # the cobar differential splits each slot by the coproduct check_axioms
    # certifies, less the two end terms: d[r^e] = -(interior of psi(r^e))
    for e in range(10):
        interior = {m: c for m, c in psi(spec, r_power(spec, e)).terms.items()
                    if all(m[-2:])}
        assert differential(spec, r_power(spec, e)) == \
            -Polynomial(gamma_ring(spec, 2), interior)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.variant}-{s.quotient_level}")
def test_eta_r_is_a_ring_map_in_gamma(spec):
    # the table's image of a_i * a_j is the product of the generator
    # images, reduced into Gamma
    ring = spec.base_ring
    gens = [Polynomial.generator(ring, name) for name in ring.names]
    for i, a in enumerate(gens):
        for b in gens[i:]:
            if (a * b).degree() <= 80:
                assert eta_R(spec, a * b) == reduce_gamma(
                    spec, eta_R(spec, a) * eta_R(spec, b))


def test_push_coefficient_degree_and_constants():
    one = Polynomial.constant(RED.base_ring, 1)
    assert push_coefficient(RED, (2, 3), 1, one) == {(2, 3): one}
    a4 = Polynomial.generator(RED.base_ring, "a4")
    pushed = push_coefficient(RED, (1, 2), 1, a4)
    for word, c in pushed.items():
        assert len(word) == 2 and all(1 <= e <= 4 for e in word)
        assert c.degree() + 8 * sum(word) == 32 + 8 * 3
    # two-step push equals one-step push through the longer prefix
    two = {}
    inner = push_coefficient(RED, (2,), 1, a4)
    for (e1,), c in inner.items():
        for w, d in push_coefficient(RED, (1, e1), 1, c).items():
            key = w + (3,)
            two[key] = two.get(key, Polynomial.zero(RED.base_ring)) + d
    direct = push_coefficient(RED, (1, 2, 3), 2, a4)
    assert {k: v for k, v in two.items() if v} == direct


@pytest.mark.parametrize("spec", [FULL, RED, quotient(FULL, 0), quotient(RED, 1),
                                  quotient(RED, 4)])
def test_check_axioms_pass(spec):
    counts = check_axioms(spec, 40)
    assert counts["coassoc"] > 0 and counts["counit_law"] > 0


@pytest.fixture
def plant_eta_row(monkeypatch):
    """Replace one row of the integer right-unit table for FULL.  The
    table's memo, the block memo it reads its columns from and the push
    memo that reads it are cleared before and after."""
    real = algebroid.eta_R_int

    def clear():
        real.cache_clear()
        algebroid._eta_block.cache_clear()
        algebroid._push_prefix_mono.cache_clear()

    def plant(mono, terms):
        def planted(spec, m, mod=None):
            return terms if (spec, m) == (FULL, mono) else real(spec, m, mod)
        monkeypatch.setattr(algebroid, "eta_R_int", planted)

    clear()
    yield plant
    monkeypatch.undo()
    clear()


def test_check_axioms_negative_control(plant_eta_row):
    # eta_R(a3) with 2*a2*r in place of 3*a2*r
    a1, a2, a3, one = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                       (0, 0, 0, 0, 0))
    plant_eta_row(a3, ((0, a3, 1), (1, a2, 2), (2, a1, 6), (3, one, 10)))
    with pytest.raises(AxiomViolation):
        check_axioms(FULL, 40)


def test_check_axioms_ring_map_negative_control(plant_eta_row):
    # the generator rows stay right and only the row of a1*a2 is off
    a1a2 = (1, 1, 0, 0, 0)
    terms = algebroid.eta_R_int(FULL, a1a2)
    e, m, c = terms[-1]
    plant_eta_row(a1a2, terms[:-1] + ((e, m, c + 1),))
    with pytest.raises(AxiomViolation, match=r"eta_R\(a1\*a2\)"):
        check_axioms(FULL, 40)


@pytest.mark.parametrize("spec", [FULL, RED])
def test_eta_block_residues_are_exact_residues(spec, monkeypatch):
    # an exact block sums in int64 only under a bound proved before the
    # sum: it equals, value for value, the block built with the int64
    # ceiling at 0, where every sum of the generator recursion runs on
    # Python ints in an object array, and so does its letter form.  Mod 5^K
    # the block is the exact block reduced, in the smallest unsigned dtype
    # that holds a residue
    weights = range(13)
    exact = {n: (algebroid.eta_block(spec, n), algebroid.letter_block(spec, n))
             for n in weights}
    algebroid._eta_block.cache_clear()
    monkeypatch.setattr(algebroid, "_INT64_MAX", 0)
    try:
        for n in weights:
            slow = (algebroid.eta_block(spec, n), algebroid.letter_block(spec, n))
            for fast, ref in zip(exact[n], slow):
                assert fast.dtype == np.int64 and fast.shape == ref.shape
                assert ref.dtype == (object if n else np.int64)
                assert (fast == ref).all(), n
    finally:
        monkeypatch.undo()
        algebroid._eta_block.cache_clear()
    for n in weights:
        for mod in (5, 625, 5 ** 9):
            block = algebroid.eta_block(spec, n, mod)
            assert block.dtype == np.min_scalar_type(mod - 1)
            assert (block.astype(object) == exact[n][0] % mod).all(), (n, mod)


@pytest.mark.parametrize("spec, n, bits", [(FULL, 26, 65), (RED, 24, 66)])
def test_first_blocks_past_int64_are_object(spec, n, bits):
    # entries first pass 2^63 at full weight 26 and reduced weight 24;
    # those blocks hold exact integers in an object array that reduce to
    # the residue block, while every block through weight 22 sums in int64
    def top_bits(block):
        return max(abs(int(x)) for x in block.flat).bit_length()

    block = algebroid.eta_block(spec, n)
    assert block.dtype == object and top_bits(block) == bits
    assert all(top_bits(algebroid.eta_block(spec, k)) < 64 for k in range(n))
    assert all(algebroid.eta_block(spec, k).dtype == np.int64
               for k in range(23))
    assert (block % 5 ** 9 == algebroid.eta_block(spec, n, 5 ** 9)).all()


@pytest.fixture
def fresh_blocks():
    """Clear the block memo before and after, so a test sees the blocks
    its own plant builds and leaves none of them behind."""
    algebroid._eta_block.cache_clear()
    yield
    algebroid._eta_block.cache_clear()


def test_exact_full_blocks_are_exp_rD():
    # the exact FULL blocks of the generator recursion equal, value for
    # value and in int64, the divided powers of D (exp(rD)) through weight
    # 23, where that construction's int64 bound holds: the identity that
    # is_invariant and invariant_basis rest on
    for n in range(24):
        block, ref = algebroid.eta_block(FULL, n), translation_block(n)
        assert block.dtype == ref.dtype == np.int64 and block.shape == ref.shape
        assert (block == ref).all(), n
        assert not block.flags.writeable


@pytest.mark.parametrize("spec", [FULL, RED, quotient(FULL, 1)])
@pytest.mark.parametrize("mod", [None, 5, 625])
def test_blocks_of_weight_at_most_zero(spec, mod, fresh_blocks):
    # weight 0 is the 1 x 1 identity, a negative weight the empty block,
    # each in the block's dtype and built without recursing below it
    work = algebroid.coefficient_modulus(spec, mod)
    dtype = np.int64 if work is None else np.min_scalar_type(work - 1)
    assert algebroid.eta_block(spec, 0, mod).tolist() == [[1]]
    for n in (0, -1, -8, -5000):
        block = algebroid.eta_block(spec, n, mod)
        assert block.dtype == dtype and block.shape == ((1, 1) if n == 0 else (0, 0))
    assert algebroid._eta_block.cache_info().misses == 4


@pytest.mark.parametrize("spec, mods", [
    (FULL, (None,)), (RED, (None,)), (quotient(FULL, 1), (None, 5, 625)),
    (quotient(RED, 4), (None, 5))])
def test_eta_block_is_built_once_per_working_modulus(spec, mods, fresh_blocks):
    # however the working modulus is asked for (left out, None, or a power
    # of 5 that a quotient spec reads as 5), a block is built and kept once
    first = algebroid.eta_block(spec, 6)
    kept = algebroid._eta_block.cache_info().currsize
    assert all(algebroid.eta_block(spec, 6, mod) is first for mod in mods)
    assert algebroid._eta_block.cache_info().currsize == kept


def test_letters_built_once_in_the_block_memo(monkeypatch, fresh_blocks):
    # a letter block runs the generator recursion in letters: it reads the
    # letter blocks below it and, under weight 5 where the two alphabets
    # agree, the r-exponent blocks, each built once, all through the one
    # memo _eta_block; no r-exponent block of weight >= 5 is built on the
    # way.  The memo is swapped for one around a counting body, which the
    # recursion reaches because it reads _eta_block from the module
    built = []
    real = algebroid._eta_block.__wrapped__

    def counted(spec, n, mod, letters):
        built.append((n, letters))
        return real(spec, n, mod, letters)

    monkeypatch.setattr(algebroid, "_eta_block", lru_cache(maxsize=None)(counted))
    spec = quotient(FULL, 0)
    block = algebroid.letter_block(spec, 30, 5)
    assert len(built) == len(set(built)) == algebroid._eta_block.cache_info().currsize
    assert not [n for n, letters in built if n >= 5 and not letters]
    assert {n for n, letters in built if letters} == set(range(5, 31))
    assert algebroid.letter_block(spec, 30, 5) is block
    algebroid._eta_block.cache_clear()
    rebuilt = algebroid.letter_block(spec, 30, 5)
    assert rebuilt is not block and (rebuilt == block).all()


def test_exact_letter_blocks_sum_in_int64():
    # the generator recursion in letters proves an int64 bound on the
    # exact full letter blocks through weight 22, and each reduces to the
    # letter block mod 5^9
    for n in range(19, 23):
        letters = algebroid.letter_block(FULL, n)
        assert letters.dtype == np.int64, n
        assert (letters % 5 ** 9 == algebroid.letter_block(FULL, n, 5 ** 9)).all(), n


def test_exact_letter_blocks_pinned_through_weight_22():
    # the values of every exact full letter block of weight <= 22, blind to
    # dtype, pinned by the digest they had when each block was built in
    # r-exponents and its rows rewritten into letters
    digest = hashlib.sha256()
    for n in range(23):
        b = algebroid.letter_block(FULL, n)
        digest.update(repr(b.shape).encode() + b"|" + repr(b.tolist()).encode())
    assert digest.hexdigest()[:16] == "a3be6a55e9797474"


def test_eta_r_int_pinned_through_degree_200():
    # every (r-exponent, monomial, coefficient) tuple of eta_R_int on the
    # monomials of degree <= 200, in both presentations, printed in order:
    # pinned by the sha256 prefix they had when every exact block summed in
    # Python ints, so the int64 sums change no coefficient and no type
    digest = hashlib.sha256()
    for spec in (FULL, RED):
        for t in range(0, 201, 8):
            for mono in graded_piece_basis(spec.base_ring, t):
                digest.update(repr(algebroid.eta_R_int(spec, mono)).encode())
    assert digest.hexdigest()[:12] == "27107e61751f"


def test_eta_block_refuses_modulus_past_int64_bound():
    # one product of two residues mod 5^14 already passes 2^63, so the
    # int64 sums could wrap; K_MAX = 9 stays inside the bound
    assert algebroid.eta_block(RED, 6, 5 ** 9).any()
    with pytest.raises(ValueError, match="int64"):
        algebroid.eta_block(RED, 6, 5 ** 14)


def test_gamma_text_roundtrip():
    g = gam(RED, "a4*r + a3*r^2 + a2*r^3")
    assert parse_gamma(RED, format_polynomial(g)) == g
    assert format_polynomial(reduce_gamma(RED, Polynomial.zero(gamma_ring(RED)))) == "0"


def test_parse_word():
    assert parse_word("r^4|r") == (4, 1)
    assert parse_word("r") == (1,)
    with pytest.raises(ValueError):
        parse_word("r^4|s")


def _block_digest(spec, mod, top=20):
    # sha256 of every eta_block and letter_block of weight <= top: dtype,
    # shape, then the raw bytes (the Python ints of an object array)
    digest = hashlib.sha256()
    for n in range(top + 1):
        for b in (algebroid.eta_block(spec, n, mod),
                  algebroid.letter_block(spec, n, mod)):
            digest.update(str(b.dtype).encode() + b"|" + repr(b.shape).encode()
                          + b"|")
            digest.update(repr(b.tolist()).encode() if b.dtype == object
                          else np.ascontiguousarray(b).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("spec, mod, want", [
    (FULL, None, "d399595830d2be73"),
    (FULL, 5, "521ecf7120461942"),
    (FULL, 625, "174ef69d9fdc9040"),
    (FULL, 5 ** 9, "c460a13dbcfcf109"),
    (AlgebroidSpec("full", 1), 5, "fe0095f9d14182b2"),
    (AlgebroidSpec("full", 2), 5, "7017941c4c2dfd0c"),
    (AlgebroidSpec("full", 3), 5, "4ae104192f6603a6"),
    (AlgebroidSpec("full", 4), 5, "cf0c793880cb7782"),
    (RED, None, "dfd5e96e20d4bdfc"),
    (RED, 5, "ed35b5d9ceb8c403"),
    (RED, 625, "7e5de17a1789e166"),
    (RED, 5 ** 9, "a75806d9997b89aa"),
    (AlgebroidSpec("reduced", 1), 5, "1d9562d5cebc6054"),
    (AlgebroidSpec("reduced", 2), 5, "f7b50ed7b953d566"),
    (AlgebroidSpec("reduced", 3), 5, "0ecb8ebfbaef30fe"),
    (AlgebroidSpec("reduced", 4), 5, "ba6f7505a32a6f56"),
])
def test_blocks_pinned_through_weight_20(spec, mod, want):
    # every eta_block and letter_block of weight <= 20, dtype and bytes,
    # pinned by the digest they had when each moved row looked its product
    # monomial up one by one and every sum ran in int64 or Python ints;
    # the exact full pin since its letter blocks of weight 19 and 20 sum
    # in int64, with the values of test_exact_letter_blocks_pinned_through_weight_22
    assert _block_digest(spec, mod) == want


@pytest.mark.parametrize("spec", [FULL, RED])
def test_int32_sums_change_no_block(spec, monkeypatch):
    # with the int32 ceiling at 0 every sum that fits runs in int64: the
    # blocks are the same, value for value and dtype for dtype
    cases = [(n, mod) for n in range(17) for mod in (None, 5, 625)]
    fast = {c: (algebroid.eta_block(spec, *c), algebroid.letter_block(spec, *c))
            for c in cases}
    algebroid._eta_block.cache_clear()
    monkeypatch.setattr(algebroid, "_INT32_MAX", 0)
    try:
        for c in cases:
            wide = (algebroid.eta_block(spec, *c), algebroid.letter_block(spec, *c))
            for a, b in zip(fast[c], wide):
                assert a.dtype == b.dtype and a.shape == b.shape, c
                assert (a == b).all(), c
    finally:
        monkeypatch.undo()
        algebroid._eta_block.cache_clear()


def test_mul_map_is_the_product_position():
    # _mul_map(spec, w, m2)[i] is the position of m1 * m2 in its piece,
    # for m1 the i-th monomial of the weight-w piece, in every quotient
    for spec in SPECS:
        for w in range(7):
            piece = algebroid.coefficient_piece(spec, 8 * w)
            for d in range(1, 4):
                for m2 in algebroid.coefficient_piece(spec, 8 * d):
                    target = algebroid.coefficient_piece(spec, 8 * (w + d))
                    got = algebroid._mul_map(spec, w, m2)
                    assert [target[i] for i in got] == [
                        tuple(a + b for a, b in zip(m1, m2)) for m1 in piece]
