import math
from functools import lru_cache
from math import comb

import numpy as np
import pytest

import hopfext.transfer as transfer
from hopfext.algebroid import (
    AlgebroidSpec,
    coefficient_piece,
    eta_block,
    eta_block_offsets,
    eta_R_int,
    piece_index,
    quotient,
    reduce_base,
)
from hopfext.cobar import cohomology, compositions, differential, is_coboundary
from hopfext.flinalg import matmul_mod, rank_gf5
from hopfext.gradedpoly import Polynomial, graded_piece_basis
from hopfext.transfer import (
    PrecisionExhausted,
    diagonal_valuations,
    ext_dim,
    integral_structure,
    small_basis,
    small_word_labels,
    transferred_matrix,
)
from hopfext.wordcx import reduced_word_h_dim, word_d_entries

import echelon
import series_reference as series

RED = AlgebroidSpec("reduced")
FULL = AlgebroidSpec("full")
RI = {k: quotient(RED, k) for k in (0, 1, 2, 4)}
FI = {k: quotient(FULL, k) for k in (0, 1, 2)}


def _coeff_int(c, mod):
    return c.numerator * pow(c.denominator, -1, mod) % mod


def _reduce_reference(spec, terms):
    """Rewrite the top r power through r^5 = -(a1 r^4 + a2 r^3 + a3 r^2 +
    a4 r) until every exponent is below 5 (reduced variant only), then
    project into the quotient."""
    ring = spec.base_ring
    if spec.variant == "reduced":
        tail = [(5 - j, Polynomial.generator(ring, f"a{j}")) for j in range(1, 5)]
        while max(terms, default=0) >= 5:
            e = max(terms)
            p = terms.pop(e)
            for exp, aj in tail:
                key = e - 5 + exp
                terms[key] = terms.get(key, Polynomial.zero(ring)) - p * aj
    out = {e: reduce_base(spec, p) for e, p in terms.items()}
    return {e: p for e, p in out.items() if p}


@lru_cache(maxsize=None)
def _eta_R_reference(spec, mono):
    """The symbolic right unit of a base monomial as {r-exponent: polynomial}:
    products of eta_R(a_i) = sum_j C(5-j, i-j) a_j r^(i-j) (a_0 = 1) over
    the polynomial ring, reduced by _reduce_reference.  Like the table, the
    image of mono with one factor of its last generator removed times that
    generator's image, but built apart from it."""
    ring = spec.base_ring
    for i in range(len(mono) - 1, -1, -1):
        if mono[i]:
            break
    else:
        return {0: reduce_base(spec, Polynomial.constant(ring, 1))}
    gen = {i + 1 - j: Polynomial.constant(ring, comb(5, i + 1)) if j == 0 else
           Polynomial.generator(ring, f"a{j}").scale(comb(5 - j, i + 1 - j))
           for j in range(i + 2)}
    rest = _eta_R_reference(spec, mono[:i] + (mono[i] - 1,) + mono[i + 1:])
    out = {}
    for e1, p1 in rest.items():
        for e2, p2 in gen.items():
            out[e1 + e2] = out.get(e1 + e2, Polynomial.zero(ring)) + p1 * p2
    return _reduce_reference(spec, out)


@lru_cache(maxsize=None)
def _eta_items_reference(spec, mono, mod):
    """The right-unit tail (positive r-exponents) read off the symbolic
    right unit, as (r-exponent, monomial, coefficient) triples."""
    out = []
    for e, p in sorted(_eta_R_reference(spec, mono).items()):
        if e == 0:
            continue
        for m2, c in p.sorted_terms():
            v = _coeff_int(c, mod)
            if v:
                out.append((e, m2, v))
    return tuple(out)


@lru_cache(maxsize=None)
def _eta_items_L_reference(spec, mono, mod):
    """The letter-alphabet tail (full presentation) by rewriting the
    symbolic right unit's top r power through r^5 = z - a5 - a4 r - ...
    until every exponent is below 5, as (letter weight, monomial,
    coefficient) triples."""
    ring = spec.base_ring
    tail = [(i, Polynomial.generator(ring, name))
            for i, name in enumerate(("a5", "a4", "a3", "a2", "a1"))
            if name not in spec.killed]
    state = {(0, e): p for e, p in _eta_R_reference(spec, mono).items()}
    while True:
        high = [k for k in state if k[1] >= 5]
        if not high:
            break
        m, e = max(high, key=lambda k: k[1])
        p = state.pop((m, e))
        up = (m + 1, e - 5)
        state[up] = state.get(up, Polynomial.zero(ring)) + p
        for j, q in tail:
            key = (m, e - 5 + j)
            state[key] = state.get(key, Polynomial.zero(ring)) - p * q
    out = []
    for (m, e) in sorted(state):
        w = 5 * m + e
        if w == 0:
            continue
        for m2, c in state[(m, e)].sorted_terms():
            v = _coeff_int(c, mod)
            if v:
                out.append((w, m2, v))
    return tuple(out)


def _eta_tail(spec, mono, mod):
    """A base monomial's right-unit tail: its eta_R_int terms of positive
    r-exponent."""
    return tuple(item for item in eta_R_int(spec, mono, mod) if item[0])


def _letter_tail(spec, mono, mod):
    """A base monomial's tail as delta applies it: its column of the
    letter-weight-w matrices of transfer._eta_matrices, w >= 1, read as
    (letter weight, monomial, coefficient) triples."""
    d = spec.base_ring.monomial_degree(mono)
    col = piece_index(spec, d)[mono]
    return tuple((w, m2, c)
                 for w, mat in transfer._eta_matrices(spec, d, mod)
                 for m2, c in zip(coefficient_piece(spec, d - 8 * w),
                                  mat[:, col].tolist()) if c)


def _monomials_of_degree(spec, t):
    killed = len(spec.killed)
    return [m for m in graded_piece_basis(spec.base_ring, t)
            if not any(m[:killed])]


def _monomials(spec, t_max):
    return [m for t in range(0, t_max + 1, 8)
            for m in _monomials_of_degree(spec, t)]


@pytest.mark.parametrize("variant,t_max", [("reduced", 160), ("full", 120)])
@pytest.mark.parametrize("level", [None, 0, 1, 2, 3, 4])
def test_eta_table_matches_symbolic(variant, t_max, level):
    # the integer table emits the symbolic right unit's tuples, in order,
    # and in the full presentation delta's letter rows emit its letter form
    spec = AlgebroidSpec(variant, level)
    for mono in _monomials(spec, t_max):
        for mod in (5, 625, 5 ** 9):
            assert _eta_tail(spec, mono, mod) == \
                _eta_items_reference(spec, mono, mod), (mono, mod)
            if variant == "full":
                assert _letter_tail(spec, mono, mod) == \
                    _eta_items_L_reference(spec, mono, mod), (mono, mod)


def test_exact_eta_table_matches_symbolic():
    for mono in _monomials(FULL, 112):
        want = sorted((e, m2, c) for e, p in
                      _eta_R_reference(FULL, mono).items()
                      for m2, c in p.terms.items())
        assert all(type(c) is int for p in _eta_R_reference(FULL, mono).values()
                   for c in p.terms.values())
        assert sorted(eta_R_int(FULL, mono)) == want, mono


def test_eta_items_reduced_examples():
    i1 = RI[1]
    a3 = (0, 0, 1, 0)
    # eta(a3) = a3 + 3 a2 r mod I1
    assert _eta_tail(i1, a3, 5) == ((1, (0, 1, 0, 0), 3),)
    a4 = (0, 0, 0, 1)
    assert _eta_tail(i1, a4, 5) == (
        (1, (0, 0, 1, 0), 2), (2, (0, 1, 0, 0), 3))


def test_eta_items_letter_alphabet():
    # the top generator's tail is exactly the weight-5 letter minus itself,
    # and the weight-0 residue dies in the quotient by the left unit
    a5 = (0, 0, 0, 0, 1)
    items = _letter_tail(FI[0], a5, 5)
    assert items == ((5, (0, 0, 0, 0, 0), 1),)
    a1 = (1, 0, 0, 0, 0)
    # eta(a1) = a1 + 5r, so mod 5 the tail vanishes
    assert _letter_tail(FI[0], a1, 5) == ()
    one = (0, 0, 0, 0, 0)
    assert _letter_tail(FI[0], one, 5) == ()


def test_letter_tail_degree_homogeneous():
    spec = FI[1]
    ring = spec.base_ring
    mono = (0, 0, 1, 1, 0)  # a3 a4
    deg = ring.monomial_degree(mono)
    for w, m2, c in _letter_tail(spec, mono, 5):
        assert ring.monomial_degree(m2) + 8 * w == deg


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s,t", [(0, 16), (1, 8), (1, 40), (2, 40),
                                 (2, 64), (3, 48), (3, 96)])
def test_reduced_dims_match_cobar(k, s, t):
    spec = RI[k]
    g = cohomology(spec, s, t)
    assert ext_dim(spec, s, t) == g.free_rank + len(g.torsion)


@pytest.mark.parametrize("s,t", [(1, 120), (2, 120), (3, 112)])
def test_reduced_dims_match_cobar_mod5(s, t):
    spec = RI[0]
    g = cohomology(spec, s, t)
    assert ext_dim(spec, s, t) == g.free_rank + len(g.torsion)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s,t", [(0, 16), (1, 8), (1, 48), (2, 40),
                                 (2, 56), (3, 80)])
def test_full_dims_match_cobar(k, s, t):
    spec = FI[k]
    g = cohomology(spec, s, t)
    assert ext_dim(spec, s, t) == g.free_rank + len(g.torsion)


def test_top_quotient_matches_word_counts():
    spec = RI[4]
    for s in range(0, 5):
        for t in range(8, 200, 8):
            want = sum(reduced_word_h_dim(n, s) for n in range(t // 8 + 1)
                       if 8 * n == t)
            assert ext_dim(spec, s, t) == want


@pytest.mark.parametrize("spec", [RI[0], RI[1], FI[1]])
def test_transferred_square_zero(spec):
    for t in (40, 80, 120):
        for s in range(0, 3):
            a = transferred_matrix(spec, s, t, mod=5)
            b = transferred_matrix(spec, s + 1, t, mod=5)
            if a.size and b.size:
                assert not np.any(matmul_mod(b, a, 5))


def test_transferred_square_zero_prime_power():
    spec = RED
    for t in (40, 80):
        for s in range(0, 2):
            a = transferred_matrix(spec, s, t, mod=625)
            b = transferred_matrix(spec, s + 1, t, mod=625)
            if a.size and b.size:
                assert not np.any(matmul_mod(b, a, 625))


def test_diagonal_valuations():
    m = np.array([[5, 0], [0, 7], [0, 0]])
    assert diagonal_valuations(m, 4) == [0, 1]
    m = np.array([[25, 5], [5, 1]])
    assert diagonal_valuations(m, 4) == [0]  # determinant vanishes
    m = np.array([[25, 5], [5, 2]])
    assert diagonal_valuations(m, 4) == [0, 2]
    m = np.diag([1, 5, 125])
    assert diagonal_valuations(m, 4) == [0, 1, 3]
    # a divisor of 5^K reads as zero; integral_structure must catch it
    assert diagonal_valuations(np.diag([625, 1]), 4) == [0]


def _valuations_reference(mat, k_power):
    """Elementary divisor valuations by pivoting at a globally minimal
    valuation and clearing the pivot's row and column."""
    mod = 5 ** k_power
    a = (np.asarray(mat, dtype=np.int64) % mod).copy()

    def v5(x):
        v = 0
        while x % 5 == 0 and v < k_power:
            x //= 5
            v += 1
        return v

    vals = []
    live_r, live_c = list(range(a.shape[0])), list(range(a.shape[1]))
    while live_r and live_c and np.any(a[np.ix_(live_r, live_c)]):
        v, i0, j0 = min((v5(int(a[i, j])), i, j) for i in live_r
                        for j in live_c if a[i, j])
        a[i0] = a[i0] * pow(int(a[i0, j0]) // 5 ** v, -1, mod) % mod
        for i in live_r:
            if i != i0:
                a[i] = (a[i] - (int(a[i, j0]) // 5 ** v) * a[i0]) % mod
        for j in live_c:
            if j != j0:
                a[:, j] = (a[:, j] - (int(a[i0, j]) // 5 ** v) * a[:, j0]) % mod
        vals.append(v)
        live_r.remove(i0)
        live_c.remove(j0)
    return sorted(vals)


@pytest.mark.parametrize("k_power", [2, 3, 4, 9])
def test_diagonal_valuations_match_reference(k_power):
    mod = 5 ** k_power
    rng = np.random.default_rng(k_power)
    for _ in range(60):
        m, n = rng.integers(1, 9, 2)
        r = rng.integers(0, min(m, n) + 1)
        core = (rng.integers(0, mod, (m, r)) @ rng.integers(0, 5, (r, n)))
        rows = 5 ** rng.integers(0, k_power + 1, m)
        cols = 5 ** rng.integers(0, k_power + 1, n)
        a = rows[:, None] * (core % mod) % mod * cols[None, :] % mod
        assert diagonal_valuations(a, k_power) == _valuations_reference(
            a, k_power)


def test_planted_5K_divisor_raises(monkeypatch):
    # H^{1,8} = Z/5: scaling the differential out of degree 0 by 5^(K-1)
    # makes its divisor 5^K, which reads as zero mod 5^K and would turn
    # the torsion class into free rank
    real = transfer.transferred_matrix

    def planted(spec, s, t, mod):
        mat = real(spec, s, t, mod)
        return mat * 5 ** (transfer.K_POWER - 1) % mod if s == 0 else mat

    monkeypatch.setattr(transfer, "transferred_matrix", planted)
    # a valuation cached by an earlier test would hide the plant
    transfer.differential_valuations.cache_clear()
    try:
        with pytest.raises(PrecisionExhausted):
            integral_structure(RED, 1, 8)
    finally:
        transfer.differential_valuations.cache_clear()


@pytest.mark.parametrize("s,t", [(s, t) for s in range(5)
                                 for t in range(0, 73, 8)])
def test_integral_structure_matches_cobar(s, t):
    got_free, got_tors = integral_structure(RED, s, t)
    g = cohomology(RED, s, t)
    assert got_free == g.free_rank
    assert list(got_tors) == sorted(g.torsion)
    # representatives: the torsion classes in order, then the free ones
    assert len(g.representatives) == len(g.torsion) + g.free_rank
    for rep in g.representatives:
        assert not differential(RED, rep)
    for v, rep in zip(g.torsion, g.representatives):
        assert is_coboundary(RED, rep.scale(5 ** v)) is not None
        assert is_coboundary(RED, rep.scale(5 ** (v - 1))) is None
    for rep in g.representatives[len(g.torsion):]:
        assert is_coboundary(RED, rep) is None


def test_integral_first_line():
    # H^{1,8} = Z/5 on the weight-1 word; no free part above filtration 0
    free, tors = integral_structure(RED, 1, 8)
    assert (free, tors) == (0, (1,))


@pytest.mark.parametrize("mod", [5, 625])
def test_extended_word_homotopy_identities(mod):
    # d h + h d = 1 - iota pi on every extended word of weight <= 14, with
    # h, pi and iota assembled tensorially from the block and tail maps
    def add(acc, terms, cf):
        for w, c in terms:
            acc[w] = (acc.get(w, 0) + cf * c) % mod

    words = [w for n in range(1, 15) for s in range(1, n + 1)
             for w in compositions(n, s, None)]
    assert len(words) == 2 ** 14 - 1
    for word in words:
        got = {}
        for y, c in series.h_word(word, mod):
            add(got, word_d_entries(y).items(), c)
        for y, c in word_d_entries(word).items():
            add(got, series.h_word(y, mod), c)
        want = {word: 1}
        for label, c in series.pi_word(word, mod):
            add(want, series.iota_label(label, mod), -c)
        assert {w: c for w, c in got.items() if c} == \
            {w: c for w, c in want.items() if c}, word


def test_small_basis_deterministic():
    a = small_basis(RI[1], 2, 96)
    b = small_basis(RI[1], 2, 96)
    assert a == b and len(a) == len(set(a))


def _small_basis_reference(spec, s, t):
    if s < 0 or t % 8:
        return ()
    return tuple((label, mono) for n in range(t // 8 + 1)
                 for label in small_word_labels(spec, s, n)
                 for mono in _monomials_of_degree(spec, t - 8 * n))


def _transferred_reference(spec, s, t, mod):
    """The series by the per-(monomial, word) loop: one int64 row per key,
    delta one item of the symbolic right unit's tail and h one word image
    of the series reference at a time."""
    items = (_eta_items_L_reference if spec.variant == "full"
             else _eta_items_reference)

    def delta(data):
        out = {}
        for (mono, word), arr in data.items():
            for w0, mono2, cf in items(spec, mono, mod):
                key = (mono2, (w0,) + word)
                out[key] = out.get(key, 0) + cf * arr
        return {k: v % mod for k, v in out.items() if np.any(v % mod)}

    def h(data):
        out = {}
        for (mono, word), arr in data.items():
            for w2, cf in series.h_word(word, mod):
                out[(mono, w2)] = out.get((mono, w2), 0) + cf * arr
        return {k: v % mod for k, v in out.items() if np.any(v % mod)}

    src = _small_basis_reference(spec, s, t)
    dst = _small_basis_reference(spec, s + 1, t)
    dst_idx = {k: i for i, k in enumerate(dst)}
    out = np.zeros((len(dst), len(src)), dtype=np.int64)
    if not src or not dst:
        return out
    data = {}
    for col, (label, mono) in enumerate(src):
        for word, cf in series.iota_label(label, mod):
            arr = data.setdefault((mono, word), np.zeros(len(src), np.int64))
            arr[col] = (arr[col] + cf) % mod
    while data:
        data = delta(data)
        for (mono, word), arr in data.items():
            for label, cf in series.pi_word(word, mod):
                row = dst_idx[(label, mono)]
                out[row] = (out[row] + cf * arr) % mod
        data = h(data)
    return out


TRANSFER_GRID = (
    [("reduced", k, 5, 160) for k in range(5)]
    + [("full", k, 5, 120) for k in range(5)]
    + [("reduced", None, mod, 160) for mod in (5, 625, 5 ** 9)]
    + [("full", None, mod, 96) for mod in (5, 625, 5 ** 9)])


@pytest.mark.parametrize("variant,level,mod,t_max", TRANSFER_GRID)
def test_transferred_matrix_matches_reference(variant, level, mod, t_max):
    # the closed form equals the series, run by the per-key loop, in value
    # and dtype
    spec = AlgebroidSpec(variant, level)
    for s in range(5):
        for t in range(8, t_max + 1, 8):
            got = transferred_matrix(spec, s, t, mod)
            want = _transferred_reference(spec, s, t, mod)
            assert got.dtype == want.dtype, (s, t)
            assert np.array_equal(got, want), (s, t)
            assert small_basis(spec, s, t) == _small_basis_reference(spec, s, t)


@pytest.mark.parametrize("spec,mod", [(RI[1], 5), (RED, 625)])
def test_reduced_delta_matrices_are_block_views(spec, mod):
    # delta reads the right-unit block in place: its exponent-w rows
    for n in range(16):
        block = eta_block(spec, n, mod)
        offsets = eta_block_offsets(spec, n)
        for w, mat in transfer._eta_matrices.__wrapped__(spec, 8 * n, mod):
            assert np.shares_memory(mat, block)
            assert np.array_equal(mat, block[offsets[w]:offsets[w + 1]])


@pytest.mark.parametrize("spec,mod", [(RI[1], 5), (RED, 625), (FI[0], 5)])
def test_delta_makes_one_product_per_piece_and_sequence(spec, mod,
                                                        monkeypatch):
    # a delta product T_seq is made once per (piece, sequence), however
    # many cells, source labels and longer sequences read it
    real_product, real_matmul = transfer._delta_product, transfer.matmul_mod
    real_product.cache_clear()
    made, keys, per_cell = [0], set(), []
    depth = [0]

    def counted_matmul(a, b, m):
        made[0] += 1
        return real_matmul(a, b, m)

    def counted_product(spec_, d, seq, m):
        if len(seq) >= 2:
            keys.add((spec_, d, seq, m))
            if not depth[0]:
                # the products a build from scratch would make for this read
                per_cell[-1].update((d, seq[:k]) for k in range(2, len(seq) + 1))
        depth[0] += 1
        try:
            return real_product(spec_, d, seq, m)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(transfer, "matmul_mod", counted_matmul)
    monkeypatch.setattr(transfer, "_delta_product", counted_product)
    for s in range(4):
        for t in range(8, 121, 8):
            per_cell.append(set())
            transferred_matrix(spec, s, t, mod)
    assert made[0] == len(keys) > 0
    assert made[0] < sum(len(reads) for reads in per_cell)


def test_projection_outside_small_basis_raises(monkeypatch):
    real = transfer._label_terms

    def planted(spec, label, d, mod):
        yield from real(spec, label, d, mod)
        yield ("outside",), (1,), 1

    monkeypatch.setattr(transfer, "_label_terms", planted)
    with pytest.raises(AssertionError, match="left the small basis"):
        transferred_matrix(RED, 0, 8, 625)


@pytest.mark.parametrize("spec,sweep,memo,mod", [
    (RI[1], ext_dim, "_rank_f5", 5),
    (RED, transfer.integral_valuations, "differential_valuations", 625),
])
def test_sweep_builds_each_cell_once(spec, sweep, memo, mod, monkeypatch):
    # transferred_matrix keeps nothing, so a sweep builds each cell it reads
    # exactly once: the rank or valuation memo above it is the only re-read.
    # A reduced cell (u, t) reads its b-periodic representative
    # (u mod 2, t - 40 floor(u/2)), which a sweep reaches at t >= 0 only
    real = transfer.transferred_matrix
    built = {}

    def counted(spec_, s, t, mod_):
        key = (spec_, s, t, mod_)
        built[key] = built.get(key, 0) + 1
        return real(spec_, s, t, mod_)

    monkeypatch.setattr(transfer, "transferred_matrix", counted)
    getattr(transfer, memo).cache_clear()
    cells = [(s, t) for s in range(5) for t in range(0, 121, 8)]
    try:
        for s, t in cells:
            sweep(spec, s, t)
    finally:
        getattr(transfer, memo).cache_clear()
    want = {(spec, u % 2, t - 40 * (u // 2), mod): 1
            for s, t in cells if small_basis(spec, s, t)
            for u in (s - 1, s) if u >= 0}
    assert built == want
    assert all(t >= 0 for _, _, t, _ in built)
    first, again = real(spec, 1, 40, mod), real(spec, 1, 40, mod)
    assert first is not again and first.flags.writeable


@pytest.mark.parametrize("variant,level,mod,t_max", TRANSFER_GRID)
def test_echelon_transfer_matches_morse(variant, level, mod, t_max):
    # the series on a different contraction gives a complex isomorphic to
    # the closed form's: equal basis sizes, F5 ranks and mod-5^K
    # elementary divisors
    spec = AlgebroidSpec(variant, level)
    k_power = round(math.log(mod, 5))
    for c in [(s, t) for s in range(5) for t in range(8, t_max + 1, 8)]:
        want = transferred_matrix(spec, *c, mod)
        got = series.transferred_matrix(spec, *c, mod, echelon.MAPS)
        assert want.shape[1] == len(small_basis(spec, *c)), c
        assert got.shape == want.shape, c
        if mod == 5:
            assert rank_gf5(got) == rank_gf5(want), c
        else:
            assert diagonal_valuations(got, k_power) == \
                diagonal_valuations(want, k_power), c
