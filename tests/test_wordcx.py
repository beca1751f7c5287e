import numpy as np
import pytest

import hopfext.wordcx as wordcx
from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.cobar import cochain_basis, differential_matrix_mod
from hopfext.flinalg import matmul_mod
from hopfext.wordcx import (
    MatchingError,
    block_contraction,
    critical_word,
    dual_h_dim,
    letter_splits,
    reduced_contraction,
    reduced_word_h_dim,
    reduced_words,
    word_d_entries,
    word_matrix,
)

from echelon import block_words, complex_levels, contract_reference
from series_reference import split_blocks

I4 = quotient(AlgebroidSpec("reduced"), 4)


def test_letter_splits():
    assert letter_splits(1) == []
    assert letter_splits(4) == [(4, 1, 3), (6, 2, 2), (4, 3, 1)]
    assert letter_splits(5) == []
    assert letter_splits(7) == [(2, 1, 6), (1, 2, 5)]
    assert letter_splits(14) == [(4, 1, 13), (6, 2, 12), (4, 3, 11), (1, 4, 10)]


def test_word_d_entries_signs():
    # first slot carries a minus sign, second a plus
    assert word_d_entries((2,)) == {(1, 1): -2}
    assert word_d_entries((1, 2)) == {(1, 1, 1): 2}
    assert word_d_entries((3, 3)) == {
        (1, 2, 3): -3, (2, 1, 3): -3, (3, 1, 2): 3, (3, 2, 1): 3}


def test_matches_cobar_matrix_top_quotient():
    for n, s in [(3, 2), (5, 2), (6, 3), (8, 4)]:
        t = 8 * n
        assert [m[4:] for m in cochain_basis(I4, s, t)] == list(reduced_words(n, s))
        a = differential_matrix_mod(I4, s, t, 5)
        b = word_matrix(reduced_words(n, s), reduced_words(n, s + 1), 5)
        assert np.array_equal(a % 5, b % 5)


def test_reduced_h_dims_pattern():
    for n in range(0, 13):
        for s in range(0, n + 2):
            want = 1 if (n % 5 == 0 and s == 2 * (n // 5)) or \
                (n % 5 == 1 and s == 2 * (n // 5) + 1) else 0
            assert reduced_word_h_dim(n, s) == want, (n, s)


def test_dual_resolution_matches_word_ranks():
    for n in range(0, 14):
        for s in range(0, n + 2):
            assert dual_h_dim(s, 8 * n) == reduced_word_h_dim(n, s), (n, s)
    # far beyond the reach of the dense word ranks
    assert dual_h_dim(8, 160) == 1
    assert dual_h_dim(9, 168) == 1
    assert dual_h_dim(8, 168) == 0


MODS = (5, 625, 5 ** 9)


def _levels(block, n):
    """Word bases of every level of one weight's complex."""
    words, _ = complex_levels(block, n, max(n, 1))
    return {s: ws for s, ws in words.items() if ws}


def _apply_d(terms, mod):
    out = {}
    for w, c in terms.items():
        for w2, c2 in word_d_entries(w).items():
            out[w2] = (out.get(w2, 0) + c * c2) % mod
    return {w: c for w, c in out.items() if c}


def _apply(entry, field, terms, mod):
    out = {}
    for w, c in terms.items():
        for w2, c2 in getattr(entry(w, mod), field).items():
            out[w2] = (out.get(w2, 0) + c * c2) % mod
    return {w: c for w, c in out.items() if c}


def _check_identities(levels, entry, mod):
    """d h + h d = 1 - iota pi, h h = 0, pi h = 0, h iota = 0, pi iota = 1
    and d iota = 0 on every word of a complex, with the maps read from
    entry; returns the critical words."""
    critical = []
    for ws in levels.values():
        for w in ws:
            con = entry(w, mod)
            lhs = _apply_d(con.h, mod)
            for w2, c in _apply(entry, "h", _apply_d({w: 1}, mod), mod).items():
                lhs[w2] = (lhs.get(w2, 0) + c) % mod
            for w2, c in con.proj.items():
                lhs[w2] = (lhs.get(w2, 0) + c) % mod
            assert {k: v for k, v in lhs.items() if v} == {w: 1}, w
            assert not _apply(entry, "h", con.h, mod), w
            assert not _apply(entry, "pi", con.h, mod), w
            if w in con.pi:
                critical.append(w)
                assert con.pi == {w: 1}, w
                assert _apply(entry, "pi", con.proj, mod) == {w: 1}, w
                assert not _apply(entry, "h", con.proj, mod), w
                assert not _apply_d(con.proj, mod), w
            else:
                # no critical word in any delta h0: pi is pi0
                assert not con.pi and not con.proj, w
    return critical


@pytest.mark.parametrize("mod", MODS)
@pytest.mark.parametrize("n", range(17))
def test_reduced_contraction_identities(n, mod):
    critical = _check_identities(_levels(False, n), reduced_contraction, mod)
    crit = critical_word(n)
    assert critical == ([] if crit is None else [crit])
    for s in range(n + 2):
        assert dual_h_dim(s, 8 * n) == sum(len(w) == s for w in critical)


@pytest.mark.parametrize("W", range(1, 19))
def test_block_contraction(W):
    # the closed form: pi vanishes on every block word but a bare z power,
    # which is its own iota, and h is one merge of the last two letters
    levels = _levels(True, W)
    for mod in MODS:
        critical = _check_identities(levels, block_contraction, mod)
        assert critical == ([(W,)] if W % 5 == 0 else [])
        for w in critical:
            assert block_contraction(w, mod).proj == {w: 1}
        for ws in levels.values():
            for w in ws:
                want = {}
                if len(w) > 1 and w[-1] % 5 == 0:
                    want = {w[:-2] + (w[-2] + w[-1],): (-1) ** (len(w) - 1) % mod}
                assert block_contraction(w, mod).h == want, w


@pytest.mark.parametrize("mod", MODS)
def test_critical_iota_is_a_power_of_b(mod):
    # iota((1, 4)^k [1]) = b^k [1], b = (1, 4) + 2 (2, 3) + 2 (3, 2) + (4, 1):
    # the transpotence cocycle
    b = {(1, 4): 1, (2, 3): 2, (3, 2): 2, (4, 1): 1}
    power = {(): 1}
    for k in range(5):
        for tail in ((), (1,)):
            want = {w + tail: c % mod for w, c in power.items()}
            assert reduced_contraction((1, 4) * k + tail, mod).proj == want
        power = {w + w2: c * c2 for w, c in power.items() for w2, c2 in b.items()}


def _leading_pairs(word):
    p = 0
    while word[p:p + 2] == (1, 4):
        p += 2
    return p // 2


@pytest.mark.parametrize("block", [False, True])
def test_zigzag_descends(block):
    # h and pi of an upper word recurse only into the upper words of
    # delta h0 of it; each has fewer leading (1, 4) pairs (blocks have
    # none), so the recursion is at most s / 2 deep at level s
    for n in range(1, 17):
        for ws in _levels(block, n).values():
            for w in ws:
                step = wordcx._h0(w, 5)
                if step is None:
                    continue
                upper = [y for y in wordcx._delta(step[0])
                         if wordcx._h0(y, 5) is not None]
                if block:
                    assert not upper, w
                assert all(_leading_pairs(y) < _leading_pairs(w)
                           for y in upper), w


def test_block_words_and_split():
    assert block_words(7, 1) == ((7,),)
    assert (1, 6) in block_words(7, 2) and (2, 5) in block_words(7, 2)
    blocks, tail = split_blocks((2, 7, 1, 5, 3, 1))
    assert blocks == ((2, 7), (1, 5))
    assert tail == (3, 1)


def _assert_matches_reference(block, n, top, mod):
    # the echelon oracle has the same harmonic dimension at every level,
    # and the Morse cocycle of each critical word represents its class
    words, lo = complex_levels(block, n, top)
    _, iota, pi, _ = contract_reference(words, mod, lo, top)
    entry = block_contraction if block else reduced_contraction
    for s in range(lo, top + 1):
        critical = [w for w in words[s] if entry(w, mod).pi]
        assert iota[s].shape[1] == len(critical), (n, s)
        for w in critical:
            col = np.zeros((len(words[s]), 1), dtype=np.int64)
            for w2, c in entry(w, mod).proj.items():
                col[words[s].index(w2), 0] = c
            # one class per level: the echelon projection is a 5-unit
            assert matmul_mod(pi[s], col, mod)[0, 0] % 5, (n, s)


@pytest.mark.parametrize("mod", [5, 625])
@pytest.mark.parametrize("top", [3, 5, 7])
def test_reduced_contraction_matches_reference(top, mod):
    # n = 4 * top + 1 has its lowest level above top: no levels at all
    for n in list(range(0, 12)) + [4 * top + 1]:
        _assert_matches_reference(False, n, top, mod)


@pytest.mark.parametrize("mod", [5, 625])
@pytest.mark.parametrize("top", [3, 5])
def test_block_contraction_matches_reference(top, mod):
    for W in range(1, 21):
        _assert_matches_reference(True, W, top, mod)


@pytest.mark.parametrize("mod", [5, 625])
def test_contraction_levels_are_built_once(mod):
    # the maps at a word read only words of its own weight and level, each
    # computed once per modulus and shared by every later read
    for entry, block in ((reduced_contraction, False), (block_contraction, True)):
        for n in range(13):
            for ws in _levels(block, n).values():
                entry.cache_clear()
                first = [entry(w, mod) for w in ws]
                assert entry.cache_info().misses == len(ws)
                assert all(entry(w, mod) is c for w, c in zip(ws, first))
                assert entry.cache_info().misses == len(ws)


def test_stuck_column_trips_the_prime_power_guard(monkeypatch):
    # a matched coefficient of 15 is a stuck pivot over Z/25: h0 must stop
    # at the named guard, not at a failed inverse or a runaway recursion
    real = wordcx.letter_splits

    def planted(w):
        return [(15 if (a, b) == (1, 2) else cf, a, b) for cf, a, b in real(w)]

    monkeypatch.setattr(wordcx, "letter_splits", planted)
    with pytest.raises(MatchingError, match="not a 5-unit"):
        reduced_contraction.__wrapped__((1, 2), 25)
    with pytest.raises(MatchingError, match="not a 5-unit"):
        reduced_contraction.__wrapped__((1, 2, 1, 1), 25)


def test_corrupted_delta_fails_the_identities(monkeypatch):
    real = wordcx._delta

    def planted(word):
        out = real(word)
        for k in out:
            out[k] += 1
        return out

    monkeypatch.setattr(wordcx, "_delta", planted)
    reduced_contraction.cache_clear()
    try:
        with pytest.raises(AssertionError):
            _check_identities(_levels(False, 6), reduced_contraction, 5)
    finally:
        reduced_contraction.cache_clear()
