"""The perturbation series of the transfer, run word by word: the oracle
the closed form of hopfext.transfer is checked against.

The series pi delta sum_k (h delta)^k iota (Crainic, arXiv
math/0403266) is run on a scalar per (word, slot-weight sequence): delta
prepends a slot weight w to the word and appends it to the sequence,
trying only the weights whose slot matrix on the piece reached is
nonzero, so the series ends once the piece is spent.  h, pi and iota pi
of a word assemble tensorially from the Morse maps of hopfext.wordcx at
its z-terminated blocks and its bounded tail.  Another contraction (the
echelon oracle of tests/echelon.py) plugs in as a Maps of its own."""

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from hopfext import transfer
from hopfext.algebroid import coefficient_piece
from hopfext.wordcx import block_contraction, reduced_contraction


def split_blocks(word):
    """Factor an extended word into z-terminated blocks and the bounded tail."""
    blocks, cur = [], []
    for w in word:
        cur.append(w)
        if w >= 5:
            blocks.append(tuple(cur))
            cur = []
    return tuple(blocks), tuple(cur)


def tensor(parts, mod):
    """Tensor product of per-factor images, as concatenated words.  Each
    part's words share one length, so no two products concatenate alike."""
    out = {(): 1}
    for part in parts:
        out = {w + w2: c * c2 % mod
               for w, c in out.items() for w2, c2 in part.items()}
    return out


def _factor_maps(word, mod):
    """The tensor factors of a word, its z-terminated blocks and then its
    bounded tail, each with the Morse maps at it."""
    blocks, tail = split_blocks(word)
    return [(f, block_contraction(f, mod)) for f in blocks] + \
        [(tail, reduced_contraction(tail, mod))]


@lru_cache(maxsize=None)
def h_word(word, mod):
    """Homotopy applied to a single word, as (lower word, coeff) pairs: h
    acts on one factor, iota pi on the later ones."""
    factors = _factor_maps(word, mod)
    out = {}
    prefix = ()
    for i, (f, con) in enumerate(factors):
        sign = -1 if len(prefix) % 2 else 1
        parts = [{prefix: sign}, con.h] + [g.proj for _, g in factors[i + 1:]]
        for w, c in tensor(parts, mod).items():
            out[w] = (out.get(w, 0) + c) % mod
        prefix = prefix + f
    return tuple((w, c) for w, c in out.items() if c)


@lru_cache(maxsize=None)
def pi_word(word, mod):
    """Projection of a word onto the critical words."""
    return tuple(tensor([con.pi for _, con in _factor_maps(word, mod)],
                        mod).items())


@lru_cache(maxsize=None)
def iota_label(label, mod):
    # each factor of a critical word is critical, so its proj is its iota
    return tuple(tensor([con.proj for _, con in _factor_maps(label, mod)],
                        mod).items())


class Maps(NamedTuple):
    """A contraction of the word complexes as the series reads it: h and
    pi of a word, iota of a label, and the labels at (spec, s, n)."""

    h_word: Callable
    pi_word: Callable
    iota_label: Callable
    labels: Callable


MORSE = Maps(h_word, pi_word, iota_label, transfer.small_word_labels)


def word_scalars(spec, label, d, mod, maps=MORSE):
    """{(target label, seq): c} of the series from one source label on the
    piece of degree d; a scalar may be 0."""
    out = {}
    chains = {(): dict(maps.iota_label(label, mod))}
    while chains:
        chains = {seq + (w,): {(w,) + word: c for word, c in words.items()}
                  for seq, words in chains.items()
                  for w, _ in transfer._eta_matrices(
                      spec, d - 8 * sum(seq), mod)}
        nxt = {}
        for seq, words in chains.items():
            low = {}
            for word, c in words.items():
                for target, cf in maps.pi_word(word, mod):
                    key = (target, seq)
                    out[key] = (out.get(key, 0) + c * cf) % mod
                for w2, cf in maps.h_word(word, mod):
                    low[w2] = (low.get(w2, 0) + c * cf) % mod
            low = {w2: c for w2, c in low.items() if c}
            if low:
                nxt[seq] = low
        chains = nxt
    return out


def _label_runs(spec, s, t, labels):
    """(label, coefficient degree) runs of the small basis at (s, t)."""
    if s < 0 or t % 8:
        return ()
    return tuple((label, t - 8 * n) for n in range(t // 8 + 1)
                 for label in labels(spec, s, n))


def transferred_matrix(spec, s, t, mod, maps):
    """The transferred differential out of (s, t), label-major over the
    coefficient pieces, with its scalars from the series on `maps`."""
    offsets, height = {}, 0
    for label, d in _label_runs(spec, s + 1, t, maps.labels):
        offsets[label] = height
        height += len(coefficient_piece(spec, d))
    src = _label_runs(spec, s, t, maps.labels)
    width = sum(len(coefficient_piece(spec, d)) for _, d in src)
    out = np.zeros((height, width), dtype=np.int64)
    if not width or not height:
        return out
    col = 0
    for label, d in src:
        for (target, seq), c in word_scalars(spec, label, d, mod, maps).items():
            if c:
                prod = transfer._delta_product(spec, d, seq, mod)
                row = offsets[target]
                part = out[row:row + prod.shape[0], col:col + prod.shape[1]]
                part += np.int64(c) * prod
                part %= mod
        col += len(coefficient_piece(spec, d))
    return out
