"""Transfer of the cobar differential onto the critical-word basis.

The cobar complex in a fixed internal degree splits coefficient-side
(monomials) against word-side (bar slots).  The word-side part is
contracted by an acyclic matching on words (wordcx); perturbing that
contraction by the coefficient-feeding part delta of the differential
gives a small complex with the same cohomology.  All the large-window
computations (Ext tables, integral structure, spectral sequence pages)
run here.

delta touches only coefficients: it multiplies a chain on a word by a
slot matrix T_w (rows of algebroid.letter_block) and prepends the slot
weight w to the word.  So the perturbation series pi delta sum_k
(h delta)^k iota (Crainic, arXiv math/0403266) sends a source label to
sums c * T_seq at target labels, T_seq applying the slot matrices of a
sequence seq of slot weights in order, and each scalar c is read on words
alone.  The small basis is label-major over the coefficient pieces, and
its labels are the critical words: z letters (5k,), then a critical
bounded word (1, 4)^k [1].  The series sums to a closed form, which
_label_terms lists:

- a z letter (5k,) prepended to any label reaches (5k,) + label with
  scalar 1;
- a label with no z letter and weight n, of length s, also reaches
  critical_word(n + 1) by T_1 with scalar 1 for s even, and
  critical_word(n + 4) by T_1^4 with scalar -1/4! for s odd;
- nothing else.

Why: the maps assemble tensorially over the z-terminated blocks and the
bounded tail of a word, and pi is pi0, which keeps a critical word and
kills the rest.  A (5k,) block is critical, so h kills it; pi sends
(5k,) iota(label) to (5k,) + label, and with h iota = 0, pi h = 0 and
h h = 0 nothing that begins with a prepended z letter survives a further
h.  A letter 5m + j with j >= 1 makes a block that is a lower cell, and a
bounded letter before a z letter (5k,) makes an upper cell that h sends
to the lower cell (w + 5k,); pi kills a word with a lower-cell block and
every word h and later prepends make from it, so these reach no label,
and a label with z letters gets only z terms.  What is left is the series
on the bounded words of a z-free label.  Its target has no z letter and
is critical one level up, so seq has weight 1 for s even and 4 for s odd;
for s even the scalar 1 is the coefficient of (4, 1)^k in
iota((1, 4)^k) = b^k (see wordcx.reduced_contraction).  That (1, 1, 1, 1)
is the only weight-4 sequence with a nonzero scalar for s odd, and that
the scalar is -1/24, is not proved here: tests/test_closed_form.py
compares every term with the series, run word by word in
tests/series_reference.py, at every quotient level for s <= 7, t <= 200
(reduced) and s <= 6, t <= 240 (full).

Each T_seq is memoised per piece degree, so cells that share a piece
share it, and is one float64 BLAS product (flinalg.matmul_mod, exact
under its bound) on its prefix.  In the full presentation cochains are
written in the extended letter alphabet, where z = eta_R(a5), the
right-unit image of the top base generator, occupies its own letter: the
letter of weight w is z^(w div 5) r^(w mod 5), and delta's matrices are
the right-unit block built in letters.  A reduced word is a letter word
with no z letters, so both presentations share one path.

The reduced transferred complex is b-periodic cell by cell, b in
(2, 40).  At length s the one reduced label is critical_word(n), n =
5 floor(s/2) + (s mod 2); at s + 2 it is (1, 4) + that label, of weight
n + 5, so at (s + 2, t + 40) it sits on the same piece of degree t - 8n.
_label_terms reads a reduced label only through the parity of its length
and its weight (the reduced slot weights are 1..4, so no z term), and its
target critical_word(n + 1) or critical_word(n + 4) shifts by (1, 4) in
the same way, onto the same piece.  So transferred_matrix(spec, s + 2,
t + 40, mod) equals transferred_matrix(spec, s, t, mod) entry for entry,
at every quotient level and modulus.  This is a fact about the closed
form as written, not about the cohomology: the odd scalar -1/24 enters
both cells alike, so the key holds whatever the scalar is, and whether
it is the series' scalar is left to tests/test_closed_form.py.
periodic_cell writes the rule once, and the memos that eliminate a cell
(_rank_f5, differential_valuations, bockstein._z_dim) read through it,
so each reduced cell is built and eliminated once.  The full
presentation keeps its own cells: its z-letter labels do not repeat.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .algebroid import (
    AlgebroidSpec,
    coefficient_piece,
    eta_block_offsets,
    letter_block,
)
from .flinalg import diagonal_valuations, matmul_mod, rank_gf5
from .gradedpoly import Monomial
from .invariants import partitions_2345
from .wordcx import critical_word

Word = Tuple[int, ...]
R_DEG = 8


# --- small basis ------------------------------------------------------------

# label: a critical extended word, its z letters then a critical bounded word

@lru_cache(maxsize=None)
def small_word_labels(spec: AlgebroidSpec, s: int, n: int) -> Tuple[Word, ...]:
    """Critical words at word length s and weight n."""
    out = []
    for b in range(0, s + 1 if spec.variant == "full" else 1):
        for zs in _zweight_tuples(b, n):
            tail = critical_word(n - sum(zs))
            if tail is not None and len(tail) == s - b:
                out.append(zs + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _zweight_tuples(b: int, n_max: int) -> Tuple[Tuple[int, ...], ...]:
    if b == 0:
        return ((),)
    out = []
    for w in range(5, n_max + 1, 5):
        for rest in _zweight_tuples(b - 1, n_max - w):
            out.append((w,) + rest)
    return tuple(out)


def _label_runs(spec: AlgebroidSpec, s: int, t: int
                ) -> Tuple[Tuple[Word, int], ...]:
    """(label, coefficient degree) runs of the small basis at (s, t).

    The basis is label-major: each harmonic label of weight n is followed by
    the whole coefficient piece of degree t - 8n."""
    if s < 0 or t % R_DEG:
        return ()
    return tuple((label, t - R_DEG * n) for n in range(t // R_DEG + 1)
                 for label in small_word_labels(spec, s, n))


def small_basis(spec: AlgebroidSpec, s: int, t: int
                ) -> Tuple[Tuple[Word, Monomial], ...]:
    """Deterministic basis of the transferred complex at (s, t)."""
    return tuple((label, mono) for label, d in _label_runs(spec, s, t)
                 for mono in coefficient_piece(spec, d))


def _cochain_dim(spec: AlgebroidSpec, s: int, t: int) -> int:
    """len(small_basis(spec, s, t)), without building the basis."""
    return sum(len(coefficient_piece(spec, d))
               for _, d in _label_runs(spec, s, t))


def periodic_cell(spec: AlgebroidSpec, s: int, t: int) -> Tuple[int, int]:
    """The cell whose transferred differential is the one out of (s, t),
    for t >= 0.

    In the reduced presentation (s, t) steps down by (2, 40) (see the
    module docstring) to (s mod 2, t - 40 floor(s/2)).  The steps stop
    before t goes negative: a cell they stop short on has no label at
    either end, and is represented by an empty cell at t mod 40.  The full
    presentation keeps every cell."""
    if spec.variant == "full":
        return s, t
    j = min(s // 2, t // 40)
    return s - 2 * j, t - 40 * j


# --- the transferred differential (see the module docstring) ---------------

Seq = Tuple[int, ...]


@lru_cache(maxsize=None)
def _eta_matrices(spec: AlgebroidSpec, d: int, mod: int
                  ) -> Tuple[Tuple[int, np.ndarray], ...]:
    """delta on the coefficient piece of degree d, one matrix per slot weight.

    Returns (w, T) pairs: T maps the piece of degree d to the piece of
    degree d - 8w by the weight-w part of the right-unit tail, so delta
    sends a chain on a word to T times it at (w,) + word.  T is the
    letter-weight-w rows of algebroid.letter_block, a view, kept in the
    smallest unsigned dtype that holds a residue; the weight-0 rows die in
    Gamma / (left unit image), and a zero T is left out."""
    block = letter_block(spec, d // R_DEG, mod)
    offsets = eta_block_offsets(spec, d // R_DEG)
    mats = ((w, block[offsets[w]:offsets[w + 1]])
            for w in range(1, len(offsets) - 1))
    return tuple((w, mat) for w, mat in mats if mat.any())


@lru_cache(maxsize=None)
def _delta_product(spec: AlgebroidSpec, d: int, seq: Seq, mod: int
                   ) -> np.ndarray:
    """T_seq on the piece of degree d: the slot matrices of seq applied in
    order, each on the piece its predecessors reach, where _label_terms
    has checked it is nonzero."""
    *head, w = seq
    mat = dict(_eta_matrices(spec, d - R_DEG * sum(head), mod))[w]
    if not head:
        return mat
    prev = _delta_product(spec, d, tuple(head), mod)
    return matmul_mod(mat, prev, mod).astype(mat.dtype)


def _label_terms(spec: AlgebroidSpec, label: Word, d: int, mod: int
                 ) -> Iterator[Tuple[Word, Seq, int]]:
    """(target label, seq, c) of the differential out of one source label
    on the piece of degree d, in the closed form of the module docstring.
    A term is kept only where each slot matrix of seq is nonzero on the
    piece it meets."""
    for w, _ in _eta_matrices(spec, d, mod):
        if w % 5 == 0:
            yield (w,) + label, (w,), 1
    if any(w >= 5 for w in label):
        return
    if len(label) % 2:
        seq, c = (1, 1, 1, 1), -pow(24, -1, mod) % mod
    else:
        seq, c = (1,), 1
    if all(1 in dict(_eta_matrices(spec, d - R_DEG * i, mod))
           for i in range(len(seq))):
        yield critical_word(sum(label) + sum(seq)), seq, c


def transferred_matrix(spec: AlgebroidSpec, s: int, t: int, mod: int
                       ) -> np.ndarray:
    """Matrix of the perturbed differential small(s, t) -> small(s+1, t),
    the sum pi delta (h delta)^k iota over k >= 0, as the sums of
    c * T_seq that _label_terms lists, reduced after every add; a fresh
    array per call, since each caller memoises only what it reads again."""
    offsets: Dict[Word, int] = {}
    height = 0
    for label, d in _label_runs(spec, s + 1, t):
        offsets[label] = height
        height += len(coefficient_piece(spec, d))
    width = _cochain_dim(spec, s, t)
    out = np.zeros((height, width), dtype=np.int64)
    if not width or not height:
        return out
    col = 0
    for label, d in _label_runs(spec, s, t):
        for target, seq, c in _label_terms(spec, label, d, mod):
            row = offsets.get(target)
            if row is None:
                raise AssertionError("projection left the small basis")
            prod = _delta_product(spec, d, seq, mod)
            part = out[row:row + prod.shape[0], col:col + prod.shape[1]]
            part += np.int64(c) * prod
            part %= mod
        col += len(coefficient_piece(spec, d))
    return out


@lru_cache(maxsize=None)
def _rank_f5(spec: AlgebroidSpec, s: int, t: int) -> int:
    """F5 rank of the transferred differential out of (s, t), built and
    ranked once per periodic_cell."""
    cell = periodic_cell(spec, s, t)
    if cell != (s, t):
        return _rank_f5(spec, *cell)
    return rank_gf5(transferred_matrix(spec, s, t, 5))


def ext_dim(spec: AlgebroidSpec, s: int, t: int) -> int:
    """Mod-5 cohomology dimension at (s, t) via the transferred complex."""
    dim = _cochain_dim(spec, s, t)
    if dim == 0:
        return 0
    r_below = _rank_f5(spec, s - 1, t) if s else 0
    return dim - r_below - _rank_f5(spec, s, t)


# --- integral structure -----------------------------------------------------

# 5-adic working precision K: the integral differentials are read mod 5^K.
# certified_free_rank trusts valuations up to K - 2, here 2, one more than
# the exponent-one torsion of H^{s>0} needs; reading at flinalg.K_MAX finds
# the same valuations (test_kpower_ceiling_agrees_with_default).
K_POWER = 4


class PrecisionExhausted(ValueError):
    """Working mod 5^K can no longer tell torsion from free rank."""


def certified_free_rank(dim: int, valuations: Sequence[int], s: int, t: int
                        ) -> int:
    """Free rank of H^{s,t} from its cochain dimension and the elementary
    divisor valuations, read mod 5^K, of the differentials into and out of
    it.

    Raises PrecisionExhausted unless every valuation stays at most K-2, so
    each torsion exponent is exact, and the free rank equals the rational
    rank, so no divisor of 5^K read as zero: rationally H^{s>0} = 0, and
    H^0 is the polynomial ring on c2..c5."""
    if any(v > K_POWER - 2 for v in valuations):
        raise PrecisionExhausted(
            f"torsion precision exhausted at K = {K_POWER}")
    free = dim - len(valuations)
    rational = partitions_2345(t // R_DEG) if s == 0 else 0
    if free != rational:
        raise PrecisionExhausted(
            f"free rank {free} of H^{(s, t)} is not the rational rank"
            f" {rational} at K = {K_POWER}")
    return free


@lru_cache(maxsize=None)
def differential_valuations(spec: AlgebroidSpec, s: int, t: int
                            ) -> Tuple[int, ...]:
    """Elementary divisor valuations, read mod 5^K, of the transferred
    differential out of (s, t), built and eliminated once per
    periodic_cell."""
    cell = periodic_cell(spec, s, t)
    if cell != (s, t):
        return differential_valuations(spec, *cell)
    return tuple(diagonal_valuations(
        transferred_matrix(spec, s, t, 5 ** K_POWER), K_POWER))


def integral_valuations(spec: AlgebroidSpec, s: int, t: int
                        ) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(certified free rank, valuations into, valuations out of) H^{s,t}
    over Z_(5), read mod 5^K on the transferred complex."""
    if spec.quotient_level is not None:
        raise ValueError("integral structure needs the unquotiented spec")
    dim = _cochain_dim(spec, s, t)
    if dim == 0:
        return 0, (), ()
    below = differential_valuations(spec, s - 1, t) if s else ()
    here = differential_valuations(spec, s, t)
    return certified_free_rank(dim, below + here, s, t), below, here


def integral_structure(spec: AlgebroidSpec, s: int, t: int
                       ) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion exponents) of H^{s,t} over Z_(5)."""
    free, below, _ = integral_valuations(spec, s, t)
    return free, tuple(sorted(v for v in below if v > 0))
