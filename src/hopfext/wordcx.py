"""Fixed-weight word complexes of the cobar construction, contracted in
closed form by an acyclic matching on words.

The cobar differential is the sum of a slot-splitting part (coefficient
untouched) and a coefficient-feeding part.  The splitting part preserves
the total r-weight of the bar word and is block-diagonal over it, so each
weight gives a finite complex of words.  This module contracts those
complexes onto their critical words.  The perturbation series over this
contraction sums to a closed form (see the transfer module docstring), so
the transfer layer reads only critical_word here; tests run the series on
the projection / inclusion / homotopy maps below to check that form.

Two alphabets appear.  The bounded alphabet has one letter of each weight
1..4 (bar slots r..r^4), used for the reduced presentation.  The extended
alphabet has exactly one letter of every positive weight: weight w stands
for the slot z^(w div 5) * r^(w mod 5), where z is the right-unit image of
the top base generator.  z is coproduct-passive, so extended words factor
into z-terminated blocks followed by a bounded tail, and the whole complex
is a tensor product of small pieces.

The contraction is algebraic discrete Morse theory (Skoldberg, Trans. AMS
358 (2006); Jollenbeck-Welker, Mem. AMS 197 (2009)) for this matching:

- bounded word: skip its leading (1, 4) pairs and read the next letter.  A
  letter a >= 2 makes the word the lower cell, matched with the split
  (1, a - 1) of that letter at coefficient -+a; a 1 followed by b <= 3
  makes it the upper cell, matched with the merge 1 + b.  The words left,
  (1, 4)^k and (1, 4)^k 1, are critical.
- block word ending in H = 5m + j: for j >= 1 it is the lower cell,
  matched with the split (j, H - j) at coefficient +-1; for j = 0 and more
  than one letter it is the upper cell; (W,) with 5 | W is critical.

Every matched coefficient is a 5-unit, so one construction serves F5 and
every Z/5^K.  With h0 the inverse of the matched part (an upper word to its
lower partner) and delta the differential minus the matched part, the
perturbation lemma gives

    h = h0 - h delta h0,   pi = pi0 - pi delta h0,
    iota = sum_k (-h0 delta)^k   on critical words,

so d h + h d = 1 - iota pi with h h = 0, pi h = 0 and h iota = 0.  No
critical word appears in any delta h0 of this matching, so pi is pi0.  The
maps are read one word at a time and memoised per (word, modulus): no word
basis is enumerated and nothing is eliminated.  The recursion is shallow:
the only upper words in delta h0 of an upper word split a letter of its
leading (1, 4) pairs, so each step has fewer such pairs and h recurses at
most s / 2 deep at level s (block words do not recurse at all).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .cobar import compositions
from .flinalg import nullspace_gf5, rank_gf5, rref_gf5

Word = Tuple[int, ...]

CAP = 4


def letter_splits(w: int) -> List[Tuple[int, int, int]]:
    """Interior splits of the single weight-w letter.

    Returns (binomial, left weight, right weight) triples: the left part is
    always a bounded letter, and a z power never leaves its slot."""
    if w >= 5:
        j = w % 5
        stop = j + 1
    else:
        j = w
        stop = j
    return [(comb(j, i), i, w - i) for i in range(1, stop)]


def word_d_entries(word: Word) -> Dict[Word, int]:
    """Splitting differential of a single word, signs local to the word."""
    out: Dict[Word, int] = {}
    for i, w in enumerate(word):
        sign = -1 if (i + 1) % 2 else 1
        for cf, a, b in letter_splits(w):
            key = word[:i] + (a, b) + word[i + 1:]
            out[key] = out.get(key, 0) + sign * cf
    return {k: v for k, v in out.items() if v % 5}


@lru_cache(maxsize=None)
def reduced_words(n: int, s: int) -> Tuple[Word, ...]:
    return tuple(compositions(n, s, CAP))


def word_matrix(src: Tuple[Word, ...], dst: Tuple[Word, ...], mod: int
                ) -> np.ndarray:
    idx = {w: i for i, w in enumerate(dst)}
    m = np.zeros((len(dst), len(src)), dtype=np.int64)
    for j, w in enumerate(src):
        for k, v in word_d_entries(w).items():
            m[idx[k], j] = v % mod
    return m


# --- the Morse contraction (see the module docstring) ----------------------

class MatchingError(ArithmeticError):
    """A matched pair whose coefficient is not a 5-unit: h0 cannot invert
    it over Z/5^K, so the matching does not contract the complex."""


def critical_word(n: int) -> Optional[Word]:
    """The critical bounded word of weight n: (1, 4)^k for n = 5k,
    (1, 4)^k 1 for n = 5k + 1, and none for other weights."""
    k, j = divmod(n, 5)
    return (1, 4) * k + (1,) * j if j < 2 else None


def _match(word: Word) -> Optional[Tuple[Word, bool]]:
    """The partner of a word and whether the word is the upper (longer)
    cell of the pair; None for a critical word."""
    if word and word[-1] >= 5:
        j = word[-1] % 5
        if j:
            return word[:-1] + (j, word[-1] - j), False
        if len(word) > 1:
            return word[:-2] + (word[-2] + word[-1],), True
        return None
    p = 0
    while word[p:p + 2] == (1, 4):
        p += 2
    if word[p:] in ((), (1,)):
        return None
    if word[p] >= 2:
        return word[:p] + (1, word[p] - 1) + word[p + 1:], False
    return word[:p] + (1 + word[p + 1],) + word[p + 2:], True


def _h0(word: Word, mod: int) -> Optional[Tuple[Word, int]]:
    """h0 of an upper word: its lower partner and the inverse of the
    matched coefficient; None on every other word."""
    pair = _match(word)
    if pair is None or not pair[1]:
        return None
    lower = pair[0]
    cf = word_d_entries(lower).get(word, 0)
    if cf % 5 == 0:
        raise MatchingError(f"matched coefficient {cf} of {lower} -> {word}"
                            " is not a 5-unit")
    return lower, pow(cf, -1, mod)


def _delta(word: Word) -> Dict[Word, int]:
    """The differential of a word minus its matched term."""
    out = word_d_entries(word)
    pair = _match(word)
    if pair is not None and not pair[1]:
        out.pop(pair[0], None)
    return out


def _add(acc: Dict[Word, int], terms: Dict[Word, int], cf: int,
         mod: int) -> None:
    for w, c in terms.items():
        acc[w] = (acc.get(w, 0) + cf * c) % mod


def _nonzero(terms: Dict[Word, int]) -> Dict[Word, int]:
    return {w: c for w, c in terms.items() if c}


class Contraction(NamedTuple):
    """The Morse maps at one word of level s: h(word) at level s - 1, pi
    (word) on the critical words and iota pi (word) at level s, each as
    {word: coefficient mod the modulus}.  For a critical word, pi is the
    word itself and proj is its iota."""

    h: Dict[Word, int]
    pi: Dict[Word, int]
    proj: Dict[Word, int]

    @property
    def words(self) -> Dict[str, Tuple[Word, ...]]:
        """The words each map reaches."""
        return {"h": tuple(self.h), "pi": tuple(self.pi),
                "proj": tuple(self.proj)}


def _contract(word: Word, mod: int,
              entry: Callable[[Word, int], Contraction]) -> Contraction:
    """The Morse maps at one word; h recurses through `entry`, the cached
    entry point of the word's complex.  pi is pi0: it is the word itself
    on a critical word and vanishes on the others."""
    step = _h0(word, mod)
    if step is not None:
        lower, inv = step
        h = {lower: inv}
        for y, cf in _delta(lower).items():
            pair = _match(y)
            if pair is not None and pair[1]:  # h vanishes off upper words
                _add(h, entry(y, mod).h, -inv * cf, mod)
        return Contraction(_nonzero(h), {}, {})
    if _match(word) is not None:
        return Contraction({}, {}, {})
    iota, term = {word: 1}, {word: 1}
    while term:
        nxt: Dict[Word, int] = {}
        for w, c in term.items():
            for y, cf in _delta(w).items():
                step = _h0(y, mod)
                if step is not None:
                    x, inv = step
                    nxt[x] = (nxt.get(x, 0) - c * cf * inv) % mod
        term = _nonzero(nxt)
        _add(iota, term, 1, mod)
    return Contraction({}, {word: 1}, _nonzero(iota))


@lru_cache(maxsize=None)
def reduced_contraction(word: Word, mod: int) -> Contraction:
    """The Morse maps at a bounded word.  Its critical words are
    critical_word(n) at each weight n, and iota of (1, 4)^k [1] is
    b^k [1] with b = (1, 4) + 2 (2, 3) + 2 (3, 2) + (4, 1)."""
    return _contract(word, mod, reduced_contraction)


@lru_cache(maxsize=None)
def block_contraction(word: Word, mod: int) -> Contraction:
    """The Morse maps at a block word (last letter carries z), in closed
    form: pi vanishes on every block word but the bare z power (W,) with
    5 | W, which is its own iota; h sends (p, 5m) with p nonempty to
    (-1)^len(p) (p[:-1], p[-1] + 5m) and every other block word to 0."""
    return _contract(word, mod, block_contraction)


@lru_cache(maxsize=None)
def _reduced_rank(n: int, s: int) -> int:
    src = reduced_words(n, s)
    dst = reduced_words(n, s + 1)
    if not src or not dst:
        return 0
    return rank_gf5(word_matrix(src, dst, 5))


def reduced_word_h_dim(n: int, s: int) -> int:
    """Mod-5 cohomology dimension of the bounded word complex at (s, n).

    This is the full cobar cohomology of the top quotient, where the
    coefficient part of the differential vanishes.  Computed by dense
    ranks over the word bases, so it is only practical while those stay
    small (word dimension peaks around n ~ 5s/2); use dual_h_dim for
    large windows.  An independent check of the critical words."""
    dim = len(reduced_words(n, s))
    if dim == 0:
        return 0
    below = _reduced_rank(n, s - 1) if s > 0 else 0
    return dim - below - _reduced_rank(n, s)


# --- minimal resolution over the dual algebra -------------------------------
#
# The weight complex above is the cobar complex of the coalgebra
# F5[r]/r^5, whose graded dual is the algebra B = F5[x]/x^5 with |x| = 8.
# Cobar cohomology therefore equals Ext_B(F5, F5), which we compute by
# building a minimal free resolution of F5 over B degree by degree: by
# minimality, the number of stage-s generators in internal degree t is
# the cohomology dimension at (s, t).  Every graded piece of B is one-
# dimensional, so the matrices involved stay tiny at every s and t, in
# contrast to the word bases.

X_DEG = 8  # internal degree of the dual generator


def _piece_basis(degs: Tuple[int, ...], D: int) -> List[Tuple[int, int]]:
    return [(i, e) for i, d in enumerate(degs)
            for e in range(0, CAP + 1) if d + X_DEG * e == D]


@lru_cache(maxsize=None)
def _resolution_stages(s_max: int, t_max: int) -> Tuple[Tuple[int, ...], ...]:
    """Generator degrees of each stage of a minimal resolution of F5 over
    B = F5[x]/x^5, truncated to internal degree t_max."""
    stages: List[Tuple[int, ...]] = [(0,)]
    # images[i] = the element of the previous stage that generator i maps
    # to, as {(component, x-exponent): coefficient}; stage 0 maps to F5
    # by the augmentation, represented with an empty image.
    images: List[Dict[Tuple[int, int], int]] = [{}]
    for s in range(1, s_max + 1):
        prev_degs = stages[-1]
        new_degs: List[int] = []
        new_images: List[Dict[Tuple[int, int], int]] = []
        kernels: Dict[int, np.ndarray] = {}
        for D in range(0, t_max + 1, X_DEG):
            basis = _piece_basis(prev_degs, D)
            if not basis:
                continue
            if s == 1:
                # kernel of the augmentation: everything with e >= 1
                ker_cols = [k for k, (_, e) in enumerate(basis) if e >= 1]
                ker = np.zeros((len(basis), len(ker_cols)), dtype=np.int64)
                for c, k in enumerate(ker_cols):
                    ker[k, c] = 1
            else:
                below = _piece_basis(stages[-2], D)
                idx = {key: k for k, key in enumerate(below)}
                mat = np.zeros((len(below), len(basis)), dtype=np.int64)
                for col, (i, e) in enumerate(basis):
                    for (j, e2), c in images[i].items():
                        if e + e2 <= CAP:
                            mat[idx[(j, e + e2)], col] = c % 5
                ker = nullspace_gf5(mat)
            kernels[D] = ker
            # quotient by x * (kernel one degree down)
            old = kernels.get(D - X_DEG)
            cols = []
            if old is not None and old.size:
                down = _piece_basis(prev_degs, D - X_DEG)
                idx_up = {key: k for k, key in enumerate(basis)}
                shifted = np.zeros((len(basis), old.shape[1]), dtype=np.int64)
                for row, (i, e) in enumerate(down):
                    if e + 1 <= CAP:
                        shifted[idx_up[(i, e + 1)]] += old[row]
                cols.append(shifted % 5)
            cols.append(ker)
            combo = np.concatenate(cols, axis=1)
            _, piv = rref_gf5(combo)
            nb = combo.shape[1] - ker.shape[1]
            for p in piv:
                if p < nb:
                    continue
                vec = ker[:, p - nb]
                new_degs.append(D)
                new_images.append({basis[k]: int(vec[k]) % 5
                                   for k in range(len(basis)) if vec[k] % 5})
        stages.append(tuple(new_degs))
        images = new_images
    return tuple(stages)


def dual_h_dim(s: int, t: int) -> int:
    """Cohomology dimension at (s, t) of the top-quotient cobar complex,
    via the minimal resolution over the dual algebra.  Agrees with
    reduced_word_h_dim(t // 8, s) wherever both are computed.  The cached
    resolution reaches at least degree 400, so the calls of a window share
    one."""
    stages = _resolution_stages(max(s, 1) if s else 0, max(t, 400))
    if s >= len(stages):
        return 0
    return sum(1 for d in stages[s] if d == t)
