"""The divided-power construction of the exact right-unit blocks of the
full presentation: the oracle hopfext.algebroid.eta_block(FULL, n) is
checked against.

eta_R is the translation x -> x + r of the quintic, so over Z_(5) it is
exp(rD) for the derivation D(a_i) = (6 - i) a_(i-1), a_0 = 1, and its r^e
coefficient is D^e / e! (a Hasse-Schmidt system).  So the r^0 rows of the
weight-n block are the identity, and its r^e rows are the r^(e - 1) rows
of the weight-(n - 1) block times D, divided exactly by e.  D is
hopfext.invariants._derivation_matrix, the matrix the invariance test and
the H^0 kernels read."""

from functools import lru_cache

import numpy as np

from hopfext.algebroid import AlgebroidSpec, eta_block_offsets
from hopfext.invariants import _derivation_matrix

FULL = AlgebroidSpec("full")
_INT64_MAX = 2 ** 63 - 1


@lru_cache(maxsize=None)
def translation_block(n: int) -> np.ndarray:
    """The exact weight-n block of the full presentation as exp(rD), in
    int64.  Each product by D is a sum of at most five terms per entry
    (one per generator), so it is exact in int64 when the largest column
    sum of D times the largest |entry| of the weight n - 1 block is at most
    2^63 - 1; past that bound, and on a remainder in the division by e,
    it raises AssertionError."""
    if n == 0:
        return np.ones((1, 1), np.int64)
    prev = translation_block(n - 1)
    d = _derivation_matrix(8 * n)
    assert int(d.sum(axis=0).max()) * int(np.abs(prev).max()) <= _INT64_MAX, n
    width = d.shape[1]
    out = np.zeros((eta_block_offsets(FULL, n)[-1], width), np.int64)
    np.fill_diagonal(out, 1)
    # the rows of prev at r-exponent e - 1 become the exponent-e rows
    moved = out[width:]
    for i, j in zip(*np.nonzero(d)):
        moved[:, j] += prev[:, i] * d[i, j]
    low = eta_block_offsets(FULL, n - 1)
    exps = np.repeat(np.arange(1, len(low)), np.diff(low))[:, None]
    assert not (moved % exps).any(), n
    moved //= exps
    return out
