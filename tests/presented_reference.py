"""The full-matrix Hilbert function of the presented algebra: the oracle
hopfext.v1algebra.presented_dim is checked against.

Every multiple of every relation is a dense row over all monomials of
the piece, and the piece's dimension is the number of monomials minus
one rank of that matrix.  Monomial and polynomial relations are treated
alike, so nothing here depends on which relations are monomials."""

import numpy as np

from hopfext import v1algebra
from hopfext.flinalg import rank_mod


def presented_dim_dense(s, t, completed=False):
    """Dimension of the (s, t) piece, read from the relation lists at
    call time so that a test may patch them."""
    monos = v1algebra._monomials(s, t)
    if not monos:
        return 0
    idx = {m: i for i, m in enumerate(monos)}
    relations = v1algebra.RELATIONS
    if completed:
        relations = relations + v1algebra.COMPLETION
    rows = []
    for rel in relations:
        rs, rt = v1algebra._bidegree(next(iter(rel)))
        for m in v1algebra._monomials(s - rs, t - rt):
            row = np.zeros(len(monos), dtype=np.int64)
            for rm, c in rel.items():
                shifted = tuple(a + b for a, b in zip(rm, m))
                row[idx[shifted]] = c % 5
            rows.append(row)
    if not rows:
        return len(monos)
    return len(monos) - rank_mod(np.array(rows, dtype=np.int64), 5)
