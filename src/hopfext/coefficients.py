"""Exact arithmetic over Z_(5) and integer matrix normal forms.

An element of Z_(5) is Python's own rational: an `int`, or a
`fractions.Fraction` whose denominator is prime to 5; being 5-local is
the test v5 >= 0 on that number, not a separate type.  Only the
functions that make a Fraction import `fractions`, each inside its body:
the module loads `decimal`, and every cold run of the CLI would pay for
it at start-up although most never make one.  Everything
downstream (cobar differentials, invariant kernels, torsion extraction)
reduces to the primitives here: the 5-adic valuation `v5`, Smith normal
form with unimodular transforms L, R and the inverse of L, and saturated
integer kernels.  Matrices are numpy
arrays, int64 or `object` (Python ints, past 2^63); both eliminations
read them into Python ints before any arithmetic, since int64 wraps
silently.  Smith normal form is the one exact routine of the symbolic
cobar layer; `kernel_saturated` serves `invariants` only, whose census
prints leading monomials of its exact basis: it eliminates on the matrix
alone and recovers the kernel columns of its unimodular transform by
replaying the logged column operations backwards.  No floating point is
used; the generator table requires exact cancellation of powers of 5 up
to 5^15.
"""

from __future__ import annotations

import operator
from typing import Dict, List, NamedTuple, Tuple

import numpy as np


def v5(x) -> int:
    """5-adic valuation of a nonzero int, numpy integer or Fraction: that of
    the numerator minus that of the denominator; TypeError on anything
    else (a float has no exact valuation)."""
    if type(x) is not int:
        if not hasattr(x, "denominator"):
            raise TypeError(f"no 5-adic valuation of a {type(x).__name__}")
        return v5(operator.index(x.numerator)) - v5(x.denominator)
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(x)
    while n % 5 == 0:
        n //= 5
        v += 1
    return v


class SmithDecomposition(NamedTuple):
    """left_transform @ original @ right_transform is diagonal, and
    left_inverse is the inverse of left_transform; the transforms are
    read-only object arrays."""

    left_transform: np.ndarray
    diagonal: Tuple[int, ...]
    right_transform: np.ndarray
    left_inverse: np.ndarray


def _frozen(rows: List[List[int]], n: int) -> np.ndarray:
    """The n x n list of rows as a read-only object array."""
    out = np.empty((n, n), dtype=object)
    out[...] = rows
    out.flags.writeable = False
    return out


def smith_normal_form(m: np.ndarray) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Diagonal entries are the (nonnegative) elementary divisors, each dividing
    the next nonzero one, with the zero ones left off.  An empty matrix
    yields an empty diagonal.  Every row operation on the left transform is
    mirrored on the left inverse as the inverse column operation, so the
    inverse is never solved for.
    """
    rows, cols = m.shape
    a = m.tolist()
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    linv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]
        for r in linv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        arow, srow = a[dst], a[src]
        for j in range(cols):
            arow[j] += q * srow[j]
        lrow, lsrc = left[dst], left[src]
        for j in range(rows):
            lrow[j] += q * lsrc[j]
        for r in linv:
            r[src] -= q * r[dst]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in right:
            r[dst] += q * r[src]

    t = 0
    n = min(rows, cols)
    while t < n:
        # locate a pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                val = row[j]
                if val != 0 and (best is None or abs(val) < best):
                    best = abs(val)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        clean = True
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = -(a[i][t] // a[t][t])
                addmul_row(i, t, q)
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = -(a[t][j] // a[t][t])
                addmul_col(j, t, q)
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # pivot must divide the whole trailing block
        d = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            row = a[i]
            for j in range(t + 1, cols):
                if row[j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            addmul_row(t, offender, 1)
            continue
        t += 1

    diag = []
    for i in range(n):
        d = a[i][i]
        if d == 0:
            break
        if d < 0:
            # flip sign via the left transform
            for j in range(cols):
                a[i][j] = -a[i][j]
            for j in range(rows):
                left[i][j] = -left[i][j]
                linv[j][i] = -linv[j][i]
            d = -d
        diag.append(d)
    return SmithDecomposition(_frozen(left, rows), tuple(diag),
                              _frozen(right, cols), _frozen(linv, rows))


def kernel_saturated(m: np.ndarray) -> List[Tuple[int, ...]]:
    """Basis of ker(m) ∩ Z^cols, saturated.

    Column elimination with unimodular operations: for each row in turn,
    the columns live there are reduced by Euclid's algorithm until one is
    left, which leaves the active set.  The elimination runs on the matrix
    alone and logs each operation (dst, src, q), column dst += q * column
    src.  With E_i the i-th operation's elementary matrix, the transform is
    T = E_1 ... E_k, m T has its active columns zero, and since T is
    unimodular the columns T[:, active] are a saturated kernel basis.
    They are T S with S = I[:, active], found by replaying the log
    backwards on the rows of S: E_i X adds q * row dst of X to row src,
    a no-op where row dst is zero.  Every decision reads the matrix
    alone, so the basis is the one the forward-tracked transform gives,
    without carrying all cols columns of T through every operation.
    """
    rows, cols = m.shape
    if cols == 0:
        return []
    col_data: List[Dict[int, int]] = [dict() for _ in range(cols)]
    js, rs = np.nonzero(m.T)
    for j, i, val in zip(js.tolist(), rs.tolist(), m.T[js, rs].tolist()):
        col_data[j][i] = val
    active = list(range(cols))
    log: List[Tuple[int, int, int]] = []

    for r in range(rows):
        live = [j for j in active if col_data[j].get(r, 0) != 0]
        if not live:
            continue
        # reduce to a single column with nonzero entry in row r
        while len(live) > 1:
            live.sort(key=lambda j: abs(col_data[j][r]))
            j0 = live[0]
            rest = []
            for j in live[1:]:
                q = -(col_data[j][r] // col_data[j0][r])
                dst = col_data[j]
                for i, val in col_data[j0].items():
                    new = dst.get(i, 0) + q * val
                    if new:
                        dst[i] = new
                    else:
                        dst.pop(i, None)
                log.append((j, j0, q))
                if dst.get(r, 0) != 0:
                    rest.append(j)
            live = [j0] + rest
        active.remove(live[0])

    if any(col_data[j] for j in active):
        # a nonzero column that dodged every pivot row cannot happen
        raise AssertionError("column elimination left a nonzero active column")
    # the nonzero rows of T S by row index, each as {k: entry in column k}
    ts_rows: Dict[int, Dict[int, int]] = {j: {k: 1} for k, j in enumerate(active)}
    for dst, src, q in reversed(log):
        row = ts_rows.get(dst)
        if not row:
            continue
        target = ts_rows.setdefault(src, {})
        for k, val in row.items():
            new = target.get(k, 0) + q * val
            if new:
                target[k] = new
            else:
                del target[k]
    return [tuple(ts_rows.get(i, {}).get(k, 0) for i in range(cols))
            for k in range(len(active))]
