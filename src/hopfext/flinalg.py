"""Dense linear algebra mod 5^K (numpy-backed, exact); K = 1 is F5.

Internal helper layer.  Matrices are int64 arrays with entries reduced mod
the modulus.  Every elimination -- rref, rank, nullspace, inverse, solve
and the elementary-divisor valuations -- runs on one scalar echelon,
:func:`_echelon`, whose pivots are always 5-units so every division is
exact.  Each step updates only the rows with an entry in the pivot column,
from the pivot row's first nonzero column on, and reduces mod the modulus
only when the int64 bound needs it.  The ``_gf5`` names are the F5 entry
points of the general functions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

# Largest 5-adic precision K the int64/float64 kernels keep exact.  The
# echelon subtracts products of residues, each below 5^(2K), and reduces
# before their running sum could pass 2^63 (at K = 14 one product
# overflows).  The transfer reduces every sum as it goes: each scalar of
# its closed form is a residue below 5^K, and each block add is c * P with
# c and every entry of P below 5^K, reduced after the add, so no int64 sum
# there holds more than one product.  Its delta products go through
# matmul_mod, whose float64 sums stay exact while inner * (5^K - 1)^2 <
# 2^53: at K = 9 that is 2,361 terms, and the largest coefficient piece the
# transfer reaches at t <= 400 has 1,154 monomials (a longer inner
# dimension is summed in chunks).
K_MAX = 9


def _echelon(a: np.ndarray, mod: int, full: bool) -> List[int]:
    """Unit-pivot echelon of `a` in place; returns the pivot columns.

    `a` is int64 with entries in [0, mod).  Each column takes as pivot the
    first row at or below the current one holding a 5-unit; a column with
    none is skipped.  The pivot row is scaled to 1 and cleared from the
    rows below it, and also from the rows above when `full` (reduced row
    echelon form), from its first nonzero column `lo` on, which covers each
    skipped 5-divisible column it is nonzero on.  Only the pivot column and
    row are reduced before use.  A step subtracts at most (mod - 1)^2 from
    an entry, so all of `a` is reduced every `cap` pivots, before any entry
    could pass -2^63 (every 6 at 5^13), and once at the end.  Past 5^13 one
    product overflows, and the modulus is refused (ValueError)."""
    cap = (2 ** 63 - 1 - mod) // (mod - 1) ** 2
    if cap < 1:
        raise ValueError(f"modulus {mod} too large for exact int64 elimination")
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        top = 0 if full else r
        a[top:, j] = a[top:, j] % mod
        nz = np.flatnonzero(a[r:, j] % 5)
        if nz.size == 0:
            continue
        if r and not r % cap:
            a %= mod
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] % mod
        row = a[r]
        lo = int(np.flatnonzero(row[:j + 1])[0])
        inv = pow(int(row[j]), -1, mod)
        if inv != 1:
            row[lo:] = row[lo:] * inv % mod
        if full:
            rows = np.flatnonzero(a[:, j])
            rows = rows[rows != r]
        else:
            rows = r + 1 + np.flatnonzero(a[r + 1:, j])
        if rows.size:
            f = a[rows, j][:, None]
            a[rows, lo:] = a[rows, lo:] - f * row[lo:]
        pivots.append(j)
        r += 1
    a %= mod
    return pivots


def rref_mod(a: np.ndarray, mod: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form with unit pivots; returns (rref, pivot cols).

    Over mod 5 every nonzero entry is a unit.  Over 5^K a column whose
    remaining entries are all divisible by 5 is skipped (callers that need
    unit pivots throughout must check the leftover rows themselves).
    """
    a = np.asarray(a, dtype=np.int64) % mod
    return a, _echelon(a, mod, full=True)


def rank_mod(a: np.ndarray, mod: int) -> int:
    """Number of unit pivots; the rank over F5 when mod is 5."""
    a = np.asarray(a, dtype=np.int64) % mod
    return len(_echelon(a, mod, full=False)) if a.size else 0


def nullspace_mod(a: np.ndarray, mod: int) -> np.ndarray:
    """Columns spanning ker(a) over Z/mod (unit-pivot echelon based).

    For mod 5 this is the full kernel.  For 5^K the result spans the kernel
    only when the echelon terminates without stuck columns; the word-complex
    builder asserts that condition (it holds because those complexes carry no
    5-torsion).
    """
    n = np.shape(a)[1]
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, pivots = rref_mod(a, mod)
    free = np.setdiff1d(np.arange(n), pivots)
    basis = np.zeros((n, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -r[:len(pivots)][:, free] % mod
    return basis


def inv_mod(a: np.ndarray, mod: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    aug = np.concatenate([a % mod, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref_mod(aug, mod)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible (no unit pivot chain)")
    return r[:, n:]


def solve_mod(a: np.ndarray, b: np.ndarray, mod: int) -> Optional[np.ndarray]:
    """Solve a @ x = b (b may have several columns); None if inconsistent.

    Only unit-pivot eliminations are performed, so over 5^K a system that is
    solvable only after dividing by 5 reports None.
    """
    a = np.asarray(a, dtype=np.int64) % mod
    b = np.asarray(b, dtype=np.int64) % mod
    if b.ndim == 1:
        b = b[:, None]
        squeeze = True
    else:
        squeeze = False
    m, n = a.shape
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref_mod(aug, mod)
    pivots = [p for p in pivots if p < n]
    nr = len(pivots)
    if np.any(r[nr:, n:] % mod):
        return None
    # residual rows must vanish entirely (a stuck 5-divisible column would
    # leave residue in the a-part as well, making the solve unreliable)
    if np.any(r[nr:, :n] % mod):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for i, p in enumerate(pivots):
        x[p] = r[i, n:]
    if squeeze:
        x = x[:, 0]
    return x


def diagonal_valuations(mat: np.ndarray, k_power: int) -> List[int]:
    """5-adic valuations of the elementary divisors of a matrix over Z/5^K,
    ascending; a divisor of 5^K or more reads as zero and is not listed.

    The echelon mod 5^(K-v) has one unit pivot per divisor of valuation v.
    The rows below its pivots vanish on the pivot columns and are
    5-divisible on the others, so their quotient by 5, known mod
    5^(K-v-1), carries the remaining divisors, each with one factor of 5
    fewer (a local Smith form by repeated elimination)."""
    a = np.asarray(mat, dtype=np.int64) % 5 ** k_power
    vals: List[int] = []
    for v in range(k_power):
        if not a.any():
            break
        pivots = _echelon(a, 5 ** (k_power - v), full=False)
        vals += [v] * len(pivots)
        a = a[len(pivots):] // 5
    return vals


def matmul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """Exact a @ b mod `mod` through float64 BLAS.

    One float64 product sums at most `step` terms below (mod-1)^2, with
    step * (mod-1)^2 < 2^53, so every partial sum is an exact integer; a
    longer inner dimension is cut into chunks of `step`.  Each sum is
    reduced after conversion to int64, which is several times faster than
    a float64 remainder."""
    step = (2 ** 53 - 1) // (mod - 1) ** 2
    if step == 0:
        raise ValueError("modulus too large for exact float64 accumulation")
    a = (np.asarray(a, dtype=np.int64) % mod).astype(np.float64)
    b = (np.asarray(b, dtype=np.int64) % mod).astype(np.float64)
    out = (a[..., :step] @ b[:step]).astype(np.int64) % mod
    for lo in range(step, a.shape[-1], step):
        part = (a[..., lo:lo + step] @ b[lo:lo + step]).astype(np.int64)
        out = (out + part) % mod
    return out


def rref_gf5(a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """F5 entry point of :func:`rref_mod`."""
    return rref_mod(a, 5)


def rank_gf5(a: np.ndarray) -> int:
    """F5 entry point of :func:`rank_mod`."""
    return rank_mod(a, 5)


def nullspace_gf5(a: np.ndarray) -> np.ndarray:
    """F5 entry point of :func:`nullspace_mod`."""
    return nullspace_mod(a, 5)


def inv_gf5(a: np.ndarray) -> np.ndarray:
    """F5 entry point of :func:`inv_mod`."""
    return inv_mod(a, 5)
