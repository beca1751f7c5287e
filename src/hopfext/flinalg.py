"""Dense linear algebra mod 5 and mod 5^K (numpy-backed, exact).

Internal helper layer.  Matrices are int64 arrays with entries reduced mod
the modulus; pivots are always 5-units so every division is exact.  The one
performance-critical entry point is :func:`rank_gf5`, a blocked elimination
whose trailing updates run as float32 GEMMs (entries stay below 2^24, so the
float arithmetic is exact).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

_INV5 = (0, 1, 3, 2, 4)

# Largest 5-adic precision K the int64/float64 kernels keep exact.  One
# product of entries is below 5^(2K), and transfer._delta sums many before
# it reduces: at K = 9 about 2.4e6 sums of 5^18 stay below 2^63, and
# matmul_mod's float64 bound inner * (5^K - 1)^2 < 2^53 holds for inner
# dimensions up to 2,361.  (At K = 14 one product overflows int64.)
K_MAX = 9


def _inv_unit(x: int, mod: int) -> int:
    return pow(int(x) % mod, -1, mod)


def rref_mod(a: np.ndarray, mod: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form with unit pivots; returns (rref, pivot cols).

    Over mod 5 every nonzero entry is a unit.  Over 5^K a column whose
    remaining entries are all divisible by 5 is skipped (callers that need
    unit pivots throughout must check the leftover rows themselves).
    """
    a = np.asarray(a, dtype=np.int64) % mod
    a = a.copy()
    m, n = a.shape
    pivots: List[int] = []
    r = 0
    for j in range(n):
        if r >= m:
            break
        col = a[r:, j]
        nz = np.nonzero(col % 5)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_unit(a[r, j], mod)) % mod
        col = a[:, j].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % mod
        pivots.append(j)
        r += 1
    return a, pivots


def rank_mod(a: np.ndarray, mod: int = 5) -> int:
    if a.size == 0:
        return 0
    _, pivots = rref_mod(a, mod)
    return len(pivots)


def nullspace_mod(a: np.ndarray, mod: int) -> np.ndarray:
    """Columns spanning ker(a) over Z/mod (unit-pivot echelon based).

    For mod 5 this is the full kernel.  For 5^K the result spans the kernel
    only when the echelon terminates without stuck columns; the word-complex
    builder asserts that condition (it holds because those complexes carry no
    5-torsion).
    """
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, pivots = rref_mod(a, mod)
    free = sorted(set(range(n)) - set(pivots))
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for i, p in enumerate(pivots):
            basis[p, k] = (-r[i, f]) % mod
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


def matmul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """Exact a @ b mod `mod` through float64 BLAS.

    Valid while inner_dim * (mod-1)^2 stays below 2^53; asserted."""
    a = np.asarray(a, dtype=np.int64) % mod
    b = np.asarray(b, dtype=np.int64) % mod
    inner = a.shape[1] if a.ndim == 2 else a.shape[0]
    if inner * (mod - 1) ** 2 >= 2 ** 53:
        raise ValueError("modulus too large for exact float64 accumulation")
    return ((a.astype(np.float64) @ b.astype(np.float64)) % mod).astype(np.int64)


def rref_gf5(a: np.ndarray, block: int = 128) -> Tuple[np.ndarray, List[int]]:
    """Blocked reduced row echelon form over F5 (full Gauss-Jordan).

    Scalar elimination runs inside column panels; the trailing matrix is
    updated with float32 GEMMs (entries < 5, inner dim <= block, so sums
    stay below 2^24 and the float arithmetic is exact)."""
    A = (np.asarray(a) % 5).astype(np.float32)
    m, n = A.shape
    if A.size == 0:
        return A.astype(np.int64), []
    pivots: List[int] = []
    r = 0
    j0 = 0
    while j0 < n:
        jb = min(block, n - j0)
        panel = A[:, j0:j0 + jb].copy()
        swaps: List[Tuple[int, int]] = []
        pivcols: List[int] = []
        q = r
        for j in range(jb):
            if q >= m:
                break
            col = panel[q:, j]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            i = q + int(nz[0])
            if i != q:
                panel[[q, i]] = panel[[i, q]]
                swaps.append((q, i))
            inv = _INV5[int(panel[q, j])]
            if inv != 1:
                panel[q] = (panel[q] * inv) % 5
            colv = panel[:, j].copy()
            colv[q] = 0.0
            rows = np.nonzero(colv)[0]
            if rows.size:
                panel[rows] = (panel[rows] - np.outer(colv[rows], panel[q])) % 5
            pivots.append(j0 + j)
            pivcols.append(j)
            q += 1
        k = q - r
        for (x, y) in swaps:
            A[[x, y]] = A[[y, x]]
        if k and j0 + jb < n:
            # original (swapped, not yet eliminated) panel pivot columns are
            # the multipliers for the trailing update
            P = A[:, j0 + np.array(pivcols)]
            inv_top = inv_mod(P[r:r + k].astype(np.int64), 5).astype(np.float32)
            trail = A[:, j0 + jb:]
            w = (inv_top @ trail[r:r + k]) % 5
            trail[r:r + k] = w
            sel = np.ones(m, dtype=bool)
            sel[r:r + k] = False
            Pb = P[sel]
            if Pb.shape[0]:
                trail[sel] = (trail[sel] - Pb @ w) % 5
        A[:, j0:j0 + jb] = panel
        r += k
        j0 += jb
    return A.astype(np.int64), pivots


def nullspace_gf5(a: np.ndarray, block: int = 128) -> np.ndarray:
    """Columns spanning ker(a) over F5, via the blocked RREF."""
    a = np.asarray(a)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, piv = rref_gf5(a, block)
    free = sorted(set(range(n)) - set(piv))
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[f, idx] = 1
    if piv and free:
        basis[np.array(piv), :] = (-r[:len(piv)][:, free]) % 5
    return basis


def inv_gf5(a: np.ndarray, block: int = 128) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64) % 5
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    r, piv = rref_gf5(aug, block)
    if piv != list(range(n)):
        raise ValueError("matrix is not invertible over F5")
    return r[:, n:]


def rank_gf5(a: np.ndarray, block: int = 128) -> int:
    """Rank over F5 of a large dense matrix, blocked for GEMM speed."""
    if a.size == 0:
        return 0
    A = (np.asarray(a) % 5).astype(np.float32)
    m, n = A.shape
    r = 0
    j0 = 0
    while j0 < n and r < m:
        jb = min(block, n - j0)
        panel = A[r:, j0:j0 + jb]
        orig = panel.copy()
        swaps: List[Tuple[int, int]] = []
        pivcols: List[int] = []
        q = 0
        for j in range(jb):
            col = panel[q:, j]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            i = q + int(nz[0])
            if i != q:
                panel[[q, i]] = panel[[i, q]]
                swaps.append((q, i))
            inv = _INV5[int(panel[q, j])]
            if inv != 1:
                panel[q] = (panel[q] * inv) % 5
            col = panel[:, j].copy()
            col[q] = 0.0
            rows = np.nonzero(col)[0]
            if rows.size:
                panel[rows] = (panel[rows] - np.outer(col[rows], panel[q])) % 5
            pivcols.append(j)
            q += 1
        k = q
        if k and j0 + jb < n:
            for (x, y) in swaps:
                orig[[x, y]] = orig[[y, x]]
            trail = A[r:, j0 + jb:]
            for (x, y) in swaps:
                trail[[x, y]] = trail[[y, x]]
            p0 = orig[:, pivcols]
            p0a = p0[:k]
            p0b = p0[k:]
            inv_top = inv_mod(p0a.astype(np.int64), 5).astype(np.float32)
            w = (inv_top @ trail[:k]) % 5
            trail[:k] = w
            if p0b.shape[0]:
                # float32 GEMM: entries < 5, inner dim <= block, sums < 2^24
                trail[k:] = (trail[k:] - p0b @ w) % 5
        elif k:
            pass
        r += k
        j0 += jb
    return r
