"""The tracked-transform saturated kernel: the oracle
hopfext.coefficients.kernel_saturated is checked against.

Column elimination with unimodular operations carries the whole transform
T along, one dense column of T per column of the matrix, through every
operation; the columns of T that end on zeroed-out columns of the matrix
are the kernel basis."""

from typing import Dict, List, Tuple

import numpy as np


def kernel_saturated_tracked(m: np.ndarray) -> List[Tuple[int, ...]]:
    """Basis of ker(m) ∩ Z^cols, saturated.

    Column elimination with unimodular operations, tracking the transform;
    columns of the transform hitting zeroed-out columns form the kernel
    lattice, which is automatically saturated because the transform is
    unimodular.
    """
    rows, cols = m.shape
    if cols == 0:
        return []
    col_data: List[Dict[int, int]] = [dict() for _ in range(cols)]
    for i, row in enumerate(m.tolist()):
        for j, val in enumerate(row):
            if val:
                col_data[j][i] = val
    transform: List[Dict[int, int]] = [{j: 1} for j in range(cols)]
    active = list(range(cols))

    def addmul(dst: int, src: int, q: int):
        for i, val in col_data[src].items():
            new = col_data[dst].get(i, 0) + q * val
            if new:
                col_data[dst][i] = new
            else:
                col_data[dst].pop(i, None)
        for i, val in transform[src].items():
            new = transform[dst].get(i, 0) + q * val
            if new:
                transform[dst][i] = new
            else:
                transform[dst].pop(i, None)

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
                addmul(j, j0, q)
                if col_data[j].get(r, 0) != 0:
                    rest.append(j)
            live = [j0] + rest
        active.remove(live[0])

    out = []
    for j in active:
        if col_data[j]:
            # nonzero column that dodged every pivot row cannot happen
            raise AssertionError("column elimination left a nonzero active column")
        vec = tuple(transform[j].get(i, 0) for i in range(cols))
        out.append(vec)
    return out
