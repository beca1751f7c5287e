"""Hilbert function of the presented answer algebra for the mod-I1 tower.

The algebra is F5[a, b, x1, a2, y, z, D] on bidegrees (s, t)
  a: (1, 8)   x1: (1, 40)   b: (2, 40)
  a2: (0, 16)  y = [a3^2]: (0, 48)  z = [a3^5]: (0, 120)  D: (0, 160)
modulo the relations
  a^2, a*x1, x1^2, a*a2, a*z, a2^2*b, a2^2*x1, b*z, b*y^2,
  y^5 - z^2 - a2^3*y^4 - a2^6*y^3 - 2*a2^5*D,
  2*a*y - a2*x1.
Only the two odd classes square to zero, so a plain commutative monomial
model is adequate.

All but two relations are single monomials, and the multiples of a
monomial span exactly the coordinate vectors of the monomials it
divides.  So each bigraded piece is counted in two steps: the monomials
of that bidegree that no monomial relation divides are the live ones,
and the multiples of the two polynomial relations, restricted to the
live monomials, are ranked over F5.  The dimension is the number of live
monomials minus that rank (the standard-monomial count of Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, ch. 9 sec. 3, plus the
two polynomial relations).

The stated relation list leaves a few products alive that are exact in
the cobar complex; the completed list adds the three monomial relations
x1*y, x1*z and a2*b*y, after which the Hilbert function agrees with the
computed cohomology on the whole window s <= 6, t <= 400 (see
presented_dim's `completed` flag).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .flinalg import rank_mod

# exponent order: (a, x1, b, a2, y, z, D)
GEN_S = (1, 1, 2, 0, 0, 0, 0)
GEN_T = (8, 40, 40, 16, 48, 120, 160)

Mono = Tuple[int, ...]

RELATIONS: Tuple[Dict[Mono, int], ...] = (
    {(2, 0, 0, 0, 0, 0, 0): 1},
    {(1, 1, 0, 0, 0, 0, 0): 1},
    {(0, 2, 0, 0, 0, 0, 0): 1},
    {(1, 0, 0, 1, 0, 0, 0): 1},
    {(1, 0, 0, 0, 0, 1, 0): 1},
    {(0, 0, 1, 2, 0, 0, 0): 1},
    {(0, 1, 0, 2, 0, 0, 0): 1},
    {(0, 0, 1, 0, 0, 1, 0): 1},
    {(0, 0, 1, 0, 2, 0, 0): 1},
    {(0, 0, 0, 0, 5, 0, 0): 1, (0, 0, 0, 0, 0, 2, 0): -1,
     (0, 0, 0, 3, 4, 0, 0): -1, (0, 0, 0, 6, 3, 0, 0): -1,
     (0, 0, 0, 5, 0, 0, 1): -2},
    {(1, 0, 0, 0, 1, 0, 0): 2, (0, 1, 0, 1, 0, 0, 0): -1},
)

# products that the relation list above misses but that vanish in the
# cobar complex: x1*y, x1*z, a2*b*y
COMPLETION: Tuple[Dict[Mono, int], ...] = (
    {(0, 1, 0, 0, 1, 0, 0): 1},
    {(0, 1, 0, 0, 0, 1, 0): 1},
    {(0, 0, 1, 1, 1, 0, 0): 1},
)


def _bidegree(m: Mono) -> Tuple[int, int]:
    return (sum(e * g for e, g in zip(m, GEN_S)),
            sum(e * g for e, g in zip(m, GEN_T)))


@lru_cache(maxsize=None)
def _monomials(s: int, t: int, i: int = 0) -> Tuple[Mono, ...]:
    """Exponent vectors of bidegree (s, t), in lexicographic order.

    With i > 0, the exponents of generators i.. alone.  Each piece is
    built from the pieces of generators i+1.., one per exponent of
    generator i in ascending order, so it comes out sorted."""
    if s < 0 or t < 0:
        return ()
    if i == len(GEN_T):
        return ((),) if s == t == 0 else ()
    gs, gt = GEN_S[i], GEN_T[i]
    cap = min(t // gt, s // gs) if gs else t // gt
    return tuple((e,) + rest for e in range(cap + 1)
                 for rest in _monomials(s - e * gs, t - e * gt, i + 1))


def _is_monomial(rel: Dict[Mono, int]) -> bool:
    """One term, with a coefficient that is a unit mod 5."""
    return len(rel) == 1 and next(iter(rel.values())) % 5 != 0


def presented_dim(s: int, t: int, completed: bool = False) -> int:
    """Dimension of the (s, t) piece of the presented algebra.

    With completed=True the three extra vanishing products are imposed
    as well; this is the version that matches the cobar computation.
    """
    monos = _monomials(s, t)
    if not monos:
        return 0
    relations = RELATIONS + COMPLETION if completed else RELATIONS
    kills = [m for rel in relations if _is_monomial(rel) for m in rel]
    # column of each monomial among the live ones, those that no monomial
    # relation divides; -1 for a dead one
    col = {}
    live = 0
    for m in monos:
        if any(all(map(operator.ge, m, k)) for k in kills):
            col[m] = -1
        else:
            col[m] = live
            live += 1
    if not live:
        return 0
    rows = []
    for rel in relations:
        if _is_monomial(rel):
            continue
        rs, rt = _bidegree(next(iter(rel)))
        for m in _monomials(s - rs, t - rt):
            row = [0] * live
            for rm, c in rel.items():
                # a term off the piece raises: rel is not bihomogeneous
                j = col[tuple(a + b for a, b in zip(rm, m))]
                if j >= 0:
                    row[j] = c % 5
            if any(row):
                rows.append(row)
    if not rows:
        return live
    return live - rank_mod(np.array(rows, dtype=np.int64), 5)
