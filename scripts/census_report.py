#!/usr/bin/env python3
"""Print the invariant-ring generator census next to the tabulated
generator list: for each degree, the free rank, the number of fresh
generators the minimal (Nakayama) census finds, and the names of the
tabulated elements of that degree.

Usage: census_report.py [--tmax T]

T defaults to the kernel ceiling H0_T_CEILING; a larger T is a usage
error (exit 2), as for `hopfext invariants`.
"""

import argparse

from hopfext.invariants import (H0_T_CEILING, hilbert_h0, new_generators,
                                table1_records)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=int, default=H0_T_CEILING)
    args = ap.parse_args()
    if args.tmax > H0_T_CEILING:
        ap.error(f"--tmax needs T <= {H0_T_CEILING}, the largest degree"
                 " whose kernels are tractable")

    by_degree = {}
    for rec in table1_records():
        by_degree.setdefault(rec.degree, []).append(rec.name)
    ranks = dict(hilbert_h0(args.tmax))
    print(f"{'t':>4}  {'rank':>4}  {'new':>3}  named")
    for t in range(8, args.tmax + 1, 8):
        count, _ = new_generators(t)
        names = ", ".join(by_degree.get(t, []))
        print(f"{t:>4}  {ranks[t]:>4}  {count:>3}  {names}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
