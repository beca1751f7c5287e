"""One cold workload process.

    python3 child.py --src DIR --report-fd N [--trace [--spans FILE]] -- ARGV...

Imports numpy and notes the time (the end of the calibration, calib_s),
imports every module of the hopfext package found under DIR and notes the
time again (the end of set-up), runs ARGV through the CLI entry point (or the
``v1-hilbert`` library workload), and writes a small JSON report to file
descriptor N.  The program's output goes to stdout unchanged; the parent
hashes it.  With --trace the layer functions are wrapped first and the
per-layer summary is added to the report; --spans also writes every span.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import random
import sys
import time


def _import_package(src: str):
    sys.path.insert(0, src)
    pkg = importlib.import_module("hopfext")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(os.path.abspath(src), "hopfext"):
        raise SystemExit(f"hopfext imported from {where}, not from {src}")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"hopfext.{info.name}")
    return pkg


def v1_hilbert(argv) -> int:
    """presented_dim(s, t, completed=True) on every cell of a window.

    The seed shuffles the order the cells are computed in; the output is
    json.dumps of the [[s, t, dim], ...] list in s-major order, so it does
    not depend on the seed."""
    p = argparse.ArgumentParser(prog="v1-hilbert")
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    from hopfext.v1algebra import presented_dim
    cells = [(s, t) for s in range(args.smax + 1)
             for t in range(0, args.tmax + 1, 8)]
    order = list(cells)
    random.Random(args.seed).shuffle(order)
    dims = {c: presented_dim(c[0], c[1], completed=True) for c in order}
    sys.stdout.write(json.dumps([[s, t, dims[s, t]] for s, t in cells]))
    return 0


def peak_rss_kb() -> int:
    """High-water resident set of this process image since exec.

    ru_maxrss would not do: it also covers the parent's image that the
    child shared before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--report-fd", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None,
                   help="with --trace, also write the raw spans here")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import numpy  # noqa: F401  the interpreter + numpy start is the calibration
    numpy_ready = time.monotonic()
    _import_package(args.src)
    ready = time.monotonic()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if argv[0] == "v1-hilbert":
        rc = v1_hilbert(argv[1:])
    else:
        from hopfext.cli import main as cli_main
        rc = cli_main(argv)
    sys.stdout.flush()
    compute_s = time.perf_counter() - start
    report = {"numpy_ready": numpy_ready, "ready": ready, "rc": rc,
              "compute_s": compute_s, "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        report["layers"] = tracer.summary(compute_s)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["group", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    with os.fdopen(args.report_fd, "w") as fh:
        fh.write(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
