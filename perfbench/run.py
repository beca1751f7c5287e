"""Cold-process benchmark for the hopfext engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (see child.py): each layer memoises per
process, so a CLI user pays the cold cost on every run, and that is what is
timed.  A run starts samples back to back while the next round is expected
to end within S seconds, and reports medians.  Wall and CPU time are divided
by the same sample's interpreter-and-numpy start time (calib_s), which
cancels most of the drift in machine speed that a shared host shows.  Each
sample's stdout is checked against the reference sha256 in workloads.json;
a nonzero exit or a wrong digest is a failed operation and its timing is
left out.

--trace 0 reports the end-to-end metrics (untraced samples only).
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones, plus the tracing overhead.
--workload all interleaves every workload in a seeded order and prints both
tables; --smoke runs the tiny windows, for the benchmark's own tests.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are a human-readable table and a ``record``
line with the machine, the seed and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracer import CACHED, COUNT_GROUPS, SIZE_STAT, SPAN_GROUPS  # noqa: E402

# A run of up to 60 s must end within 180 s; no sample may push it past
# this.  Longer runs, for tail percentiles, get twice their length.
RUN_LIMIT_S = 170.0

# Samples load byte-compiled modules, as an installed package would; the
# untimed warm-up sample writes them.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = (("wall_ratio", "ratio"), ("setup_s", "s"), ("cpu_ratio", "ratio"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))
# Printed with the table and kept in the record, but not reported as
# metrics: on a shared machine their run medians drift with its load.
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"), ("calib_s", "s"))


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for g in SPAN_GROUPS:
        out += [(f"{g}.self_s", "s"), (f"{g}.calls", "count")]
        if g in SIZE_STAT:
            out.append((f"{g}.{SIZE_STAT[g]}", "count"))
        if g in CACHED:
            out += [(f"{g}.cache_hit", "ratio"), (f"{g}.cache_lookups", "count")]
    out += [(f"{g}.calls", "count") for g in COUNT_GROUPS]
    out += [("unattributed.self_s", "s"), ("trace.predicted_share", "ratio"),
            ("trace.overhead_s", "s")]
    return out


def load_workloads() -> Dict[str, dict]:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def loadavg() -> List[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def steal_s() -> float:
    """CPU time the hypervisor gave to others, summed over cores (0 on bare
    metal); a rise during a sample marks it as contended."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    steal = int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


def machine() -> dict:
    """Interpreter, numpy and BLAS versions, BLAS threads, cores."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = config = None
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_n = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_c = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_n is not None and threads is None:
                    get_n.restype = ctypes.c_int
                    threads = get_n()
                if get_c is not None and config is None:
                    get_c.restype = ctypes.c_char_p
                    config = get_c().decode()
    cpu_model = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": config, "blas_threads": threads,
            "cpu_model": cpu_model, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "mem_gb": round(os.sysconf("SC_PAGE_SIZE")
                            * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)}


def run_sample(name: str, argv: List[str], digest: str,
               traced: bool, timeout: float,
               spans_path: Optional[str] = None) -> dict:
    """Start one workload process, wait for it, and score it."""
    r, w = os.pipe()
    cmd = [sys.executable, CHILD, "--src", SRC, "--report-fd", str(w)]
    if traced:
        cmd.append("--trace")
        if spans_path:
            cmd += ["--spans", spans_path]
    cmd += ["--"] + argv
    load_before = loadavg()
    steal_before = steal_s()
    start = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, pass_fds=(w,),
                                cwd=ROOT, env=CHILD_ENV)
    finally:
        os.close(w)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(r, encoding="utf-8") as fh:
        raw = fh.read()
    report = json.loads(raw) if raw else {}
    sha = hashlib.sha256(out).hexdigest()
    ok = proc.returncode == 0 and sha == digest and "ready" in report
    wall = end - start
    cpu = usage.ru_utime + usage.ru_stime
    calib = report["numpy_ready"] - start if ok else None
    sample = {"workload": name, "traced": traced, "ok": ok,
              "rc": proc.returncode, "sha256": sha,
              "wall_s": wall, "cpu_s": cpu, "calib_s": calib,
              "wall_ratio": wall / calib if ok else None,
              "cpu_ratio": cpu / calib if ok else None,
              "setup_s": report["ready"] - start if ok else None,
              "peak_rss_mb": report.get("peak_rss_kb", 0) / 1024.0,
              "compute_s": report.get("compute_s"),
              "load_before": load_before, "load_after": loadavg(),
              "steal_s": steal_s() - steal_before}
    if traced and "layers" in report:
        sample["layers"] = report["layers"]
    return sample


def schedule(names: List[str], trace: bool, rng: random.Random):
    """Endless rounds; each round runs every workload once, in a seeded
    order.  With tracing, rounds alternate untraced and traced."""
    k = 0
    while True:
        for name in rng.sample(names, len(names)):
            yield name, trace and k % 2 == 1
        k += 1


def measure(names: List[str], workloads: Dict[str, dict], seconds: float,
            trace: bool, seed: int, smoke: bool,
            spans_prefix: Optional[str] = None) -> List[dict]:
    rng = random.Random(seed)
    limit = max(RUN_LIMIT_S, 2 * seconds)
    t0 = time.monotonic()
    spec_argv = {}
    for name in names:
        spec = workloads[name]
        argv = list(spec["smoke_argv"] if smoke else spec["argv"])
        if argv[0] == "v1-hilbert":
            argv += ["--seed", str(seed)]
        spec_argv[name] = (argv, spec["smoke_sha256" if smoke else "sha256"])
        # untimed warm-up: byte-compiles the package and fills the page cache
        warm = list(spec["smoke_argv"])
        run_sample(name, warm, spec["smoke_sha256"], False,
                   limit - (time.monotonic() - t0))
    # Rounds run while the next one is expected to end by the deadline,
    # and at least one (two when tracing, one of each kind) always runs.
    deadline = time.monotonic() + seconds
    samples: List[dict] = []
    rounds_done = 0
    round_start = time.monotonic()
    for name, traced in schedule(names, trace, rng):
        argv, digest = spec_argv[name]
        left = limit - (time.monotonic() - t0)
        spans = (f"{spans_prefix}.spans-{len(samples)}.json"
                 if spans_prefix and traced else None)
        samples.append(run_sample(name, argv, digest, traced,
                                  max(left, 1.0), spans))
        if len(samples) % len(names) == 0:
            rounds_done += 1
            now = time.monotonic()
            if (rounds_done >= (2 if trace else 1)
                    and now + (now - round_start) > deadline):
                break
            round_start = now
    return samples


def nearest_rank(values: List[float], p: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail(values: List[float]) -> Optional[tuple]:
    """Highest of p50..p99 with at least ten samples beyond it."""
    best = None
    n = len(values)
    for p in (50, 75, 90, 95, 99):
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = (p, nearest_rank(values, p))
    return best


def end_to_end(samples: List[dict]) -> Dict[str, float]:
    plain = [s for s in samples if not s["traced"]]
    good = [s for s in plain if s["ok"]]
    out = {}
    for key, _ in END_TO_END[:-1] + RAW_TIMES:
        out[key] = statistics.median(s[key] for s in good) if good else None
    out["ok_frac"] = len(good) / len(plain) if plain else None
    return out


def per_layer(samples: List[dict], predicted: List[str]) -> Dict[str, float]:
    traced = [s for s in samples if s["traced"] and s["ok"] and "layers" in s]
    plain = [s["wall_s"] for s in samples if not s["traced"] and s["ok"]]
    out: Dict[str, float] = {}
    if not traced:
        return out
    first = traced[0]["layers"]
    for name, _ in per_layer_metrics():
        group, stat = name.rsplit(".", 1)
        if group == "trace":
            continue
        if stat == "self_s":
            out[name] = statistics.median(s["layers"][group][stat] for s in traced)
        else:
            out[name] = first[group][stat]
    total = sum(out[f"{g}.self_s"] for g in SPAN_GROUPS) + out["unattributed.self_s"]
    share = sum(out[f"{g}.self_s"] for g in predicted)
    out["trace.predicted_share"] = share / total if total > 0 else 0.0
    if plain:
        out["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                   - statistics.median(plain))
    return out


def counts_agree(samples: List[dict]) -> bool:
    """Traced samples of one workload must give identical counts."""
    seen = None
    for s in samples:
        if not (s["traced"] and "layers" in s):
            continue
        counts = {(g, k): v for g, st in s["layers"].items()
                  for k, v in st.items() if k not in ("self_s",)}
        if seen is not None and counts != seen:
            return False
        seen = counts
    return True


def fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def print_tables(name: str, samples: List[dict], e2e: Dict[str, float],
                 layers: Dict[str, float]) -> None:
    plain = [s for s in samples if not s["traced"] and s["ok"]]
    print(f"== {name}: {len(plain)} untraced samples ok of "
          f"{sum(not s['traced'] for s in samples)}, "
          f"{sum(s['traced'] for s in samples)} traced")
    if plain:
        for key, unit in END_TO_END + RAW_TIMES:
            extra = ""
            if key != "ok_frac":
                t = tail([s[key] for s in plain])
                extra = (f"  p{t[0]}={t[1]:.4g}" if t else
                         "  (too few samples for a tail percentile)")
            print(f"  {key:<14} {fmt(e2e[key]):>10} {unit:<6} n={len(plain)}{extra}")
    units = dict(per_layer_metrics())
    for key, v in layers.items():
        if v:
            print(f"  {key:<48} {fmt(v):>10} {units[key]}")


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny windows, for the benchmark's own tests")
    p.add_argument("--out", default=None,
                   help="also write the full record to this JSON file, and"
                   " each traced sample's spans to OUT.spans-<i>.json")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopfext", "__init__.py")):
        sys.stderr.write(f"error: no hopfext package under {SRC}\n")
        return 2
    workloads = load_workloads()
    if args.workload == "all":
        names = list(workloads)
    elif args.workload in workloads:
        names = [args.workload]
    else:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads)} or all\n")
        return 2
    if not 0 < args.seconds <= 600:
        sys.stderr.write("error: --seconds must be in (0, 600]\n")
        return 2

    info = machine()
    samples = measure(names, workloads, args.seconds, bool(args.trace),
                      args.seed, args.smoke, args.out)
    metrics: Dict[str, dict] = {}
    correct = True
    for name in names:
        mine = [s for s in samples if s["workload"] == name]
        e2e = end_to_end(mine)
        layers = per_layer(mine, workloads[name]["layer"]) if args.trace else {}
        print_tables(name, mine, e2e, layers)
        correct &= all(s["ok"] for s in mine) and counts_agree(mine)
        chosen = dict(per_layer_metrics()) if args.trace else {}
        if not args.trace or args.workload == "all":
            chosen = {**dict(END_TO_END), **chosen}
        values = {**e2e, **layers}
        prefix = f"{name}." if args.workload == "all" else ""
        for key, unit in chosen.items():
            if values.get(key) is None:
                correct = False
                continue
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    record = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": info,
              "samples": samples}
    print("record " + json.dumps(record))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**record, "metrics": metrics}, fh, indent=1)
    failed = sum(not s["ok"] for s in samples)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
