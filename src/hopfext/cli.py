"""Command-line entry point for the cohomology engine.

Subcommands: axioms, verify, ext, invariants, table1, disc, bockstein,
chart.  All configuration is by flags, and each subcommand declares only
the flags its handler reads; defaults are s_max=6, t_max=400
(invariants: t_max=176, its ceiling).  Integral answers are read mod 5^4
(transfer.K_POWER), a fixed precision that certifies every torsion
exponent of the measured windows.  Output is JSON on stdout (or files
under --out), with a top-level "schema" field; charts are SVG plus a text
fallback.  Exit codes: 0 all requested checks pass, 1 a verification
failed or a consistency guard tripped ("first_failure"), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .algebroid import AlgebroidSpec, AxiomViolation, check_axioms
from .invariants import (H0_T_CEILING, TABLE1_NAMES, IntegralityFailure,
                         disc_unit_factor, discriminant, hilbert_h0,
                         new_generators, table1_expand)

SCHEMA_PREFIX = "hopfext"


class _RunConfig(NamedTuple):
    command: str
    ideal: Optional[int] = None
    s_max: int = 6
    t_max: int = 400
    out: Optional[str] = None
    overlay: Optional[str] = None
    source: Optional[str] = None
    tower: int = 1
    page: int = 1


class RunConfig(_RunConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.s_max < 0 or self.t_max <= 0:
            raise ValueError("window needs s_max >= 0 and t_max > 0")
        if self.ideal is not None and not 0 <= self.ideal <= 4:
            raise ValueError("ideal level must be in 0..4")
        if not 0 <= self.tower <= 4:
            raise ValueError("tower index must be in 0..4")
        if self.page < 1:
            raise ValueError("pages start at r = 1")
        if self.command == "invariants" and self.t_max > H0_T_CEILING:
            raise ValueError(f"invariants needs t_max <= {H0_T_CEILING}, the"
                             " largest degree whose kernels are tractable")
        return self


def _emit(config: RunConfig, payload: Dict) -> None:
    """Write the payload, under the command's "schema" field, as JSON."""
    payload = {"schema": f"{SCHEMA_PREFIX}/{config.command}/1", **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        path = os.path.join(config.out, f"{config.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- axioms -----------------------------------------------------------------

def cmd_axioms(config: RunConfig) -> int:
    payload = {"t_max": config.t_max, "variants": {}, "pass": True}
    for variant in ("full", "reduced"):
        spec = AlgebroidSpec(variant)
        try:
            counts = check_axioms(spec, config.t_max)
            payload["variants"][variant] = {"counts": counts, "pass": True}
        except AxiomViolation as exc:
            payload["variants"][variant] = {"error": str(exc), "pass": False}
            payload["pass"] = False
    _emit(config, payload)
    return 0 if payload["pass"] else 1


# --- ext --------------------------------------------------------------------

def cmd_ext(config: RunConfig) -> int:
    from .transfer import ext_dim, integral_structure
    spec = AlgebroidSpec("reduced", config.ideal)
    entries = []
    for t in range(0, config.t_max + 1, 8):
        # every cobar slot has degree >= 8, so Ext^(s,t) = 0 for 8s > t
        for s in range(0, min(config.s_max, t // 8) + 1):
            if config.ideal is None:
                free, torsion = integral_structure(spec, s, t)
                if free or torsion:
                    entries.append({"s": s, "t": t, "free": free,
                                    "torsion": list(torsion)})
            else:
                dim = ext_dim(spec, s, t)
                if dim:
                    entries.append({"s": s, "t": t, "dim": dim})
    payload = {"variant": "reduced", "ideal": config.ideal,
               "s_max": config.s_max, "t_max": config.t_max,
               "entries": entries}
    _emit(config, payload)
    return 0


# --- invariants -------------------------------------------------------------

def cmd_invariants(config: RunConfig) -> int:
    ranks = hilbert_h0(config.t_max)
    census = []
    for t in range(8, config.t_max + 1, 8):
        count, reps = new_generators(t)
        census.append({"t": t, "count": count,
                       "leading": [str(p.sorted_terms()[0][0]) for p in reps]})
    payload = {"t_max": config.t_max,
               "ranks": [[t, r] for t, r in ranks], "census": census}
    _emit(config, payload)
    return 0


# --- table1 -----------------------------------------------------------------

def cmd_table1(config: RunConfig) -> int:
    rows = []
    failed = None
    for name in TABLE1_NAMES:
        try:
            rec = table1_expand(name)
            rows.append({"name": rec.name, "degree": rec.degree,
                         "depth": rec.depth, "expression": rec.expression,
                         "pass": True})
        except Exception as exc:  # noqa: BLE001 - report any certification failure
            rows.append({"name": name, "error": str(exc), "pass": False})
            if failed is None:
                failed = name
    payload = {"rows": rows, "pass": failed is None}
    if failed is not None:
        payload["first_failure"] = f"Table 1 / {failed}"
    _emit(config, payload)
    return 0 if failed is None else 1


# --- disc -------------------------------------------------------------------

def cmd_disc(config: RunConfig) -> int:
    disc = discriminant()
    lam, matches = disc_unit_factor()
    _emit(config, {"degree": 160, "matches_table": matches,
                   "unit_factor": str(lam), "terms": len(disc.terms),
                   "pass": matches})
    return 0 if matches else 1


# --- bockstein --------------------------------------------------------------

def cmd_bockstein(config: RunConfig) -> int:
    from .bockstein import FiltrationSpec, page_dump
    dump = page_dump(FiltrationSpec(config.tower), config.page, config.s_max,
                     config.t_max)
    _emit(config, dump)
    return 0


# --- chart ------------------------------------------------------------------

def _source_cells(data) -> Dict[Tuple[int, int], int]:
    """Nonzero (s, t) -> dimension cells of an ext or bockstein JSON dump."""
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError("chart source must be a JSON object with an"
                         " 'entries' list")
    cells: Dict[Tuple[int, int], int] = {}
    for i, e in enumerate(entries):
        try:
            key = (e["s"], e["t"])
            dim = count = e.get("dim")
            torsion = e.get("torsion", [])
            if dim is None:
                count = e.get("free", 0)
                dim = count + len(torsion)
            # bool is a subclass of int, and JSON true is not a count
            valid = (isinstance(torsion, list) and
                     all(type(v) is int and v >= 0 for v in key + (count,)))
        except (KeyError, TypeError):
            valid = False
        if not valid:
            raise ValueError(f"chart source entry {i} needs nonnegative"
                             " integer 's', 't' and dimension")
        if dim:
            cells[key] = cells.get(key, 0) + dim
    return cells


def cmd_chart(config: RunConfig) -> int:
    from .report import ChartSpec, Dot, emit_svg, parse_overlay, with_overlay
    if not config.source:
        raise ValueError("chart requires --source")
    with open(config.source, "r", encoding="utf-8") as fh:
        cells = _source_cells(json.load(fh))
    s_max = max((s for s, _ in cells), default=0)
    t_max = max((t for _, t in cells), default=0)
    arrows = ()
    if config.overlay:
        with open(config.overlay, "r", encoding="utf-8") as fh:
            arrows = parse_overlay(fh.read())
        s_max = max([s_max] + [a.end[0] for a in arrows])
        t_max = max([t_max] + [max(a.start[1], a.end[1]) for a in arrows])
    chart = ChartSpec(s_max, t_max, tuple(
        sorted(Dot(s, t, m) for (s, t), m in cells.items())))
    chart = with_overlay(chart, arrows)
    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    svg_path = os.path.join(out_dir, "chart.svg")
    emit_svg(chart, svg_path)
    arrow_cells = [
        {"start": list(a.start), "end": list(a.end), "page": a.page,
         "label": a.label,
         "source_dim": chart.cell(*a.start), "target_dim": chart.cell(*a.end)}
        for a in chart.overlays]
    payload = {"svg": svg_path, "cells": len(cells), "arrows": arrow_cells}
    _emit(config, payload)
    return 0


# --- verify -----------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    import time
    from . import claims
    results = []
    first_failure = None
    for claim in claims.CLAIMS:
        started = time.monotonic()
        record = {"tag": claim.tag, "description": claim.description,
                  "pass": True}
        try:
            claim.check()
        except Exception as exc:  # noqa: BLE001 - verification must not abort
            record.update({"pass": False, "error": str(exc)})
            # a check that raises something other than ClaimFailed has a bug
            if not isinstance(exc, claims.ClaimFailed):
                record["exception"] = type(exc).__name__
            if first_failure is None:
                first_failure = claim.tag
        results.append(record)
        line = (f"{claim.tag}: {'ok' if record['pass'] else 'FAIL'}"
                f" ({time.monotonic() - started:.1f}s)")
        if "exception" in record:
            line += " " + record["exception"]
        sys.stderr.write(line + "\n")
    payload = {"checks": results,
               "passed": sum(1 for r in results if r["pass"]),
               "failed": sum(1 for r in results if not r["pass"])}
    if first_failure is not None:
        payload["first_failure"] = first_failure
    _emit(config, payload)
    return 0 if first_failure is None else 1


# --- entry point ------------------------------------------------------------

# each flag's dest is its RunConfig field
_FLAGS = {
    "--ideal": dict(type=int, default=None,
                    help="quotient level 0..4; omit for the integral base"),
    "--k": dict(dest="tower", type=int, default=1,
                help="tower index 0..4 (0 is the 5-adic tower)"),
    "--page": dict(type=int, default=1),
    "--source": dict(required=True),
    "--overlay": dict(default=None),
    "--smax": dict(dest="s_max", type=int, default=6),
    "--tmax": dict(dest="t_max", type=int, default=400),
    "--out": dict(default=None, help="directory for JSON/chart output"),
}

# subcommand -> (handler, help, the flags its handler reads)
_COMMANDS = {
    "axioms": (cmd_axioms, "check the structure-map identities",
               ("--tmax", "--out")),
    "verify": (cmd_verify, "run the full identity suite", ("--out",)),
    "ext": (cmd_ext, "cohomology table over a window",
            ("--ideal", "--smax", "--tmax", "--out")),
    "invariants": (cmd_invariants, "H0 ranks and generator census",
                   ("--tmax", "--out")),
    "table1": (cmd_table1, "expand and certify all named generators",
               ("--out",)),
    "disc": (cmd_disc, "resultant discriminant checks", ("--out",)),
    "bockstein": (cmd_bockstein, "dump one spectral sequence page",
                  ("--k", "--page", "--smax", "--tmax", "--out")),
    "chart": (cmd_chart, "render a chart from a JSON dump",
              ("--source", "--overlay", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfext",
        description="Exact cohomology engine for a rank-one translation"
        " Hopf algebroid at p=5")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    sub.choices["invariants"].set_defaults(t_max=H0_T_CEILING)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def run(config: RunConfig) -> int:
    if config.command not in _COMMANDS:
        return 2
    return _COMMANDS[config.command][0](config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return run(config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (AssertionError, IntegralityFailure) as exc:
        # a tripped consistency guard is the run's first failure, not a crash
        failure = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"error: {failure}\n")
        _emit(config, {"pass": False, "first_failure": failure})
        return 1


if __name__ == "__main__":
    sys.exit(main())
