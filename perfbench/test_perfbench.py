"""Tests of the benchmark itself, on the smoke windows (a few seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "record.json"
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    return json.loads(lines[-1]), record, out


def test_smoke_reports_every_metric_with_its_unit(smoke_all):
    result, _, _ = smoke_all
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = dict(run.END_TO_END) | dict(run.per_layer_metrics())
    for name in run.load_workloads():
        for metric, unit in want.items():
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit
        assert result["metrics"][f"{name}.ok_frac"]["value"] == 1.0


def test_traced_counts_repeat_and_reach_from_imports(smoke_all):
    _, record, _ = smoke_all
    traced = {s["workload"]: s["layers"] for s in record["samples"]
              if s["traced"]}
    # rank_gf5 is reached only through transfer's and wordcx's own
    # from-import names, so a count shows the rebinding took effect
    assert traced["ext-mod5-contract"]["flinalg.gf5"]["calls"] > 0
    assert traced["h0-census"]["algebroid.eta_R"]["calls"] > 0
    assert traced["h0-census"]["gradedpoly.mul"]["calls"] > 0
    assert traced["v1-hilbert"]["v1algebra.presented_dim"]["calls"] > 0
    assert traced["v1-hilbert"]["wordcx.contraction"]["calls"] == 0
    again = _run("--workload", "ext-integral", "--seed", "4", "--seconds",
                 "1", "--trace", "1", "--smoke")
    rec = json.loads(next(l for l in again.stdout.splitlines()
                          if l.startswith("record "))[7:])
    layers = next(s["layers"] for s in rec["samples"] if s["traced"])

    def counts(lay):
        return {(g, k): v for g, st in lay.items() for k, v in st.items()
                if k != "self_s"}

    assert counts(layers) == counts(traced["ext-integral"])


def test_out_writes_record_and_nested_spans(smoke_all):
    result, _, out = smoke_all
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["metrics"] == result["metrics"]
    written = sorted(out.parent.glob("record.json.spans-*.json"))
    assert len(written) == len(run.load_workloads())
    for path in written:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        for group, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end


def test_wrong_digest_or_exit_code_is_a_failure():
    spec = run.load_workloads()["h0-census"]
    good = run.run_sample("h0-census", spec["smoke_argv"],
                          spec["smoke_sha256"], False, 60)
    assert good["ok"] and good["setup_s"] > 0 and good["peak_rss_mb"] > 0
    assert not run.run_sample("h0-census", spec["smoke_argv"], "0" * 64,
                              False, 60)["ok"]
    bad = run.run_sample("h0-census", ["invariants", "--tmax", "0"],
                         spec["smoke_sha256"], False, 60)
    assert bad["rc"] == 2 and not bad["ok"]


def test_v1_output_does_not_depend_on_seed():
    spec = run.load_workloads()["v1-hilbert"]
    for seed in ("1", "2"):
        s = run.run_sample("v1-hilbert", spec["smoke_argv"] + ["--seed", seed],
                           spec["smoke_sha256"], False, 60)
        assert s["ok"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.load_workloads())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        run.per_layer_metrics()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "h0-census", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
