import os
import subprocess
import sys
from pathlib import Path

from hopfext.invariants import H0_T_CEILING

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


def _census_report(tmax):
    return _script("census_report.py", "--tmax", str(tmax))


def test_census_report_prints_each_degree():
    done = _census_report(40)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["t", "rank", "new", "named"]
    assert [line.split() for line in lines[1:]] == [
        ["8", "0", "0"], ["16", "1", "1", "c2"], ["24", "1", "1", "c3"],
        ["32", "2", "1", "D4"], ["40", "2", "1", "D5"]]


def test_census_report_refuses_tmax_above_ceiling():
    done = _census_report(H0_T_CEILING + 8)
    assert done.returncode == 2
    assert done.stdout == ""
    assert str(H0_T_CEILING) in done.stderr


def test_render_charts_writes_every_level(tmp_path):
    done = _script("render_charts.py", "--out", str(tmp_path),
                   "--smax", "1", "--tmax", "16")
    assert done.returncode == 0, done.stderr
    for tag in ("i4", "i3", "i2", "i1", "i0", "integral"):
        assert (tmp_path / tag / "ext.json").is_file(), tag
        assert (tmp_path / tag / "chart.svg").is_file(), tag
