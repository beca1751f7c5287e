import argparse
import hashlib
import json

import pytest

import hopfext.invariants as inv
from hopfext import algebroid, bockstein, claims, cli, transfer
from hopfext.algebroid import AlgebroidSpec
from hopfext.claims import CLAIMS
from hopfext.cli import RunConfig, build_parser, config_from_args, main, run
from hopfext.flinalg import K_MAX, diagonal_valuations
from hopfext.gradedpoly import Polynomial
from hopfext.transfer import (differential_valuations, ext_dim,
                              integral_structure, transferred_matrix)


def _load(tmp_path, name):
    with open(tmp_path / name, "r", encoding="utf-8") as fh:
        return fh.read()


def _subparsers(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_usage_errors():
    assert main([]) == 2
    assert main(["ext", "--ideal", "nine"]) == 2
    with pytest.raises(ValueError):
        RunConfig(command="ext", ideal=9)
    with pytest.raises(ValueError):
        RunConfig(command="ext", s_max=-1)
    with pytest.raises(ValueError):
        RunConfig(command="invariants", t_max=0)
    with pytest.raises(ValueError):
        RunConfig(command="bockstein", tower=5)
    with pytest.raises(ValueError):
        RunConfig(command="bockstein", page=0)
    # an unknown tower
    assert main(["bockstein", "--k", "5"]) == 2
    # pages start at r = 1 on both towers
    for k in ("0", "1"):
        for page in ("0", "-1"):
            assert main(["bockstein", "--k", k, "--page", page]) == 2


def test_each_command_declares_the_flags_it_reads():
    want = {
        "axioms": {"--tmax", "--out"},
        "verify": {"--out"},
        "ext": {"--ideal", "--smax", "--tmax", "--out"},
        "invariants": {"--tmax", "--out"},
        "table1": {"--out"},
        "disc": {"--out"},
        "bockstein": {"--k", "--page", "--smax", "--tmax", "--out"},
        "chart": {"--source", "--overlay", "--out"},
    }
    got = {name: {s for a in p._actions for s in a.option_strings} -
           {"-h", "--help"} for name, p in _subparsers(build_parser()).items()}
    assert got == want
    assert sum(map(len, got.values())) == 19


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_subcommand_help_is_that_of_the_full_parser(capsys, name):
    # main builds only the subparser it is asked for; what it prints is
    # the help of the same subparser in the full parser
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out == \
        _subparsers(build_parser())[name].format_help()


def test_argv_without_a_subcommand_gets_the_full_parser(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert all(name in out for name in cli._COMMANDS)
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert main(["bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["--help", "ext"]) == 0
    assert capsys.readouterr().out == build_parser().format_help()


@pytest.mark.parametrize("argv", [
    ["ext", "--ideal", "1", "--smax", "6", "--tmax", "88"],
    ["invariants"],
    ["bockstein", "--k", "0", "--page", "2"],
    ["chart", "--source", "x.json"],
])
def test_one_subparser_parses_as_the_full_parser(argv):
    assert build_parser(argv[0]).parse_args(argv) == \
        build_parser().parse_args(argv)
    assert list(_subparsers(build_parser(argv[0]))) == [argv[0]]


def test_usage_line_of_one_subparser_lists_every_subcommand(capsys):
    assert main(["ext", "--bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(build_parser().format_usage())
    assert "unrecognized arguments: --bogus" in err


@pytest.mark.parametrize("argv", [
    ["disc", "--kpower", "4"],
    ["table1", "--tmax", "8"],
    ["ext", "--kpower", "4", "--smax", "1", "--tmax", "8"],
    ["invariants", "--smax", "2"],
])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


def test_kpower_ceiling_agrees_with_default():
    # all torsion in this integral window is Z/5, so reading the
    # differentials at the int64 ceiling K_MAX finds the same elementary
    # divisors as the fixed working precision
    spec = AlgebroidSpec("reduced")
    for s in range(4):
        for t in range(0, 121, 8):
            mat = transferred_matrix(spec, s, t, 5 ** K_MAX)
            assert diagonal_valuations(mat, K_MAX) == \
                list(differential_valuations(spec, s, t)), (s, t)


def test_ext_h0_only_window(tmp_path):
    entries = {}
    for s_max in (0, 1):
        out = tmp_path / str(s_max)
        assert main(["ext", "--smax", str(s_max), "--tmax", "40",
                     "--out", str(out)]) == 0
        entries[s_max] = json.loads((out / "ext.json").read_text(
            encoding="utf-8"))["entries"]
    assert entries[0] == [e for e in entries[1] if e["s"] == 0]
    assert entries[0]


def _unclamped_entries(command, ideal_or_tower, page, s_max, t_max):
    # the window loops with every s <= s_max visited, 8s > t included
    out = []
    for t in range(0, t_max + 1, 8):
        for s in range(0, s_max + 1):
            if command == "ext" and ideal_or_tower is None:
                free, torsion = integral_structure(AlgebroidSpec("reduced"), s, t)
                if free or torsion:
                    out.append({"s": s, "t": t, "free": free,
                                "torsion": list(torsion)})
            elif command == "ext":
                dim = ext_dim(AlgebroidSpec("reduced", ideal_or_tower), s, t)
                if dim:
                    out.append({"s": s, "t": t, "dim": dim})
            else:
                fs = bockstein.FiltrationSpec(ideal_or_tower)
                us = range(bockstein._u_max(fs, t) + 1) if fs.k else (0,)
                for u in us:
                    dim = (bockstein.page_entry_dim(fs, page, s, t, u) if fs.k
                           else bockstein._five_adic_page_dim(fs, page, s, t))
                    if dim:
                        out.append({"s": s, "t": t, "u": u, "dim": dim})
    return out


@pytest.mark.parametrize("argv", [
    ["ext", "--smax", "7", "--tmax", "48"],
    ["ext", "--ideal", "1", "--smax", "9", "--tmax", "56"],
    ["bockstein", "--k", "0", "--page", "2", "--smax", "6", "--tmax", "40"],
    ["bockstein", "--k", "2", "--page", "2", "--smax", "6", "--tmax", "40"],
])
def test_window_skips_s_past_t_over_8(tmp_path, argv):
    # Ext^(s,t) and every Bockstein page vanish for 8s > t; skipping those
    # s leaves the JSON byte-identical to the loop over every s <= s_max
    assert main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads(_load(tmp_path, f"{argv[0]}.json"))
    flags = dict(zip(argv[1::2], map(int, argv[2::2])))
    key = flags.get("--ideal", flags.get("--k"))
    payload["entries"] = _unclamped_entries(argv[0], key, flags.get("--page"),
                                            flags["--smax"], flags["--tmax"])
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _load(tmp_path, f"{argv[0]}.json") == text
    assert any(e["s"] == e["t"] // 8 for e in payload["entries"])


@pytest.mark.parametrize("argv, name, visits", [
    (["ext", "--tmax", "8"], "integral_structure", 3),
    (["ext", "--ideal", "1", "--tmax", "8"], "ext_dim", 3),
    (["bockstein", "--k", "0", "--tmax", "8"], "_five_adic_page_dim", 3),
    (["bockstein", "--k", "1", "--tmax", "8"], "page_entry_dim", 5),
])
def test_huge_smax_visits_only_live_cells(tmp_path, monkeypatch, argv, name,
                                          visits):
    # with s_max = 10^8 and t <= 8, only (s, t) = (0, 0), (0, 8), (1, 8)
    # are visited, at u = 0 and, on the a1 tower at t = 8, u = 1 too
    module = bockstein if argv[0] == "bockstein" else transfer
    real, cells = getattr(module, name), []

    def spy(fs, *args):
        cells.append(args)
        return real(fs, *args)

    monkeypatch.setattr(module, name, spy)
    assert main(argv + ["--smax", str(10 ** 8), "--out", str(tmp_path)]) == 0
    assert len(cells) == visits


def test_axioms_small_window(tmp_path):
    cfg = RunConfig(command="axioms", t_max=40, out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "axioms.json"))
    assert payload["schema"] == "hopfext/axioms/1"
    assert payload["pass"]
    assert set(payload["variants"]) == {"full", "reduced"}
    assert payload["variants"]["full"]["counts"]["coassoc"] > 0


@pytest.mark.parametrize("t_max,idle", [
    (1, ["counit_unit", "degree", "psi_eta_r", "ring_map"]),
    (8, ["ring_map"]),
    (16, []),
])
def test_axioms_window_with_an_unchecked_identity_fails(tmp_path, t_max, idle):
    # below t = 16 no generator pair fits, so ring_map would pass unchecked
    code = main(["axioms", "--tmax", str(t_max), "--out", str(tmp_path)])
    payload = json.loads(_load(tmp_path, "axioms.json"))
    assert code == (1 if idle else 0)
    assert payload["pass"] is not bool(idle)
    for record in payload["variants"].values():
        if idle:
            assert record == {"error": f"no instances checked for {idle}",
                              "pass": False}
        else:
            assert record["pass"] and min(record["counts"].values()) > 0


def _first_failure_run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    payload = json.loads(out)
    assert payload["schema"] == f"hopfext/{argv[0]}/1"
    assert payload["pass"] is False
    return payload["first_failure"]


@pytest.mark.parametrize("argv,memos", [
    (["ext", "--smax", "1", "--tmax", "8"], ("differential_valuations",)),
    (["bockstein", "--k", "1", "--smax", "1", "--tmax", "40"],
     ("_z_dim", "_filtered_cell")),
])
def test_projection_outside_small_basis_is_a_first_failure(monkeypatch, capsys,
                                                           argv, memos):
    # the transfer's guard trips mid-run: exit 1 and a structured
    # first_failure on stdout, not a traceback
    real = transfer._label_terms

    def planted(spec, label, d, mod):
        yield from real(spec, label, d, mod)
        yield ("out",), (1,), 1

    monkeypatch.setattr(transfer, "_label_terms", planted)
    caches = [getattr(transfer if argv[0] == "ext" else bockstein, name)
              for name in memos]
    # a cell memoised by an earlier test would hide the plant
    for memo in caches:
        memo.cache_clear()
    try:
        failure = _first_failure_run(argv, capsys)
    finally:
        for memo in caches:
            memo.cache_clear()
    assert failure == "AssertionError: projection left the small basis"


def test_invariance_failure_is_a_first_failure(monkeypatch, capsys):
    # a kernel vector that D moves in degree 16, the first degree with an
    # invariant, trips the exact D V = 0 check of the H^0 kernels
    real = inv.kernel_saturated

    def planted(mat):
        vecs = real(mat)
        return [(v[0] + 1,) + v[1:] for v in vecs[:1]] + vecs[1:]

    monkeypatch.setattr(inv, "kernel_saturated", planted)
    # the memoised basis would hide the plant, so read it unmemoised
    monkeypatch.setattr(inv, "invariant_basis", inv.invariant_basis.__wrapped__)
    failure = _first_failure_run(["invariants", "--tmax", "32"], capsys)
    assert failure == ("InvarianceFailure: a kernel vector in degree 16 moves"
                       " under the right unit")


def test_rank_drop_is_a_first_failure(monkeypatch, capsys):
    # a kernel one vector short in degree 16 trips the rank check against
    # the rational rank of Q[c2..c5]
    real = inv.kernel_saturated
    monkeypatch.setattr(inv, "kernel_saturated", lambda mat: real(mat)[:-1])
    monkeypatch.setattr(inv, "invariant_basis", inv.invariant_basis.__wrapped__)
    failure = _first_failure_run(["invariants", "--tmax", "32"], capsys)
    assert failure == ("AssertionError: the invariants in degree 16 have rank"
                       " 0, not 1, the rank of Q[c2..c5]")


def test_disc_invariance_failure_is_a_first_failure(monkeypatch, capsys):
    # a planted D(a4^5) = 11 a3 a4^4, not 10 a3 a4^4, in degree 160: the
    # discriminant has a4^5 with coefficient 1, so D moves it, and disc
    # stops with exit 1 and the InvarianceFailure as its first failure
    real = inv._derivation_matrix
    a4_5, a3_a4_4 = (0, 0, 0, 5, 0), (0, 0, 1, 4, 0)

    def planted(t):
        d = real(t)
        if t == 160:
            row = algebroid.piece_index(inv.SPEC, 152)[a3_a4_4]
            col = algebroid.piece_index(inv.SPEC, 160)[a4_5]
            assert d[row, col] == 10
            d[row, col] = 11
        return d

    monkeypatch.setattr(inv, "_derivation_matrix", planted)
    monkeypatch.setattr(cli, "discriminant", inv.discriminant.__wrapped__)
    failure = _first_failure_run(["disc"], capsys)
    assert failure == "InvarianceFailure: discriminant moves under the right unit"


def test_ext_top_quotient_pattern(tmp_path):
    cfg = RunConfig(command="ext", ideal=4, s_max=4, t_max=200,
                    out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "ext.json"))
    assert payload["schema"] == "hopfext/ext/1"
    got = {(e["s"], e["t"]): e["dim"] for e in payload["entries"]}
    want = {}
    for k in range(0, 6):
        if 2 * k <= 4 and 40 * k <= 200:
            want[(2 * k, 40 * k)] = 1
        if 2 * k + 1 <= 4 and 40 * k + 8 <= 200:
            want[(2 * k + 1, 40 * k + 8)] = 1
    assert got == want


def test_ext_json_idempotent(tmp_path):
    cfg = RunConfig(command="ext", ideal=1, s_max=2, t_max=56,
                    out=str(tmp_path))
    assert run(cfg) == 0
    first = _load(tmp_path, "ext.json")
    assert run(cfg) == 0
    assert _load(tmp_path, "ext.json") == first


def test_invariants_payload(tmp_path):
    cfg = RunConfig(command="invariants", t_max=48, out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "invariants.json"))
    ranks = dict((t, r) for t, r in payload["ranks"])
    assert ranks[16] == 1 and ranks[48] == 3
    census = {c["t"]: c["count"] for c in payload["census"]}
    assert census == {8: 0, 16: 1, 24: 1, 32: 1, 40: 1, 48: 1}


def test_invariants_tmax_above_ceiling_is_a_usage_error(capsys):
    # an explicit window beyond the tractable kernels is refused, not
    # quietly cut to the ceiling (the no-flag default is the ceiling)
    assert main(["invariants", "--tmax", str(inv.H0_T_CEILING + 8)]) == 2
    assert main(["invariants", "--tmax", "400"]) == 2
    assert str(inv.H0_T_CEILING) in capsys.readouterr().err
    args = build_parser().parse_args(["invariants"])
    assert config_from_args(args).t_max == inv.H0_T_CEILING


def test_table1_all_rows_pass(tmp_path):
    cfg = RunConfig(command="table1", out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "table1.json"))
    assert payload["pass"]
    assert len(payload["rows"]) == 23
    assert all(r["pass"] for r in payload["rows"])


def test_table1_negative_control(tmp_path, monkeypatch):
    # corrupting one integer coefficient of the D10 combination must be
    # caught by the integrality certificate and named in the report
    corrupted = []
    for name, deg, denom, terms in inv.TABLE1:
        if name == "D10":
            terms = tuple((names, 3 if names == ("D5", "D5") else coeff)
                          for names, coeff in terms)
        corrupted.append((name, deg, denom, terms))
    monkeypatch.setattr(inv, "TABLE1", tuple(corrupted))
    inv.table1_expand.cache_clear()
    try:
        cfg = RunConfig(command="table1", out=str(tmp_path))
        assert run(cfg) == 1
        payload = json.loads(_load(tmp_path, "table1.json"))
        assert not payload["pass"]
        assert payload["first_failure"] == "Table 1 / D10"
        failed = {r["name"] for r in payload["rows"] if not r["pass"]}
        assert "D10" in failed
    finally:
        monkeypatch.undo()
        inv.table1_expand.cache_clear()


def test_disc_payload(tmp_path):
    cfg = RunConfig(command="disc", out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "disc.json"))
    assert payload["pass"] and payload["matches_table"]
    assert payload["degree"] == 160


def test_disc_table_mismatch_is_a_failed_check(tmp_path, monkeypatch):
    # a D row without the discriminant's leading monomial is a failed
    # match (exit 1, ClaimFailed), not an undefined valuation
    real = inv.table1_expand
    lead = inv.discriminant().sorted_terms()[0][0]

    def planted(name):
        rec = real(name)
        if name != "D":
            return rec
        p = rec.polynomial
        return rec._replace(polynomial=Polynomial(
            p.ring, {m: c for m, c in p.terms.items() if m != lead}))

    monkeypatch.setattr(inv, "table1_expand", planted)
    assert main(["disc", "--out", str(tmp_path)]) == 1
    payload = json.loads(_load(tmp_path, "disc.json"))
    assert payload["pass"] is False and payload["matches_table"] is False
    with pytest.raises(claims.ClaimFailed):
        claims._disc_table()


@pytest.mark.parametrize("argv,digest", [
    (["axioms", "--tmax", "120"], "ffbf9c518500"),
    (["table1"], "eb65db233380"),
    (["disc"], "bdf5ff6a613b"),
])
def test_symbolic_outputs_pinned(tmp_path, argv, digest):
    # these commands read the right unit as polynomials in Gamma; their JSON
    # is pinned byte for byte by the sha256 prefix of the file
    assert main(argv + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / f"{argv[0]}.json").read_bytes()
    assert hashlib.sha256(text).hexdigest()[:12] == digest


@pytest.mark.parametrize("argv,digest", [
    (["ext", "--smax", "4", "--tmax", "112"], "27f28f28fcbd"),
    (["ext", "--ideal", "1", "--smax", "6", "--tmax", "88"], "ef8f73962a00"),
    (["ext", "--ideal", "2", "--smax", "6", "--tmax", "200"], "21accf68e2b0"),
    (["invariants", "--tmax", "112"], "b67c7fd7344c"),
    (["bockstein", "--k", "2", "--page", "2", "--smax", "4", "--tmax", "160"],
     "286d64d08631"),
    (["invariants"], "518f2560c19e"),
    (["ext", "--smax", "6", "--tmax", "200"], "37675c4815d5"),
    (["ext", "--ideal", "0", "--smax", "6", "--tmax", "200"], "252b8c83c7a8"),
    (["bockstein", "--k", "1", "--page", "1", "--smax", "6", "--tmax", "200"],
     "c48a83215371"),
])
def test_numeric_outputs_pinned(tmp_path, argv, digest):
    # these commands read the right unit as matrices (the transfer and the
    # invariant kernels); their JSON is pinned byte for byte by the sha256
    # prefix of the file
    assert main(argv + ["--out", str(tmp_path)]) == 0
    text = (tmp_path / f"{argv[0]}.json").read_bytes()
    assert hashlib.sha256(text).hexdigest()[:12] == digest


def test_bockstein_dump(tmp_path):
    cfg = RunConfig(command="bockstein", tower=2, page=1, s_max=2, t_max=48,
                    out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "bockstein.json"))
    assert payload["schema"] == "hopfext/bockstein/1"
    assert payload["filtration"] == "a2"
    cells = {(e["s"], e["t"], e["u"]): e["dim"] for e in payload["entries"]}
    assert cells[(1, 8, 0)] == 1
    assert cells[(0, 16, 1)] == 1  # the a2 class in filtration one


def test_chart_pipeline(tmp_path):
    src = RunConfig(command="ext", ideal=4, s_max=4, t_max=96,
                    out=str(tmp_path))
    assert run(src) == 0
    overlay = tmp_path / "overlay.txt"
    overlay.write_text("d 1 (1,8) -> (2,40) sample\n", encoding="utf-8")
    cfg = RunConfig(command="chart", source=str(tmp_path / "ext.json"),
                    overlay=str(overlay), out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "chart.json"))
    assert payload["schema"] == "hopfext/chart/1"
    assert (tmp_path / "chart.svg").exists()
    assert (tmp_path / "chart.txt").exists()
    (arrow,) = payload["arrows"]
    assert arrow["source_dim"] == 1 and arrow["target_dim"] == 1
    # byte-identical on rerun
    first = _load(tmp_path, "chart.svg")
    assert run(cfg) == 0
    assert _load(tmp_path, "chart.svg") == first


def test_chart_missing_source_is_usage_error(tmp_path):
    assert main(["chart", "--source", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("data", [
    [{"s": 1, "t": 8, "dim": 1}],
    {"entries": [{"s": 1, "dim": 1}]},
    {"entries": [{"t": 8, "dim": 1}]},
    {"entries": [{"s": 1, "t": 8, "dim": "1"}]},
    {"entries": [[1, 8, 1]]},
    {"schema": "x"},
    {"entries": [{"s": True, "t": 8, "dim": 1}]},
    {"entries": [{"s": 1, "t": 8, "dim": -1}]},
    {"entries": [{"s": -1, "t": 8, "dim": 1}]},
    {"entries": [{"s": 1, "t": -8, "dim": 1}]},
    {"entries": [{"s": 1, "t": 8, "free": False, "torsion": []}]},
    {"entries": [{"s": 1, "t": 8, "torsion": "abc"}]},
], ids=["top-level-list", "entry-without-t", "entry-without-s",
        "string-dim", "entry-not-an-object", "no-entries-key", "bool-s",
        "negative-dim", "negative-s", "negative-t", "bool-free",
        "string-torsion"])
def test_chart_malformed_source_is_usage_error(tmp_path, capsys, data):
    src = tmp_path / "ext.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    assert main(["chart", "--source", str(src), "--out", str(tmp_path)]) == 2
    assert "chart source" in capsys.readouterr().err


def test_parser_defaults():
    cfg = config_from_args(build_parser().parse_args(["ext"]))
    assert (cfg.ideal, cfg.s_max, cfg.t_max, cfg.out) == (None, 6, 400, None)
    cfg = config_from_args(build_parser().parse_args(["bockstein"]))
    assert (cfg.tower, cfg.page, cfg.s_max, cfg.t_max) == (1, 1, 6, 400)


def test_verify_suite_passes(tmp_path):
    cfg = RunConfig(command="verify", out=str(tmp_path))
    assert run(cfg) == 0
    payload = json.loads(_load(tmp_path, "verify.json"))
    assert payload["schema"] == "hopfext/verify/1"
    assert payload["failed"] == 0
    assert payload["passed"] == len(CLAIMS)
    assert "first_failure" not in payload
    tags = [c["tag"] for c in payload["checks"]]
    assert tags == [c.tag for c in CLAIMS]
    assert len(tags) == len(set(tags))


def test_verify_reports_failing_and_raising_claims(tmp_path, monkeypatch,
                                                   capsys):
    def fails():
        raise claims.ClaimFailed("wrong at (1, 8)")

    def crashes():
        raise RuntimeError("boom")

    monkeypatch.setattr(claims, "CLAIMS", [
        claims.Claim("holds", "a claim that holds", lambda: None),
        claims.Claim("fails", "a claim that fails", fails),
        claims.Claim("raises", "a check that raises", crashes),
    ])
    cfg = RunConfig(command="verify", out=str(tmp_path))
    assert run(cfg) == 1
    payload = json.loads(_load(tmp_path, "verify.json"))
    assert payload["first_failure"] == "fails"
    assert (payload["passed"], payload["failed"]) == (1, 2)
    records = {c["tag"]: c for c in payload["checks"]}
    assert "error" not in records["holds"]
    assert records["fails"]["error"] == "wrong at (1, 8)"
    assert records["raises"]["error"] == "boom"
    assert records["raises"]["exception"] == "RuntimeError"
    assert "exception" not in records["fails"]
    assert not records["fails"]["pass"] and not records["raises"]["pass"]
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["holds:", "ok"], ["fails:", "FAIL"], ["raises:", "FAIL"]]
    assert lines[2].endswith(" RuntimeError")
    assert lines[1].endswith("s)")
