import json
import os
import subprocess
import sys

import pytest

import cscrystal
from cscrystal import bzl, laurent
from cscrystal.cli import main
from cscrystal.crystal import enumerate_crystal
from cscrystal.hpoly import HTable, h_table
from cscrystal.laurent import LaurentPoly
from cscrystal.rootsys import lambda_from_fundamental
from cscrystal.tableaux import tableau_from_json, triangle_from_json
from cscrystal.tpoly import TPoly
from frozen import H_TABLE_OMEGA2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--rank", "2", "--lambda", "0,1", "--shifted"
    )
    assert code == 0
    assert out.strip().endswith("count: 15")
    assert len(out.strip().split("\n")) == 16


def test_enumerate_fundamental(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--rank", "1", "--lambda", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("1 ")
    assert lines[-1] == "count: 2"


def test_enumerate_one_long_row(capsys):
    enumerate_crystal.cache_clear()  # list the crystal here, not from another test
    try:
        code, out, _ = run_cli(capsys, "enumerate", "--rank", "1", "--partition", "1500")
    finally:
        enumerate_crystal.cache_clear()
    assert code == 0
    assert out.endswith("count: 1501\n")


def test_enumerate_partition_flag(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "enumerate", "--rank", "2", "--partition", "3,2"
    )
    code_b, out_b, _ = run_cli(
        capsys, "enumerate", "--rank", "2", "--lambda", "1,2"
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--rank", "2", "--lambda", "1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8 == len(payload["tableaux"])
    for item in payload["tableaux"]:
        t = tableau_from_json({"rank": item["rank"], "rows": item["rows"]})
        assert list(map(sum, [item["content"]])) == [sum(map(len, t.rows))]


def test_enumerate_rejects_wrong_coeff_count(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--rank", "2", "--lambda", "1,1,1")
    assert code == 2
    assert "error:" in err


def test_rank_zero_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--rank", "0", "--lambda", "1")
    assert code == 2


def test_missing_weight_rejected(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--rank", "2")
    assert code == 2
    assert "lambda" in err or "partition" in err


def test_lambda_and_partition_together_rejected(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--rank", "2", "--lambda", "1,0", "--partition", "1"
    )
    assert code == 2
    assert out == ""
    assert "--partition" in err and "--lambda" in err


def test_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--rank", "2", "--bogus")
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_bzl_text(capsys):
    code, out, _ = run_cli(
        capsys, "bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3"
    )
    assert code == 0
    assert "path: (2; 2□, 0◯)" in out
    assert "stats: (2, 0◯; 2□)" in out
    assert "G = -q^3+q^2" in out
    assert "C = -t(1-t)  [-t+t^2]" in out
    assert "strict: yes" in out


def test_bzl_doubly_decorated_tableau(capsys):
    code, out, _ = run_cli(capsys, "bzl", "--rank", "2", "--tableau", "1 3 / 2")
    assert code == 0
    assert "C = 0" in out
    assert "strict: no" in out


def test_bzl_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "bzl", "--rank", "2", "--tableau", "1 2 3 / 2 3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["path"]["layout"] == "BZL"
    assert payload["stats"]["layout"] == "STATS"
    path = triangle_from_json(payload["path"])
    stats = triangle_from_json(payload["stats"])
    assert path == stats
    assert payload["g"] == [[2, 1], [1, -1]]
    assert payload["c_coeffs"] == [0, 0, 1, -1]


def test_bzl_rejects_bad_tableau(capsys):
    code, _, err = run_cli(capsys, "bzl", "--rank", "2", "--tableau", "2 1")
    assert code == 2
    assert "error:" in err


def test_bzl_rejects_nonstrict_shape(capsys):
    code, _, err = run_cli(capsys, "bzl", "--rank", "1", "--tableau", "1 / 2")
    assert code == 2


@pytest.mark.parametrize("command", ["hpoly", "verify"])
def test_shifted_shape_with_nonzero_last_part_rejected(capsys, command):
    # lambda + rho = (4, 2, 1) decreases strictly, but a strict shape
    # must also end in 0, and the message has to say which rule failed
    code, out, err = run_cli(capsys, command, "--rank", "2", "--partition", "2,1,1")
    assert code == 2
    assert out == ""
    assert "(4, 2, 1) has last part 1" in err
    assert "not strictly decreasing" not in err


def test_bzl_internal_breach_exit_code(capsys, monkeypatch):
    import cscrystal.cli as cli_module
    from cscrystal.bzl import decorate_via_stats as real

    def tampered(t):
        tri = real(t)
        flipped = frozenset({(1, 1)} ^ tri.circled)
        return type(tri)(tri.rank, tri.grid, flipped, tri.boxed)

    monkeypatch.setattr(cli_module, "decorate_via_stats", tampered)
    code, _, err = run_cli(capsys, "bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3")
    assert code == 3
    assert "invariant" in err


def test_verify_text_and_timing_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--rank", "2", "--lambda", "0,1")
    assert code == 0
    assert "identity: equal" in out
    assert "reversed form: equal" in out
    assert "elapsed:" in err
    assert "elapsed:" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--rank", "1", "--lambda", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_equal"] is True
    assert payload["reversed_form_equal"] is True
    assert payload["lhs_terms"] == payload["rhs_terms"]


def test_verify_exits_1_when_one_element_breaks_the_bridge(capsys, monkeypatch):
    # one extra box in one live block's walk breaks the walk of the
    # elements that share that block; the weight sums still come from
    # the statistics, so only the block check can notice
    real = bzl._block_walk
    tampered = []

    def one_extra_box(lower, upper):
        entries, boxed = real(lower, upper)
        free = [cell for cell in entries if cell not in boxed]
        if tampered or not free or bzl._circled(entries) & boxed:
            return entries, boxed
        tampered.append((lower, upper))
        return entries, boxed | {free[0]}

    monkeypatch.setattr(bzl, "_block_walk", one_extra_box)
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert len(tampered) == 1
    assert code == 1
    assert "identity: equal" in out
    assert "reversed form: MISMATCH" in out


def test_verify_exits_1_when_one_step_count_changes(capsys, monkeypatch):
    # one more step in one block 1 walk with a nonzero step count keeps
    # that block's circled and boxed cells, so its elements' mark counts
    # do not change; only comparing the step counts with a_{i,j} sees it
    real = bzl._block_walk
    tampered = []

    def one_more_step(lower, upper):
        entries, boxed = real(lower, upper)
        if tampered or len(lower) != 1 or not entries[(1, 1)]:
            return entries, boxed
        tampered.append((lower, upper))
        changed = {**entries, (1, 1): entries[(1, 1)] + 1}
        assert (bzl._circled(changed), boxed) == (bzl._circled(entries), boxed)
        return changed, boxed

    monkeypatch.setattr(bzl, "_block_walk", one_more_step)
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert len(tampered) == 1
    assert code == 1
    assert "identity: equal" in out
    assert "reversed form: MISMATCH" in out


def _one_more_rhs_term(monkeypatch):
    """Make cs_rhs report an extra term 1 * z^(0,...,0), where both
    sides are zero."""
    real = laurent.cs_rhs

    def one_more_term(lam, sums=None):
        terms = dict(real(lam, sums).terms)
        terms[(0,) * (lam.rank + 1)] = TPoly((1,))
        return LaurentPoly(lam.rank, terms)

    monkeypatch.setattr(laurent, "cs_rhs", one_more_term)


def test_verify_exits_1_when_the_identity_fails(capsys, monkeypatch):
    _one_more_rhs_term(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert code == 1
    assert "identity: MISMATCH" in out
    assert "first mismatch at z^(0, 0, 0): lhs 0 vs rhs 1" in out
    assert "reversed form: equal" in out


def test_verify_json_reports_the_first_mismatch(capsys, monkeypatch):
    _one_more_rhs_term(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--rank", "2", "--lambda", "1,0", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["identity_equal"] is False
    assert payload["first_mismatch"] == {"exp": [0, 0, 0], "lhs": [], "rhs": [1]}
    assert payload["reversed_form_equal"] is True


def test_verify_does_not_import_sympy():
    # sympy is the tests' reference for the left-hand side only
    code = (
        "import sys\n"
        "from cscrystal.cli import main\n"
        "assert main(['verify', '--rank', '2', '--lambda', '1,0']) == 0\n"
        "assert 'sympy' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _package_path()},
    )
    assert proc.returncode == 0, proc.stderr


def _loaded_modules(code="pass"):
    """sys.modules of a child process after it runs code, read from the
    last line of its stdout."""
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _package_path()},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_text_run_loads_no_dataclasses_inspect_or_json():
    # against what a bare interpreter loads in the same environment, a
    # text-format run adds none of these start-up costs; json is loaded
    # only when JSON is written
    baseline = _loaded_modules()
    verify = "from cscrystal.cli import main\nassert main(['verify', '--rank', '2', '--lambda', '1,0'{}]) == 0"
    added = _loaded_modules(verify.format("")) - baseline
    assert "cscrystal.cli" in added
    assert not added & {"dataclasses", "inspect", "json"}
    assert "json" in _loaded_modules(verify.format(", '--format', 'json'"))


def test_threads_flag_validation(capsys):
    # there is no thread pool: --threads is an unknown flag
    for command in ("verify", "hpoly"):
        code, out, err = run_cli(
            capsys, command, "--rank", "1", "--lambda", "1", "--threads", "2"
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err


def test_hpoly_text_matches_frozen_table(capsys):
    code, out, _ = run_cli(capsys, "hpoly", "--rank", "2", "--lambda", "0,1")
    assert code == 0
    assert "rows: 12" in out
    assert "mu=a1+2a2: -2t+2t^2" in out
    assert "mu=3a1+3a2: -t^3" in out


def test_hpoly_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "hpoly", "--rank", "2", "--lambda", "0,1", "--format", "json"
    )
    assert code == 0
    table = HTable.from_json_dict(json.loads(out))
    assert table.rows == h_table(lambda_from_fundamental((0, 1), 2)).rows
    got = {mu.c: poly.coeffs for mu, poly in table.rows.items()}
    assert got == {mu: tuple(c) for mu, c in H_TABLE_OMEGA2.items()}


def test_hpoly_csv(capsys):
    code, out, _ = run_cli(
        capsys, "hpoly", "--rank", "2", "--lambda", "0,1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c1,c2,t0,t1,t2,t3"
    assert "0,0,1,0,0,0" in lines
    assert len(lines) == 13


def test_hpoly_latex(capsys):
    code, out, _ = run_cli(
        capsys, "hpoly", "--rank", "2", "--lambda", "0,1", "--format", "latex"
    )
    assert code == 0
    assert "\\alpha_1+2\\alpha_2" in out
    assert "-2q^{-1}+2q^{-2}" in out


@pytest.mark.parametrize("point", ["inf", "-1", "1"])
def test_hpoly_specializations_pass(capsys, point):
    code, out, _ = run_cli(
        capsys, "hpoly", "--rank", "2", "--lambda", "0,1", "--at", point
    )
    assert code == 0
    assert "FAIL" not in out
    assert f"at q={point}" in out


def test_hpoly_specialization_csv_has_oracle_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "hpoly",
        "--rank",
        "2",
        "--lambda",
        "0,1",
        "--format",
        "csv",
        "--at",
        "-1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",at_-1,oracle,ok")
    assert all(line.endswith(",ok") for line in lines[1:])


def test_graph_chain(capsys):
    code, out, _ = run_cli(capsys, "graph", "--rank", "2", "--lambda", "1,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    assert sum(1 for ln in lines if "[label=" in ln and "->" not in ln) == 3
    edges = [ln for ln in lines if "->" in ln]
    assert len(edges) == 2
    assert any('label="1"' in e for e in edges)
    assert any('label="2"' in e for e in edges)


def test_graph_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "graph", "--rank", "2", "--lambda", "0,1", "--shifted")
    _, out2, _ = run_cli(capsys, "graph", "--rank", "2", "--lambda", "0,1", "--shifted")
    assert out1 == out2
    from cscrystal.crystal import enumerate_crystal, f_op
    from cscrystal.tableaux import Shape

    expected = sum(
        1
        for t in enumerate_crystal(Shape((3, 2, 0)), 2)
        for i in (1, 2)
        if f_op(t, i) is not None
    )
    assert out1.count("->") == expected == 18


def _package_path():
    # a child process imports the same cscrystal as this one, installed or not
    src = os.path.dirname(os.path.dirname(cscrystal.__file__))
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cscrystal", "enumerate", "--rank", "1", "--lambda", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _package_path()},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("count: 2")


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    # one process: a bzl call, a usage error, then a verify, against
    # fresh processes making each call alone
    calls = [
        ["bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3"],
        ["verify", "--rank", "2", "--bogus"],
        ["verify", "--rank", "2", "--lambda", "1,1"],
    ]
    import cscrystal.cli as cli_module

    built = []
    real = cli_module.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli_module, "build_parser", counted)
    cli_module._parser.cache_clear()
    in_process = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        in_process.append((code, out.encode("utf-8")))
    assert len(built) == 1
    cli_module._parser.cache_clear()  # leave no parser built from the wrapper

    env = {**os.environ, "PYTHONPATH": _package_path(), "PYTHONIOENCODING": "utf-8"}
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "cscrystal", *argv], capture_output=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in in_process] == [0, 2, 0]
    assert in_process == fresh
