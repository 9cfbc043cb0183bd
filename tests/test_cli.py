import hashlib
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cscrystal
from cscrystal import bzl, cli, laurent
from cscrystal.bzl import decorate_via_stats
from cscrystal.cli import main
from cscrystal.crystal import enumerate_crystal
from cscrystal.hpoly import h_table
from cscrystal.laurent import LaurentPoly
from cscrystal.rootsys import Shape, lambda_from_fundamental
from cscrystal.tableaux import BZL_LAYOUT, STATS_LAYOUT, DecoratedTriangle, content, make_tableau
from cscrystal.tpoly import TPoly, q_text
from conftest import CORNER_WEIGHTS, check_triangle_json, shifted_elements
from frozen import H_TABLE_OMEGA2
from stats_twin import twin_decoration, twin_g_from_triangle


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
    elements = enumerate_crystal(Shape((2, 1, 0)), 2)
    assert payload["tableaux"] == [
        {**t.to_json_dict(), "content": list(content(t))} for t in elements
    ]


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
    tri = decorate_via_stats(make_tableau(2, [[1, 2, 3], [2, 3]]))
    check_triangle_json(payload["path"], tri, BZL_LAYOUT)
    check_triangle_json(payload["stats"], tri, STATS_LAYOUT)
    assert payload["g"] == [[2, 1], [1, -1]]
    assert payload["c_coeffs"] == [0, 0, 1, -1]


# lambda = 0, omega_1 and omega_r at ranks 1-3 (omega_1 = omega_r at rank 1)
@pytest.mark.parametrize("rank, coeffs", CORNER_WEIGHTS, ids=str)
def test_bzl_g_on_every_tableau_of_the_shifted_crystal(capsys, rank, coeffs):
    # G in JSON is the per-entry product of the twin's own triangle, and
    # the text line prints the same pairs
    for t in shifted_elements(lambda_from_fundamental(coeffs, rank)):
        argv = ("bzl", "--rank", str(rank), "--tableau", t.to_text())
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        want = twin_g_from_triangle(DecoratedTriangle(rank, *twin_decoration(rank, t.rows)))
        assert json.loads(out)["g"] == want, t.rows
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert f"\nG = {q_text(want)}\n" in out, t.rows


def test_bzl_rejects_bad_tableau(capsys):
    # every rejection of parse_tableau, byte for byte: its entries are
    # ints once parsed, so it skips make_tableau's type checks and must
    # still refuse each of these with the same message
    rejected = {
        "1 x 2": "non-integer entry in tableau text '1 x 2'",
        "1 2 / / 3": "empty row in tableau text '1 2 / / 3'",
        "1 4": "entry 4 in row 1 outside 1..3",
        "0 1": "entry 0 in row 1 outside 1..3",
        "2 1": "row 1 is not weakly increasing: (2, 1)",
        "1 / 1 2": "row lengths must be weakly decreasing",
        "1 1 / 1": "column 1 not strictly increasing between rows 1 and 2",
        "1 / 2 / 3 / 4": "too many rows (4) for rank 2",
    }
    for text, message in rejected.items():
        got = run_cli(capsys, "bzl", "--rank", "2", "--tableau", text)
        assert got == (2, "", f"error: {message}\n"), text


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


@pytest.mark.parametrize("command", ["verify", "enumerate", "hpoly", "graph"])
def test_overflowing_weight_exits_2(capsys, command):
    # a part too large for an index overflows as soon as the crystal is
    # listed: that is an input error (exit 2), not a failed check (exit 1)
    code, out, err = run_cli(capsys, command, "--rank", "2", "--lambda", "99999999999999999999,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --lambda ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "enumerate", "hpoly", "graph"])
@pytest.mark.parametrize("flag, value", [("--lambda", "9223372036854775808,0"), ("--partition", "9223372036854775808")])
def test_part_past_sys_maxsize_names_its_option(capsys, command, flag, value):
    # 2^63 + rank exceeds sys.maxsize: refused before anything is listed
    code, out, err = run_cli(capsys, command, "--rank", "2", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} gives a part of 9223372036854775808, and part + rank must be at most {sys.maxsize}\n"


@pytest.mark.parametrize("command", ["verify", "enumerate", "hpoly", "graph"])
def test_weight_too_large_to_list_exits_2(capsys, command):
    # 2^62 passes the sys.maxsize check, but itertools refuses to list its
    # rows with a MemoryError before allocating: an input error, not a
    # failed check (exit 1) or a traceback
    code, out, err = run_cli(capsys, command, "--rank", "2", "--lambda", "4611686018427387904,0")
    assert (code, out, err) == (2, "", "error: out of memory\n")


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
    # the statistics, so only the block check can notice, and stderr
    # names that block.  A block's walk is a function of its two GT
    # rows, so the tamper picks one block and changes it on every walk
    real = bzl._block_walk
    tampered = []

    def one_extra_box(lower, upper):
        entries, boxed = real(lower, upper)
        free = [cell for cell in entries if cell not in boxed]
        if tampered == [] and free and not bzl._circled(entries) & boxed:
            tampered.append((lower, upper))
        if tampered != [(lower, upper)]:
            return entries, boxed
        return entries, boxed | {free[0]}

    monkeypatch.setattr(bzl, "_block_walk", one_extra_box)
    code, out, err = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert len(tampered) == 1
    assert code == 1
    assert "identity: equal" in out
    assert "reversed form: MISMATCH" in out
    (lower, upper), = tampered
    block = (len(lower), lower, upper)
    assert f"walk and statistics differ at block (j, GT row j, GT row j+1) = {block}\n" in err
    assert "walk and statistics" not in out


def test_verify_exits_1_when_one_step_count_changes(capsys, monkeypatch):
    # one more step in one block 1 walk with a nonzero step count keeps
    # that block's circled and boxed cells, so its elements' mark counts
    # do not change; only comparing the step counts with a_{i,j} sees it
    real = bzl._block_walk
    tampered = []

    def one_more_step(lower, upper):
        entries, boxed = real(lower, upper)
        if tampered == [] and len(lower) == 1 and entries[(1, 1)]:
            tampered.append((lower, upper))
        if tampered != [(lower, upper)]:
            return entries, boxed
        changed = {**entries, (1, 1): entries[(1, 1)] + 1}
        assert (bzl._circled(changed), boxed) == (bzl._circled(entries), boxed)
        return changed, boxed

    monkeypatch.setattr(bzl, "_block_walk", one_more_step)
    code, out, err = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert len(tampered) == 1
    assert code == 1
    assert "identity: equal" in out
    assert "reversed form: MISMATCH" in out
    (lower, upper), = tampered
    assert f"= {(1, lower, upper)}\n" in err


def test_verify_walks_each_block_at_most_once(capsys, monkeypatch):
    # every block 1 walk gets one more step, so the first block 1 walked
    # fails; verify names it from that walk, after the blocks of j = 3
    # and 2, and walks no block twice
    real = bzl._block_walk
    walks = {}

    def counted(lower, upper):
        walks[lower, upper] = walks.get((lower, upper), 0) + 1
        entries, boxed = real(lower, upper)
        if len(lower) > 1:
            return entries, boxed
        return {**entries, (1, 1): entries[(1, 1)] + 1}, boxed

    monkeypatch.setattr(bzl, "_block_walk", counted)
    code, out, err = run_cli(capsys, "verify", "--rank", "3", "--lambda", "1,0,0")
    assert code == 1
    assert "reversed form: MISMATCH" in out
    (lower, upper), = [key for key in walks if len(key[0]) == 1]
    assert f"= {(1, lower, upper)}\n" in err
    assert max(walks.values()) == 1, {key: n for key, n in walks.items() if n > 1}
    assert len(walks) > 1


def _one_more_rhs_term(monkeypatch):
    """Make cs_rhs report an extra term 1 * z^(0,...,0), where both
    sides are zero."""
    real = laurent.cs_rhs

    def one_more_term(lam, sums=None):
        flat = dict(real(lam, sums).flat)
        flat[(0,) * (lam.rank + 2)] = 1
        return LaurentPoly(lam.rank, flat)

    monkeypatch.setattr(laurent, "cs_rhs", one_more_term)


def test_verify_exits_1_when_the_identity_fails(capsys, monkeypatch):
    _one_more_rhs_term(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
    assert code == 1
    assert "identity: MISMATCH" in out
    assert "first mismatch at z^(0, 0, 0): lhs 0 vs rhs 1" in out
    # the reversed form is the identity relabelled: it fails with it
    assert "reversed form: MISMATCH" in out


def test_verify_json_reports_the_first_mismatch(capsys, monkeypatch):
    _one_more_rhs_term(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--rank", "2", "--lambda", "1,0", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["identity_equal"] is False
    assert payload["first_mismatch"] == {"exp": [0, 0, 0], "lhs": [], "rhs": [1]}
    assert payload["reversed_form_equal"] is False


def _emitted_payloads(monkeypatch):
    """The objects cli._emit_json is given, in call order."""
    payloads, real = [], cli._emit_json

    def recording(obj):
        payloads.append(obj)
        real(obj)

    monkeypatch.setattr(cli, "_emit_json", recording)
    return payloads


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--rank", "2", "--lambda", "1,1", "--shifted"),
        ("enumerate", "--rank", "1", "--partition", "0"),
        ("bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3"),
        ("bzl", "--rank", "3", "--tableau", "1 1 2 4 / 2 3 4 / 4"),
        ("verify", "--rank", "2", "--lambda", "1,0"),
        ("hpoly", "--rank", "3", "--lambda", "1,0,1"),
        ("hpoly", "--rank", "3", "--lambda", "1,1,1", "--at", "-1"),
        ("hpoly", "--rank", "2", "--lambda", "0,1", "--at", "inf"),
        ("hpoly", "--rank", "2", "--lambda", "2,0", "--at", "1"),
    ],
)
def test_json_writer_matches_json_dumps_on_every_payload(capsys, monkeypatch, argv):
    payloads = _emitted_payloads(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    [payload] = payloads
    assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def test_json_writer_matches_json_dumps_on_a_mismatch(capsys, monkeypatch):
    _one_more_rhs_term(monkeypatch)
    payloads = _emitted_payloads(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0", "--format", "json")
    assert code == 1
    [payload] = payloads
    assert payload["first_mismatch"]["lhs"] == []  # an empty list, written "[]"
    assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


_json_texts = st.text(
    alphabet=st.sampled_from(['"', "\\", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "a", " ", "∅", "◯", "\u2028"])
    | st.characters(),
    max_size=8,
)
_json_nests = st.recursive(
    st.booleans() | st.integers() | _json_texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_texts, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_nests)
def test_json_writer_matches_json_dumps_on_drawn_nests(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


def test_json_writer_on_int_lists_and_refusals():
    # bools in a list of ints are not ints to the one-pass join
    for obj in ([1, True, 0], [[0, 1], [2, -3]], {"g": [[3, -1], [2, 1]]}, [10**30, -1], [[], {}]):
        assert cli._json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)
    for unwritten in (1.5, None, (1, 2)):
        with pytest.raises(TypeError):
            cli._json({"x": unwritten})


def _verdicts(out):
    """The identity and reversed-form lines of a text verify."""
    lines = out.splitlines()
    return [line.split(" (")[0] for line in lines if line.startswith(("identity:", "reversed form:"))]


@pytest.mark.parametrize("tamper", ["none", "cs_rhs"])
def test_reversed_form_is_equal_only_with_the_identity(capsys, monkeypatch, suite, tamper):
    if tamper == "cs_rhs":
        _one_more_rhs_term(monkeypatch)
    for lam in suite:
        args = ["verify", "--rank", str(lam.rank), "--partition", ",".join(map(str, lam.parts))]
        code, out, err = run_cli(capsys, *args)
        verdicts = _verdicts(out)
        want = "equal" if tamper == "none" else "MISMATCH"
        assert verdicts == [f"identity: {want}", f"reversed form: {want}"], (lam, out)
        assert code == (0 if tamper == "none" else 1)
        assert "walk and statistics" not in err


def _one_changed_weight_sum(monkeypatch, change):
    """Make verify's shifted_sums return the sums with one weight's sum
    changed; no block walk changes, so every block agrees."""
    import cscrystal.cli as cli_module

    real = cli_module.shifted_sums

    def tampered(lam):
        sums = real(lam)
        w, p = next((w, p) for w, p in sums.items() if p.coeffs)
        return {**sums, w: TPoly(change(p.coeffs))}

    monkeypatch.setattr(cli_module, "shifted_sums", tampered)


def test_verify_sees_one_changed_weight_sum(capsys, monkeypatch):
    # every block's walk still agrees with its statistics, so only the
    # identity sees the change, and the reversed form fails with it
    for change in (lambda c: c + (1,), lambda c: (c[0] + 1,) + c[1:]):
        with monkeypatch.context() as patch:
            _one_changed_weight_sum(patch, change)
            code, out, err = run_cli(capsys, "verify", "--rank", "2", "--lambda", "1,0")
        assert code == 1
        assert _verdicts(out) == ["identity: MISMATCH", "reversed form: MISMATCH"]
        assert "walk and statistics" not in err


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
    # text-format run adds none of these start-up costs; no run loads
    # json, which cli._json writes without, and argparse (with gettext)
    # loads only for an argv the fast reader leaves to it, such as --help
    baseline = _loaded_modules()
    verify = "from cscrystal.cli import main\nassert main(['verify', '--rank', '2', '--lambda', '1,0'{}]) == 0"
    added = _loaded_modules(verify.format("")) - baseline
    assert "cscrystal.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "argparse", "gettext"}
    as_json = _loaded_modules(verify.format(", '--format', 'json'")) - baseline
    assert "json" not in as_json
    assert not as_json & {"argparse", "gettext"}
    assert not (_loaded_modules("import cscrystal.cli") - baseline) & {"argparse", "gettext"}
    assert "argparse" in _loaded_modules("from cscrystal.cli import main\nassert main(['--help']) == 0")


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
    payload = json.loads(out)
    assert payload == h_table(lambda_from_fundamental((0, 1), 2)).to_json_dict()
    got = {tuple(row["mu"]): tuple(row["coeffs"]) for row in payload["rows"]}
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


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
def test_hpoly_exits_1_when_two_rows_miss_their_oracle(capsys, monkeypatch, fmt):
    # the q = 1 oracle, off by one on the two rows with |mu| = 1 (a1 and
    # a2, at w = lambda + rho - mu = (2, 3, 0) and (3, 1, 1)): every
    # format exits 1, and says which rows failed
    import cscrystal.cli as cli_module

    real = cli_module.dot_orbit_sign
    monkeypatch.setattr(
        cli_module, "dot_orbit_sign", lambda lam, w: real(lam, w) + (w in {(2, 3, 0), (3, 1, 1)})
    )
    code, out, err = run_cli(
        capsys, "hpoly", "--rank", "2", "--lambda", "0,1", "--at", "1", "--format", fmt
    )
    assert code == 1
    if fmt in ("text", "csv"):
        assert out.count("FAIL") == 2
    elif fmt == "json":
        assert [row["ok"] for row in json.loads(out)["specialized"]].count(False) == 2
    else:
        assert err == "2 specialization mismatches\n"


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
    from cscrystal.crystal import f_op

    expected = sum(
        1
        for t in enumerate_crystal(Shape((3, 2, 0)), 2)
        for i in (1, 2)
        if f_op(t, i) is not None
    )
    assert out1.count("->") == expected == 18


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--rank", "3", "--lambda", "0,0,0", "--shifted"],
            "3ab3d9d45cba06a2de7fd598151ecdf548f410639380a9103a2ae621e0861072",
        ),
        (
            ["--rank", "3", "--lambda", "1,1,0", "--shifted"],
            "469103f4644977d8d22c6f3e15e29ded8d84c52d81e29becd5bf8df40952c0d6",
        ),
        (
            ["--rank", "4", "--lambda", "1,0,0,0", "--shifted"],
            "0910053e4e449a22d1de6001e9cd78682c3d5ac12e4feea3f1cdd00caf612edd",
        ),
        (
            ["--rank", "4", "--lambda", "0,1,0,1"],
            "df6237a586873f926df2d193933feab6735a940a68fe98d01a79c9099b75d0ab",
        ),
    ],
)
def test_graph_bytes_are_pinned(capsys, argv, digest):
    # graphs past rank 2, where signatures span several rows and columns:
    # the DOT text, edges and their order, must not change
    code, out, _ = run_cli(capsys, "graph", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["enumerate", "--rank", "2", "--lambda", "1,0", "--shifted", "--format", "json"],
            "c4bcd2dca47cbe75b526339049f48108fce0b71cf32169fca264e6f3021d246e",
        ),
        (
            ["bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3", "--format", "json"],
            "fa433350e1a0a329cf6e3a873d4a783624d07c9f70f0a4264134948aa658be1d",
        ),
        (
            ["bzl", "--rank", "2", "--tableau", "1 3 / 2", "--format", "json"],
            "a07eb211f8718e3cdb89d8b3853f553729e93111eedd6a8abeaf1576820a6721",
        ),
        (
            ["verify", "--rank", "2", "--lambda", "1,1", "--format", "json"],
            "5bbf59d46c7190013dfd5700d8fc4e6c5aa9a30ff15f22772bc2230cd2b9dbfa",
        ),
        (
            ["hpoly", "--rank", "2", "--lambda", "0,1", "--at", "-1", "--format", "json"],
            "8618c646d8778a328b2dc002412e4b87261aac6c95e3156f7ff4342f00c1a794",
        ),
        # bzl's text form at ranks 2-4, a strict and a non-strict tableau each
        (
            ["bzl", "--rank", "2", "--tableau", "1 2 2 / 3", "--format", "text"],
            "850a7661f215605a47727f87e6fc6ccb133c7e15bb0c5ea1339a9ff600020c4a",
        ),
        (
            ["bzl", "--rank", "2", "--tableau", "1 3 3 / 2", "--format", "text"],
            "9b09ff832ded3fbf75327ebde614375525cd1aad2cc57216132edaf6f8c93a2b",
        ),
        (
            ["bzl", "--rank", "3", "--tableau", "1 1 3 3 / 3 3 / 4", "--format", "text"],
            "663b83827cda47afec60eba1152e06d418550bf479664cc71f75dcdff21f284a",
        ),
        (
            ["bzl", "--rank", "3", "--tableau", "1 1 4 4 / 2 4 / 3", "--format", "text"],
            "7ccf6de410009d24fb9df2fb95e35f96cc414edef64d3b23b81c8334903af5a9",
        ),
        (
            ["bzl", "--rank", "4", "--tableau", "1 1 2 2 5 / 2 2 3 / 4 5 / 5", "--format", "text"],
            "6dd9b388deec06cda0db050ad4bb5c775c7ac52938f34888337b7351246d3b4c",
        ),
        (
            ["bzl", "--rank", "4", "--tableau", "1 1 2 4 5 / 2 2 3 / 4 4 / 5", "--format", "text"],
            "c791824142777eab5adf6693b8c2f8d4a62f2a08cb880baeb355563e5a4bf2cb",
        ),
        # hpoly's checked forms at each point: text, csv and latex, and
        # json at the two points the pin above leaves out
        *(
            (
                ["hpoly", "--rank", "3", "--lambda", "1,0,1", "--at", at, "--format", fmt],
                digest,
            )
            for at, fmt, digest in [
                ("inf", "text", "f83e9ac2c52e2329753ea6b6349272b2d0373c1df3f12583a00c5febc1c0c41a"),
                ("inf", "csv", "1b6007a0de40e67397480fc1dfe804ed41c82b1b1f232ec9fbd45d19eb00e7b5"),
                ("inf", "latex", "5334143ef016a2a7bfff44e872f5edc443a0a9542c657040108d287d839cebed"),
                ("inf", "json", "114f7ac8f8cbb0cc09bc7813a4568a7dfcb040b98cbf2aeb3cb1672fde86e82c"),
                ("-1", "text", "84d31240f711f661e39dda5e269085850b6b52eeaa8f2d49c0a76faba5e24d80"),
                ("-1", "csv", "8e924c511febc07aea871013041ae746cb14e1ec452fb2cc38042ed3a3c76295"),
                ("-1", "latex", "5334143ef016a2a7bfff44e872f5edc443a0a9542c657040108d287d839cebed"),
                ("1", "text", "4fb8f64a443a106cc43c21b74bbc3c654474d773d0ae0965beff03424e1ae7c2"),
                ("1", "csv", "6d7e13e89c2eefb4f3084af82789102bb5c17383eea4146a4337f5c05f004360"),
                ("1", "latex", "5334143ef016a2a7bfff44e872f5edc443a0a9542c657040108d287d839cebed"),
                ("1", "json", "c43bfd002228cfc857da9686b686fdc6fc29e9afea6cf8eb6617b39ff7a927ce"),
            ]
        ),
    ],
)
def test_json_bytes_are_pinned(capsys, argv, digest):
    # the JSON forms are output only, read back by nothing in the
    # package: their bytes, keys and key order, must not change; nor may
    # the bytes of bzl's text form, whose triangles DecoratedTriangle.inline
    # prints row by row
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _run_module(monkeypatch, *argv) -> int:
    """Exit code of `python -m cscrystal *argv`, run in this process.

    entry ends its process with os._exit, which here would end pytest's;
    the stand-in raises SystemExit with the same code instead."""

    def _exit(code):
        raise SystemExit(code)

    monkeypatch.setattr(sys, "argv", ["cs-crystal", *argv])
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("cscrystal", run_name="__main__")
    return exc.value.code


def test_module_entry_freezes_once_before_parsing(capsys, monkeypatch):
    # the start-up heap is frozen before the fast reader first reads argv,
    # and only once; argparse's parser is reached only for an argv the
    # reader leaves to it, such as an abbreviated flag
    import cscrystal.cli as cli_module

    events = []
    real_reader, real_parser = cli_module._fast_args, cli_module._parser

    def reader(argv):
        events.append("read")
        return real_reader(argv)

    def parser():
        events.append("parse")
        return real_parser()

    monkeypatch.setattr("gc.freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli_module, "_fast_args", reader)
    monkeypatch.setattr(cli_module, "_parser", parser)
    for flag, reads in (("--lambda", ["read"]), ("--lam", ["read", "parse"])):
        events.clear()
        assert _run_module(monkeypatch, "verify", "--rank", "2", flag, "1,0") == 0
        assert events == ["freeze", *reads]
        assert capsys.readouterr().out.endswith("reversed form: equal\n")


def test_in_process_main_never_freezes(capsys, monkeypatch):
    # perfbench/child.py calls main 1000 times in one process; a freeze
    # per call would keep each call's garbage for good
    frozen = []
    monkeypatch.setattr("gc.freeze", lambda: frozen.append(1))
    calls = [
        ["bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3"],
        ["verify", "--rank", "2", "--bogus"],
        ["hpoly", "--rank", "2", "--lambda", "1,0", "--at", "inf"],
    ]
    assert [main(argv) for argv in calls] == [0, 2, 0]
    assert frozen == []


def test_console_script_is_the_module_entry(monkeypatch):
    # pyproject's cs-crystal names the function `python -m cscrystal`
    # calls, so the installed script freezes as well
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = re.search(
        r'^\[project\.scripts\]\ncs-crystal = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M
    )
    module, name = target.groups()
    called = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: called.append(1) or 0)
    assert _run_module(monkeypatch, "verify", "--rank", "2", "--lambda", "1,0") == 0
    assert called == [1]


@pytest.mark.parametrize("command", ["enumerate", "graph"])
def test_closed_stdout_pipe_exits_141(command):
    # rank 4 omega_1 shifted prints 136 kB (enumerate) and 294 kB (graph),
    # more than a 64 KiB pipe holds, so the process is still writing when
    # the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "cscrystal", command, "--rank", "4", "--lambda", "1,0,0,0", "--shifted"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _package_path()},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert first.strip() and err == b""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 141),
        (["verify", "--help"], 141),
        (["enumerate", "--rank", "1", "--lambda", "1"], 141),
        # a usage error writes only to stderr, so the gone reader is not seen
        (["verify", "--rank", "2", "--lambda", "1,1", "--bogus"], 2),
        # hpoly's text rows go out in one write
        (["hpoly", "--rank", "2", "--lambda", "1,0"], 141),
    ],
)
def test_reader_gone_before_the_first_write(argv, code):
    # stdout is a pipe whose read end is closed before the process starts:
    # argparse's help, which argparse itself would write and whose broken
    # pipe it would swallow, exits 141 like any other output
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cscrystal", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _package_path()},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    if code == 141:
        assert proc.stderr == b""
    else:
        assert b"unrecognized arguments: --bogus" in proc.stderr
        assert b"Traceback" not in proc.stderr


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes."""

    def __init__(self, name, events, broken=False):
        self.name, self.events, self.broken = name, events, broken
        self.written = []

    def write(self, text):
        self.written.append(text)

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")


def _entry_events(monkeypatch, code, broken=False):
    """What entry does around a main() that returns code: the events,
    the code os._exit received, and what reached stderr."""
    import cscrystal.cli as cli_module

    events = []

    class Exited(Exception):
        pass

    def _exit(code):
        events.append(("exit", code))
        raise Exited

    err = _Stream("stderr", events)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, broken))
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr("gc.freeze", lambda: None)
    monkeypatch.setattr(cli_module, "main", lambda: events.append("main") or code)
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(Exited):
        cli_module.entry()
    return events, err.written


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_entry_flushes_both_streams_then_exits_with_mains_code(monkeypatch, code):
    events, _ = _entry_events(monkeypatch, code)
    assert events == ["main", "flush stdout", "flush stderr", ("exit", code)]


def test_entry_exits_141_when_the_last_flush_finds_the_reader_gone(monkeypatch):
    events, err = _entry_events(monkeypatch, 0, broken=True)
    assert events == ["main", "flush stdout", "flush stderr", ("exit", 141)]
    assert err == []


def _spawned(argv, monkeypatch):
    """(exit code, stdout bytes, stderr bytes) of `python -m cscrystal
    *argv`, with stdout and stderr pipes that buffer as they do in a
    pipeline (no PYTHONUNBUFFERED) and argparse's width fixed at 80."""
    monkeypatch.setenv("COLUMNS", "80")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "cscrystal", *argv],
        capture_output=True,
        env={**env, "PYTHONPATH": _package_path(), "PYTHONIOENCODING": "utf-8"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_output_larger_than_a_pipe_arrives_whole(capsys, monkeypatch):
    # 136 kB, more than a pipe holds: os._exit comes only after the last
    # byte is written, so the reader gets all of it
    argv = ["enumerate", "--rank", "4", "--lambda", "1,0,0,0", "--shifted"]
    code, out, _ = run_cli(capsys, *argv)
    spawned_code, spawned_out, _ = _spawned(argv, monkeypatch)
    assert len(spawned_out) > 65536
    assert code == spawned_code == 0
    assert spawned_out == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv", [["--help"], ["hpoly", "--help"], ["verify", "--rank", "2", "--bogus"]]
)
def test_module_writes_what_main_left_buffered(capsys, monkeypatch, argv):
    # argparse writes help and usage errors without a flush, and main
    # returns; entry's own flush is what gets them out before os._exit
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert out or err
    assert _spawned(argv, monkeypatch) == (code, out.encode("utf-8"), err.encode("utf-8"))


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
    # well-formed bzl calls, as perfbench's bzl-sample makes them, take
    # the fast reader and build no parser
    tableaux = [(1, "1 1 2"), (2, "1 1 2 / 2 3"), (3, "1 1 2 4 / 2 3 / 4")]
    for k in range(1000):
        rank, text = tableaux[k % 3]
        assert run_cli(capsys, "bzl", "--rank", str(rank), "--tableau", text)[0] == 0
    assert cli_module._parser.cache_info().misses == 0
    assert built == []
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
