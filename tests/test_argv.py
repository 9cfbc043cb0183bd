"""cli._fast_args against the argparse parser it stands in front of.

The fast reader parses a plainly written argv with no argparse; anything
else it leaves to cli.build_parser's parser.  Its twin is the parser
tests/reference_parser.py writes out by hand: for every argv the reader
either declines or returns exactly what that parser sets, and it never
accepts an argv the parser rejects.  What argparse still handles (help,
usage errors) must come out as the reference parser's own bytes.
"""

import ast
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cscrystal import cli
from reference_parser import build_parser

REFERENCE = build_parser()
RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
BZL_SAMPLE_ARGV = ["bzl", "--rank", "4", "--tableau", "1 1 1 2 4 / 2 2 3 / 3 4 / 5"]


def _reference(argv):
    """vars() of the reference parse of argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit:
            return None


# --- argvs -------------------------------------------------------------------

RANKS = ["1", "2", "3", "7", "0", " 3", "+3", "3_0"]
WEIGHTS = ["1,0", "0,1,0", "2", "", " 3", "+3", "3_0", "x", "verify", "1 2"]
TABLEAUX = ["1 2 2 / 3 3", "1", "", "x y", "bzl", "1 --lambda"]
FORMATS = {
    "enumerate": ["text", "json"],
    "bzl": ["text", "json"],
    "verify": ["text", "json"],
    "hpoly": ["text", "json", "csv", "latex"],
    "graph": ["dot"],
}
NOISE = [
    "-h", "--help", "--lam", "--rank=2", "--format=json", "--", "--rank", "--lambda",
    "--partition", "--shifted", "--format", "--at", "--tableau", "--bogus", "-1", "-1,0",
    "", " 3", "+3", "3_0", "x", "json", "inf", "-x", "-1 2", "verify", "bzl", "hpoly",
]


@st.composite
def plain_argvs(draw):
    """A subcommand and its options spelled out, in any order."""
    command = draw(st.sampled_from(sorted(FORMATS)))
    pairs = [["--rank", draw(st.sampled_from(RANKS))]]
    if command == "bzl":
        pairs.append(["--tableau", draw(st.sampled_from(TABLEAUX))])
    else:
        pairs.append([draw(st.sampled_from(["--lambda", "--partition"])), draw(st.sampled_from(WEIGHTS))])
    if draw(st.booleans()):
        pairs.append(["--format", draw(st.sampled_from(FORMATS[command]))])
    if command == "hpoly" and draw(st.booleans()):
        pairs.append(["--at", draw(st.sampled_from(["inf", "-1", "1"]))])
    if command in ("enumerate", "graph") and draw(st.booleans()):
        pairs.append(["--shifted"])
    return [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]


@st.composite
def noisy_argvs(draw):
    """A plain argv with tokens inserted, replaced or deleted."""
    argv = draw(plain_argvs())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(k, draw(st.sampled_from(NOISE)))
        elif k < len(argv):
            if edit == "replace":
                argv[k] = draw(st.sampled_from(NOISE))
            else:
                del argv[k]
    return argv


@settings(max_examples=300, deadline=None)
@given(plain_argvs())
def test_fast_reader_takes_every_plain_argv(argv):
    fast = cli._fast_args(argv)
    assert fast is not None
    assert vars(fast) == _reference(argv)


@settings(max_examples=600, deadline=None)
@given(st.one_of(noisy_argvs(), st.lists(st.sampled_from(NOISE + sorted(FORMATS)), max_size=6)))
def test_fast_reader_declines_or_agrees_with_argparse(argv):
    fast = cli._fast_args(argv)
    if fast is not None:
        want = _reference(argv)
        assert want is not None, "the fast reader accepted an argv argparse rejects"
        assert vars(fast) == want


def _benchmark_argvs():
    """Every CLI job argv of perfbench/run.py, read from its source.

    perfbench is not imported: only the assignments of CLI_POOLS and the
    weights it names run, and each job's argv is its prefix plus
    --lambda, as run.py's job() builds it.
    """
    tree = ast.parse(RUN_PY.read_text())
    wanted = {"OMEGA1", "OMEGA4", "CLI_POOLS"}
    body = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and wanted & {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    ]
    scope = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(RUN_PY), "exec"), scope)
    return [
        prefix + ["--lambda", ",".join(map(str, coeffs))]
        for rungs in scope["CLI_POOLS"].values()
        for prefix, pair in rungs
        for coeffs in pair
    ]


def test_benchmark_jobs_take_the_fast_path(capsys):
    argvs = _benchmark_argvs()
    assert {argv[0] for argv in argvs} == {"verify", "hpoly"}
    for argv in argvs + [BZL_SAMPLE_ARGV]:
        fast = cli._fast_args(argv)
        assert fast is not None, argv
        assert vars(fast) == _reference(argv)
    assert cli.main(BZL_SAMPLE_ARGV) == 0
    assert "strict: " in capsys.readouterr().out


# --- what argparse still handles -----------------------------------------------

def _reference_exit(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in sorted(FORMATS)])
def test_help_is_the_reference_parsers(capsys, monkeypatch, argv):
    # argparse's help layout differs between Python versions, so the
    # bytes are the reference parser's in this interpreter
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _reference_exit(capsys, argv)
    assert (code, err) == (0, "")
    if argv == ["--help"]:
        assert out == REFERENCE.format_help()
    assert cli._fast_args(argv) is None
    assert cli.main(argv) == 0
    assert capsys.readouterr() == (out, "")


USAGE_ERRORS = [
    ["verify", "--rank", "2", "--lambda", "1,0", "--partition", "1"],
    ["verify", "--rank", "2"],
    ["verify", "--rank", "2", "--lambda", "1,0", "--bogus"],
    ["verify", "--rank", "2", "--lambda", "1,0", "--format", "xml"],
    ["verify", "--rank", "x", "--lambda", "1,0"],
    ["bzl", "--rank", "2"],
    ["verify", "--rank", "2", "--lambda", "-1,0"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_the_reference_parsers(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _reference_exit(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: cs-crystal ")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", err)
