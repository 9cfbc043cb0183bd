"""The benchmark's traced run wraps package functions by name.

perfbench/child.py replaces public entry points at the modules where
the CLI imports them.  If one of those names is renamed or removed,
installing the tracer fails; this test turns that into a tier-1
failure instead of a crash inside the benchmark.  Its counters also
assume how often one bzl call reaches each wrapped name, which
test_bzl_calls_each_wrapped_name_once holds.
"""

import os
import subprocess
import sys

import cscrystal
from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import Shape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_hooks_resolve():
    src = os.path.dirname(os.path.dirname(cscrystal.__file__))
    bench = os.path.join(ROOT, "perfbench")
    path = os.pathsep.join(p for p in (src, bench, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import child; child.install(child.Tracer())"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_exposes_oracles_by_name():
    # child.py counts one oracle call per H-table row at these names
    from cscrystal import cli

    for name in ("weight_multiplicity", "tensor_weight_multiplicity", "dot_orbit_sign"):
        assert callable(getattr(cli, name))


# the names child.py wraps in cli that one bzl call reaches
BZL_NAMES = (
    "parse_tableau",
    "decorate_via_operators",
    "decorate_via_stats",
    "g_coefficient",
    "c_coefficient",
    "c_factored_string",
)


def test_bzl_calls_each_wrapped_name_once(capsys, monkeypatch):
    # child.py counts a call strict or doubly by whether its one
    # c_coefficient is zero, and run.py holds that count against the
    # printed strict: line
    from cscrystal import cli

    calls, zero = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(name)
            if name == "c_coefficient":
                zero.append(result.is_zero())
            return result

        return wrapper

    for name in BZL_NAMES:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    seen = set()
    for parts in [(2, 1, 0), (3, 2, 0)]:
        for t in enumerate_crystal(Shape(parts), 2):
            calls.clear()
            zero.clear()
            assert cli.main(["bzl", "--rank", "2", "--tableau", t.to_text()]) == 0
            out = capsys.readouterr().out
            assert sorted(calls) == sorted(BZL_NAMES), t
            strict = out.rsplit("strict: ", 1)[1].strip()
            assert zero == [strict == "no"], t
            seen.add(strict)
    assert seen == {"yes", "no"}
