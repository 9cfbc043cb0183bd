"""The benchmark's traced run wraps package functions by name.

perfbench/child.py replaces public entry points at the modules where
the CLI imports them.  If one of those names is renamed or removed,
installing the tracer fails; this test turns that into a tier-1
failure instead of a crash inside the benchmark.
"""

import os
import subprocess
import sys

import cscrystal

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
