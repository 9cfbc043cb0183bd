"""In-process side of the benchmark; run.py starts it as a child process.

    python3 child.py calls < jobs.json   time each cscrystal.cli.main call
    python3 child.py trace < jobs.json   untraced pass, then traced pass

jobs.json is a list of argument lists for cscrystal.cli.main.  The
result is one JSON object on stdout.  cscrystal must be importable (the
parent puts the checkout's src/ on PYTHONPATH).
"""

import contextlib
import io
import json
import sys
import time
from array import array

import cscrystal.cli as cli
from cscrystal import bzl, crystal, hpoly, laurent

import model

_ENUMERATE = crystal.enumerate_crystal  # the lru_cache object itself
REF_EVERY = 20  # bzl calls between host-speed probes


def call_main(argv):
    """(exit code, stdout text, ns spent inside main)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter_ns()
        rc = cli.main(argv)
        elapsed = time.perf_counter_ns() - start
    return rc, buf.getvalue(), elapsed


def run_calls(jobs):
    """Each call timed, with a reference probe before every REF_EVERY calls."""
    rcs, outs, lat, ref = [], [], [], []
    for k, argv in enumerate(jobs):
        if k % REF_EVERY == 0:
            ref.append(model.time_reference())
        rc, out, ns = call_main(argv)
        rcs.append(rc)
        outs.append(out)
        lat.append(ns)
    return {"rc": rcs, "out": outs, "lat_ns": lat, "ref_s": ref}


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays, plus counters.

    Spans are recorded around calls into the package's public functions,
    at the names their callers import them under; no code inside the
    package changes.  Self time is a span's duration minus the time its
    direct child spans cover.
    """

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.counts = {}
        self.shapes = []  # (shape parts, elements) per enumeration that missed the cache
        self.enumerated = set()  # (shape, rank) enumerated since the cache was last cleared

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def traced(self, span, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` updates counters.

        t0 is the wrapper's first statement and t1 its last, so a span
        covers its own bookkeeping and `after`.  Only the call into the
        wrapper and the return from it stay outside, charged to the parent.
        """
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span)
        clock, stack, names, parents, starts, ends = (
            time.perf_counter_ns, self.stack, self.name, self.parent, self.start, self.end)

        def wrapper(*args, **kwargs):
            t0 = clock()
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(t0)
            ends.append(0)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                stack.pop()
                ends[sid] = clock()

        return wrapper

    def wrap(self, module, attr, span, after=None):
        setattr(module, attr, self.traced(span, getattr(module, attr), after))

    def self_ms(self):
        """Self time per span name, in ms, and span count per name."""
        n = len(self.start)
        covered = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        ms, calls = {}, {}
        for sid in range(n):
            name = self.names[self.name[sid]]
            ms[name] = ms.get(name, 0.0) + (self.end[sid] - self.start[sid] - covered[sid]) / 1e6
            calls[name] = calls.get(name, 0) + 1
        return ms, calls


def install(tr):
    """Wrap every public entry point the CLI reaches, at its import site."""

    def enumerated(args, result):
        """The first call per (shape, rank) since the cache was cleared is a miss."""
        if args not in tr.enumerated:
            tr.enumerated.add(args)
            tr.shapes.append((list(args[0].parts), len(result)))

    for module in (laurent, hpoly, cli):
        tr.wrap(module, "enumerate_crystal", "crystal.enumerate", enumerated)
    tr.wrap(crystal, "f_op", "crystal.f_op")
    tr.wrap(bzl, "e_op", "crystal.e_op")
    tr.wrap(bzl, "phi", "crystal.phi")
    tr.wrap(cli, "decorate_via_operators", "bzl.walk")
    tr.wrap(laurent, "decorate_via_operators", "bzl.walk")
    tr.wrap(laurent, "bzl_path", "bzl.walk")
    tr.wrap(cli, "decorate_via_stats", "bzl.stats")
    tr.wrap(bzl, "decorate_via_stats", "bzl.stats")

    def coefficient(args, result):
        tr.count("strict" if not result.is_zero() else "doubly")

    for module in (cli, laurent, hpoly):
        tr.wrap(module, "c_coefficient", "bzl.coeff", coefficient)
    for name in ("g_coefficient", "c_factored_string"):
        tr.wrap(cli, name, "bzl.coeff")
    tr.wrap(laurent, "g_from_triangle", "bzl.coeff")
    tr.wrap(laurent, "cs_lhs", "laurent.lhs", lambda a, r: tr.count("lhs.terms", r.num_terms()))
    tr.wrap(laurent, "cs_rhs", "laurent.rhs", lambda a, r: tr.count("rhs.terms", r.num_terms()))
    tr.wrap(cli, "verify_bn_form", "laurent.bn")
    tr.wrap(cli, "h_table", "hpoly.table", lambda a, r: tr.count("table.rows", len(r.rows)))

    def oracle(args, result):
        tr.count("oracle.calls")

    tr.wrap(cli, "weight_multiplicity", "hpoly.oracle.inf", oracle)
    tr.wrap(cli, "tensor_weight_multiplicity", "hpoly.oracle.m1", oracle)
    tr.wrap(cli, "dot_orbit_sign", "rootsys.orbit_sign", oracle)
    tr.wrap(cli, "parse_tableau", "tableaux.parse")


def run_trace(jobs):
    """Run the jobs untraced, then traced; each job starts with an empty crystal cache."""
    start = time.perf_counter_ns()
    plain = []
    for argv in jobs:
        _ENUMERATE.cache_clear()
        plain.append(call_main(argv)[:2])
    untraced_ns = time.perf_counter_ns() - start

    tr = Tracer()
    install(tr)
    traced_main = tr.traced("cli.main", call_main)
    per_job = []
    start = time.perf_counter_ns()
    for argv in jobs:
        _ENUMERATE.cache_clear()
        tr.enumerated.clear()
        before, shapes_before = dict(tr.counts), len(tr.shapes)
        rc, out = traced_main(argv)[:2]
        delta = {k: v - before.get(k, 0) for k, v in tr.counts.items()}
        per_job.append({"rc": rc, "out": out, "counts": delta, "shapes": tr.shapes[shapes_before:]})
    traced_ns = time.perf_counter_ns() - start
    ms, calls = tr.self_ms()
    return {
        "plain": plain,
        "jobs": per_job,
        "self_ms": ms,
        "calls": calls,
        "counts": tr.counts,
        "spans": len(tr.start),
        "untraced_ns": untraced_ns,
        "traced_ns": traced_ns,
    }


def main():
    mode = sys.argv[1]
    jobs = json.load(sys.stdin)
    result = run_calls(jobs) if mode == "calls" else run_trace(jobs)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
