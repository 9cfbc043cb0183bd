"""Benchmark of the cscrystal engine, end to end and per layer.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one row each
    python3 perfbench/run.py --write-digests           # re-capture stdout digests

Run from the root of a checkout; the package is imported from its src/.
--trace 0 times the public CLI (one child process at a time) and prints
the end-to-end metrics; --trace 1 runs the same jobs in one child
process with spans around each layer's public functions and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import model

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

OMEGA1, OMEGA4 = (1, 0, 0, 0), (0, 0, 0, 1)

# A rung is a job prefix and a weight with its dual (equal crystal sizes,
# different shapes); a self-dual rung lists one weight twice.  The seed
# picks each rung's weight and the order of the rungs in a sweep.
CLI_POOLS = {
    # The operator walk (crystal, bzl) and laurent dominate; no oracle calls.
    "verify-ladder": [
        (["verify", "--rank", "3"], ((2, 0, 0), (0, 0, 2))),
        (["verify", "--rank", "3"], ((1, 1, 0), (0, 1, 1))),
        (["verify", "--rank", "3"], ((1, 1, 1), (1, 1, 1))),
    ],
    # Statistics, coefficients, the H-table and rendering; no walk, no oracle.
    "htable-export": [
        (["hpoly", "--rank", "4", "--format", fmt], (OMEGA1, OMEGA4))
        for fmt in ("json", "csv", "latex", "text")
    ],
    # The three specialization oracles.  Text calls the oracle twice per
    # row and json once.
    "hpoly-oracle": [
        (["hpoly", "--rank", "3", "--at", "inf", "--format", "text"], ((2, 1, 0), (0, 1, 2))),
        (["hpoly", "--rank", "3", "--at", "-1", "--format", "text"], ((2, 1, 0), (0, 1, 2))),
        (["hpoly", "--rank", "3", "--at", "-1", "--format", "json"], ((1, 1, 1), (1, 1, 1))),
        (["hpoly", "--rank", "4", "--at", "1", "--format", "text"], ((0, 0, 0, 0), (0, 0, 0, 0))),
    ],
}
BZL_CALLS = 1000  # calls per child process in bzl-sample, 250 per rank
CLI_PROBES = 3  # reference probes before each CLI job
WORKLOADS = list(CLI_POOLS) + ["bzl-sample"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "elems_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_SWEEPS = 3  # each job's time is a mean over at least this many sweeps
SETUP_PROBES = 2  # per sweep; setup_s is the median over sweeps of their best
# About the best time of model.reference_loop on a 2-vCPU Xeon VM.  Every
# timing is scaled to the host speed at which the loop takes this long,
# so the metrics read as seconds on such a host when it is quiet.
REF_NOMINAL_S = 0.009
UNREADABLE = (ValueError, KeyError, IndexError, AttributeError, TypeError)


class BenchError(Exception):
    """The benchmark cannot run here (for example, no package to import)."""


def child_env():
    """Scrubbed environment: only the checkout's src/ on the path, no thread knob."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so probes and jobs share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(argv, stdin_text=None):
    """Run one child to completion: (exit code, stdout, stderr, wall s, max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    err = []
    readers = [threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    if stdin_text is not None:
        readers.append(threading.Thread(target=_feed, args=(proc.stdin, stdin_text)))
    for t in readers:
        t.start()
    out = proc.stdout.read()
    for t in readers:
        t.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out.decode("utf-8"), err[0].decode("utf-8"), wall, usage.ru_maxrss / 1024


def _feed(pipe, text):
    with pipe:
        pipe.write(text.encode("utf-8"))


def measure_setup(probes=SETUP_PROBES):
    """Best of `probes` spawns, each timed until `import cscrystal.cli` returns."""
    code = "import sys, cscrystal.cli; sys.stdout.write(cscrystal.cli.__file__ + '\\n'); sys.stdout.flush()"
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        where = Path(line.decode().strip()).resolve() if line else None
        if proc.returncode != 0 or where is None or SRC.resolve() not in where.parents:
            raise BenchError(f"cscrystal does not import from {SRC}: {err.decode().strip()[-300:]}")
        times.append(elapsed)
    return min(times)


# --- jobs ---------------------------------------------------------------------


def job(prefix, coeffs):
    argv = prefix + ["--lambda", ",".join(map(str, coeffs))]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    at = argv[argv.index("--at") + 1] if "--at" in argv else None
    return {
        "argv": argv,
        "key": " ".join(argv),
        "kind": argv[0],
        "coeffs": coeffs,
        "fmt": fmt,
        "at": at,
        "elems": model.weyl_dim(model.shifted(model.partition_of(coeffs))),
    }


def sweep_jobs(workload, rng):
    """One job per rung, each with its seeded weight, in a seeded order."""
    jobs = [job(prefix, rng.choice(pair)) for prefix, pair in CLI_POOLS[workload]]
    rng.shuffle(jobs)
    return jobs


def pool_jobs(workload):
    """Every job any seed can produce."""
    jobs = {}
    for prefix, pair in CLI_POOLS[workload]:
        for coeffs in pair:
            j = job(prefix, coeffs)
            jobs[j["key"]] = j
    return list(jobs.values())


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read {DIGESTS.name}: {exc}") from None


def check_job(j, rc, out, digests):
    """Problems with one CLI job's exit code and stdout."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if digests is not None and digests.get(j["key"]) != model.digest(out):
        problems.append("stdout digest differs from the recorded one")
    try:
        if j["kind"] == "verify":
            return problems + model.check_verify(out)
        return problems + model.check_hpoly(j["coeffs"], j["fmt"], j["at"], out)
    except UNREADABLE as exc:
        return problems + [f"unreadable output: {exc!r}"]


def bzl_jobs(rng):
    inputs = model.sample_bzl_inputs(rng, BZL_CALLS)
    return inputs, [["bzl", "--rank", str(r), "--tableau", text] for r, text, _ in inputs]


def check_bzl_call(inp, rc, out):
    if rc != 0:
        return [f"exit code {rc}"]
    _, text, strict = inp
    try:
        return model.check_bzl(text, strict, out)
    except UNREADABLE as exc:
        return [f"unreadable output: {exc!r}"]


# --- timed runs ---------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def interquartile_mean(values):
    """Mean of the middle half of `values`; of all of them when there are fewer than 4."""
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k : len(ordered) - k])


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


def cli_sweep(jobs, tally):
    """One process per job, each after CLI_PROBES reference probes: (per-job ms, probe s, per-job RSS MB)."""
    refs, done = [], []
    for j in jobs:
        refs += [model.time_reference() for _ in range(CLI_PROBES)]
        done.append(run_child(["-m", "cscrystal", *j["argv"]]))
    digests = load_digests()
    for j, (rc, out, _, _, _) in zip(jobs, done):
        tally.add(j["key"], check_job(j, rc, out, digests))
    return [d[3] * 1000 for d in done], refs, [d[4] for d in done]


def bzl_sweep(inputs, jobs, tally):
    """One child process making one cli.main call per input: (per-call ms, probe s, [RSS MB])."""
    rc, out, err, _, peak = run_child([str(HERE / "child.py"), "calls"], json.dumps(jobs))
    if rc != 0:
        raise BenchError(f"bzl child failed: {err.strip()[-300:]}")
    res = json.loads(out)
    for inp, code, text in zip(inputs, res["rc"], res["out"]):
        tally.add(inp[1], check_bzl_call(inp, code, text))
    return [ns / 1e6 for ns in res["lat_ns"]], res["ref_s"], [peak]


def timed_run(workload, seed, seconds, tally):
    """MIN_SWEEPS sweeps, then more while another one fits in `seconds`.

    The jobs are drawn once from the seed, so every sweep does the same
    work.  Other tenants of a shared host slow it by up to 1.5x for
    minutes at a time, so every time is scaled by the host's speed
    during its sweep: the mean of the sweep's reference probes over
    REF_NOMINAL_S.  Each job (each call, for bzl-sample) keeps the
    interquartile mean of its scaled times over the sweeps, which was
    steadier across runs than their median or their best.
    """
    rng = random.Random(seed)
    if workload == "bzl-sample":
        inputs, argvs = bzl_jobs(rng)
        print(f"bzl-sample: {len(inputs)} calls, repeat share of (rank, shape) {model.repeat_share(inputs):.3f}")
        elems = len(inputs)
        sweep = functools.partial(bzl_sweep, inputs, argvs, tally)
    else:
        jobs = sweep_jobs(workload, rng)
        elems = sum(j["elems"] for j in jobs)
        sweep = functools.partial(cli_sweep, jobs, tally)
    measure_setup(1)  # warms the bytecode cache; the run fails fast here if src/ does not import
    scaled, raw, slowdowns, setups, rss = [], [], [], [], []
    start = time.perf_counter()
    while True:
        sweep_start = time.perf_counter()
        setup = measure_setup()
        ms, refs, peaks = sweep()
        slowdown = statistics.mean(refs) / REF_NOMINAL_S
        scaled.append([m / slowdown for m in ms])
        raw.append(ms)
        slowdowns.append(slowdown)
        setups.append(setup / slowdown)
        rss += peaks
        now = time.perf_counter()
        if len(setups) >= MIN_SWEEPS and now - start + (now - sweep_start) > seconds:
            break
    per_job = [interquartile_mean(t) for t in zip(*scaled)]
    wall = sum(per_job) / 1000
    raw_wall = sum(interquartile_mean(t) for t in zip(*raw)) / 1000
    print(
        f"{workload}: {len(setups)} sweeps of {len(per_job)} jobs; host slowdown median "
        f"{statistics.median(slowdowns):.3f} (range {min(slowdowns):.3f}-{max(slowdowns):.3f}); "
        f"unscaled wall {raw_wall:.3f} s"
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "elems_per_s": elems / wall,
        "call_p50_ms": statistics.median(per_job),
        "call_p99_ms": percentile(per_job, 99),
        "peak_rss_mb": max(rss),
    }


# --- traced run ---------------------------------------------------------------

PER_LAYER_MS = {
    "crystal.enumerate.ms": ["crystal.enumerate"],
    "crystal.ops.ms": ["crystal.e_op", "crystal.f_op", "crystal.phi"],
    "bzl.walk.ms": ["bzl.walk"],
    "laurent.bn.ms": ["laurent.bn"],
    "bzl.stats.ms": ["bzl.stats"],
    "bzl.coeff.ms": ["bzl.coeff"],
    "laurent.rhs.ms": ["laurent.rhs"],
    "hpoly.table.ms": ["hpoly.table"],
    "laurent.lhs.ms": ["laurent.lhs"],
    "hpoly.oracle.inf.ms": ["hpoly.oracle.inf"],
    "hpoly.oracle.m1.ms": ["hpoly.oracle.m1"],
    "rootsys.orbit_sign.ms": ["rootsys.orbit_sign"],
    "cli.render.ms": ["cli.main"],
    "tableaux.parse.ms": ["tableaux.parse"],
}
PER_LAYER_CALLS = {
    "crystal.enumerate.calls": "crystal.enumerate",
    "crystal.e_op.calls": "crystal.e_op",
    "crystal.f_op.calls": "crystal.f_op",
    "crystal.phi.calls": "crystal.phi",
    "bzl.walk.calls": "bzl.walk",
}
PER_LAYER_COUNTS = {
    "laurent.rhs.terms": "rhs.terms",
    "laurent.lhs.terms": "lhs.terms",
    "hpoly.table.rows": "table.rows",
    "tableaux.strict.count": "strict",
    "bzl.doubly.count": "doubly",
    "hpoly.oracle.calls": "oracle.calls",
}


def cross_check(j, got):
    """Trace counters of one CLI job against what its stdout says."""
    c, problems = got["counts"], []
    for shape, n in got["shapes"]:
        if n != model.weyl_dim(shape):
            problems.append(f"enumerated {n} elements of {shape}, Weyl dimension {model.weyl_dim(shape)}")
    top = list(model.shifted(model.partition_of(j["coeffs"])))
    if [n for shape, n in got["shapes"] if shape == top] != [j["elems"]]:
        problems.append("lambda+rho was not enumerated exactly once with its Weyl dimension")
    if j["kind"] == "verify":
        if model.verify_terms(got["out"]) != (c.get("lhs.terms"), c.get("rhs.terms")):
            problems.append("lhs/rhs term counters differ from the verify line")
    elif model.table_rows_header(j["fmt"], got["out"]) != c.get("table.rows"):
        problems.append("hpoly.table.rows differs from the printed row count")
    return problems


def traced_run(workload, seed, tally):
    rng = random.Random(seed)
    if workload == "bzl-sample":
        inputs, argvs = bzl_jobs(rng)
        labels = [inp[1] for inp in inputs]
    else:
        jobs = sweep_jobs(workload, rng)
        argvs, labels = [j["argv"] for j in jobs], [j["key"] for j in jobs]
        digests = load_digests()
    rc, out, err, _, _ = run_child([str(HERE / "child.py"), "trace"], json.dumps(argvs))
    if rc != 0:
        raise BenchError(f"trace child failed: {err.strip()[-300:]}")
    res = json.loads(out)
    for k, (label, got, plain) in enumerate(zip(labels, res["jobs"], res["plain"])):
        problems = [] if plain == [got["rc"], got["out"]] else ["traced output differs from untraced"]
        if workload == "bzl-sample":
            problems += check_bzl_call(inputs[k], got["rc"], got["out"])
            if got["counts"].get("strict", 0) != int(inputs[k][2]):
                problems.append("strict counter disagrees with GT strictness")
        else:
            problems += check_job(jobs[k], got["rc"], got["out"], digests) or cross_check(jobs[k], got)
        tally.add(label, problems)
    ms, calls, counts = res["self_ms"], res["calls"], res["counts"]
    metrics = {name: (sum(ms.get(s, 0.0) for s in spans), "ms") for name, spans in PER_LAYER_MS.items()}
    metrics.update({name: (calls.get(s, 0), "count") for name, s in PER_LAYER_CALLS.items()})
    metrics.update({name: (counts.get(s, 0), "count") for name, s in PER_LAYER_COUNTS.items()})
    metrics["crystal.enumerate.elems"] = (sum(n for j in res["jobs"] for _, n in j["shapes"]), "count")
    metrics["cli.stdout.bytes"] = (sum(len(j["out"].encode("utf-8")) for j in res["jobs"]), "bytes")
    metrics["trace.spans"] = (res["spans"], "count")
    metrics["trace.overhead_ratio"] = (res["traced_ns"] / res["untraced_ns"], "ratio")
    print(f"{workload}: traced {len(argvs)} jobs, {res['spans']} spans")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


# --- environment and entry points -----------------------------------------------


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    lines = {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "cscrystal").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": model.digest("".join((SRC / "cscrystal" / f"{m}.py").read_text() for m in lines)),
        "src.lines": {**lines, "total": sum(lines.values())},
    }


def run_workload(workload, seed, seconds, trace):
    tally = Tally()
    if trace:
        metrics = traced_run(workload, seed, tally)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in timed_run(workload, seed, seconds, tally).items()}
    for line in tally.problems[:20]:
        print(f"CHECK FAILED {line}")
    return tally, metrics


def result_line(tally, metrics):
    return json.dumps(
        {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    )


def run_all(seed, seconds):
    """Every workload in turn; one row per workload with every end-to-end metric."""
    total, combined, rows = Tally(), {}, []
    for w in WORKLOADS:
        tally, metrics = run_workload(w, seed, seconds, trace=False)
        total.attempted += tally.attempted
        total.failed += tally.failed
        rows.append((w, metrics, tally.failed / tally.attempted))
        combined.update({f"{w}.{k}": v for k, v in metrics.items()})
    names = list(END_TO_END)
    print("workload       " + "".join(f"{f'{n} [{END_TO_END[n]}]':>22}" for n in names) + f"{'fail_ratio':>12}")
    for w, metrics, ratio in rows:
        print(f"{w:<15}" + "".join(f"{metrics[n]['value']:>22.4f}" for n in names) + f"{ratio:>12.4f}")
    return total, combined


def write_digests():
    """Run every job of the finite CLI pools once and record its stdout digest."""
    digests, tally = {}, Tally()
    for w in CLI_POOLS:
        for j in pool_jobs(w):
            rc, out, err, wall, _ = run_child(["-m", "cscrystal", *j["argv"]])
            tally.add(j["key"], check_job(j, rc, out, None))
            digests[j["key"]] = model.digest(out)
            print(f"{wall:7.2f} s  {j['key']}")
    if tally.failed:
        raise BenchError("; ".join(tally.problems))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true", help="re-capture digests.json and exit")
    args = parser.parse_args()
    try:
        if not (SRC / "cscrystal" / "cli.py").is_file():
            raise BenchError(f"no cscrystal package under {SRC}")
        if args.write_digests:
            write_digests()
            return 0
        print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
        pin_to_one_cpu()
        if args.workload == "all":
            tally, metrics = run_all(args.seed, args.seconds)
        else:
            tally, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
