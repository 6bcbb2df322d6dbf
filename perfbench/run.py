"""End-to-end benchmark of the finestruct `verify` suites.

    python3 perfbench/run.py --workload oracle_kernels --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  Each pass of a workload runs in a fresh child process, one
at a time (a closed loop with one client): the child imports
finestruct.harness and calls parse_config and run_suite once per suite of the
workload at the default configuration and the given seed.  Passes repeat
while another one fits in --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics: medians over the passes, and for
setup_s the median over several child start-ups.  Times are stated at
reference speed (see workload.SpeedProbe); the measured seconds and the
speed of each pass are in the diagnostics line.  --trace 1 runs one
untraced pass, one traced pass and the unit costs, and prints the per-layer
metrics.  Every pass is checked against perfbench/expected.json and the
digest of its report bytes against every other report of the same source,
workload and seed.  A check with an unexpected status is a failed operation;
a crashed child, a missing or unknown check id or differing report bytes
make the run incorrect.  The last line of stdout is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
from tracer import COUNTERS, CONSTRUCTIONS, TRACED, span_name  # noqa: E402

# The vekua suite is in no workload: with it, a full measurement does not fit
# its time budget (see README.md).
WORKLOADS = {
    "oracle_kernels": ("identities", "kernels", "structures"),
    "operator_calculus": ("calculus",),
    "contour_fd": ("integrals",),
}
SUITES = tuple(dict.fromkeys(s for w in WORKLOADS.values() for s in w))
SETUP_PROBES = 6
DEADLINE_S = 170.0
CLOCK = time.CLOCK_MONOTONIC


class ChildFailed(RuntimeError):
    pass


# -- child processes ------------------------------------------------------------


def run_child(script: str, args: list, deadline: float) -> tuple[dict, float]:
    """Run a benchmark script in a fresh interpreter; return its JSON line and
    the monotonic clock at spawn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(deadline - time.clock_gettime(CLOCK), 1.0)
    spawned = time.clock_gettime(CLOCK)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script)] + args,
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{script} {' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{script} {' '.join(args)}: exit "
                          f"{proc.returncode}\n{tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildFailed(f"{script}: no result line") from exc


def run_pass(suites, seed: int, deadline: float, trace_out=None) -> dict:
    """One workload pass in a child.  A child that fails yields a pass with no
    checks, timed from outside, so every expected check counts as failed."""
    args = ["--suites", ",".join(suites), "--seed", str(seed)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    t0 = time.perf_counter()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        result, spawned = run_child("workload.py", args, deadline)
    except ChildFailed as exc:
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {"error": str(exc), "checks": [], "digest": None,
                "suite_wall_s": {}, "speed": 1.0, "cpu_speed": 1.0,
                "wall_s": time.perf_counter() - t0,
                "cpu_s": (cpu1.ru_utime + cpu1.ru_stime
                          - cpu0.ru_utime - cpu0.ru_stime),
                "peak_rss_mb": cpu1.ru_maxrss / 1024.0}
    result["setup_s"] = setup_time(result, spawned)
    return result


def setup_time(result: dict, spawned: float) -> float:
    """Spawn to first suite call, less the speed probe's own time, at
    reference speed."""
    return ((result["first_call"] - spawned - result["setup_probe_s"])
            * result["setup_speed"])


def setup_probe(suites, seed: int, deadline: float) -> dict:
    """One child start-up, up to the first suite call.  A child that fails is
    timed from outside, to its exit."""
    spawned = time.clock_gettime(CLOCK)
    try:
        result, spawned = run_child(
            "workload.py",
            ["--suites", ",".join(suites), "--seed", str(seed), "--setup-only"],
            deadline)
    except ChildFailed as exc:
        return {"setup_s": time.clock_gettime(CLOCK) - spawned,
                "error": str(exc)}
    return {"setup_s": setup_time(result, spawned)}


# -- report validation ------------------------------------------------------------


def load_expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_statuses(suites, expected: dict) -> dict:
    flags = set(expected["flags"])
    return {cid: ("flag" if cid in flags else "pass")
            for s in suites for cid in expected["suites"][s]}


def validate(checks, want: dict) -> tuple[list, list]:
    """(failures, problems).  A check whose status is not the expected one is
    a failed operation.  A report that lacks an expected check, or has an
    unknown or repeated id, is also not a valid report."""
    got = {cid: status for cid, status, _, _ in checks}
    failures = [f"{cid}: {got.get(cid, 'missing')} != {status}"
                for cid, status in want.items() if got.get(cid) != status]
    problems = []
    missing = len(set(want) - set(got))
    if missing:
        problems.append(f"{missing} expected checks missing from the report")
    extra = sorted(set(got) - set(want))
    if extra or len(checks) != len(got):
        problems.append(f"unexpected or repeated check ids: {extra[:5]}")
    return failures, problems


def worst_margins(checks, want: dict) -> dict:
    """Per suite, the largest value/tol among checks expected to pass."""
    worst = {}
    for cid, _, value, tol in checks:
        if tol > 0 and want.get(cid) == "pass":
            suite = cid.split(".")[0]
            if value / tol > worst.get(suite, (None, -1.0))[1]:
                worst[suite] = (cid, value / tol)
    return {s: {"check": c, "value_over_tol": r} for s, (c, r) in worst.items()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "finestruct").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digests(key: str, digests: list) -> list:
    """Reports of one source, workload and seed must be byte-identical, within
    this run and across runs in this checkout."""
    problems = []
    if len(set(digests)) > 1:
        problems.append("report bytes differ between passes of this run")
    cache_path = OUT / "digests.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    if key in cache and cache[key] != digests[0]:
        problems.append("report bytes differ from an earlier run of this "
                        "source, workload and seed")
    cache.setdefault(key, digests[0])
    tmp = cache_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
    os.replace(tmp, cache_path)
    return problems


# -- machine and source facts (recorded, not gated) ---------------------------------


def machine() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libdir.glob("*openblas*"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


# -- metrics -----------------------------------------------------------------------


def end_to_end(passes, setups) -> dict:
    """Medians over the passes; times at reference speed."""
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] * p["speed"]
                                              for p in passes),
                   "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] * p["cpu_speed"]
                                             for p in passes),
                  "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"]
                                                   for p in passes),
                        "unit": "MB"},
    }


def per_layer(plain: dict, traced: dict, units: dict,
              failed_share: float) -> dict:
    trace = traced.get("trace") or {"calls": {}, "self_s": {}, "counts": {},
                                    "root_s": 0.0}
    # Shares are of the traced run_suite calls as timed, probe samples
    # included, since the spans include the samples that fell inside them.
    wall = sum(traced["suite_wall_s"].values()) or traced["wall_s"]
    m = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        m[f"{name}.calls"] = {"value": trace["calls"].get(name, 0),
                              "unit": "count"}
        m[f"{name}.self_pct"] = {
            "value": 100.0 * trace["self_s"].get(name, 0.0) / wall,
            "unit": "%"}
    counts = trace["counts"]
    for name, stats in COUNTERS.items():
        for stat in stats:
            if stat != "distinct_points":
                m[f"{name}.{stat}"] = {"value": counts.get(f"{name}.{stat}", 0),
                                       "unit": "count"}
    leaves = counts.get("fueter_ops.fd_apply.leaf_evals", 0)
    m["fueter_ops.fd_apply.distinct_point_ratio"] = {
        "value": (counts["fueter_ops.fd_apply.distinct_points"] / leaves
                  if leaves else 0.0),
        "unit": "ratio"}
    m[CONSTRUCTIONS] = {"value": counts.get(CONSTRUCTIONS, 0), "unit": "count"}
    suite_walls = plain["suite_wall_s"]
    for suite in SUITES:
        m[f"harness.suite.{suite}.wall_pct"] = {
            "value": (100.0 * suite_walls.get(suite, 0.0)
                      / (sum(suite_walls.values()) or 1.0)),
            "unit": "%"}
    m["harness.failed_share"] = {"value": failed_share, "unit": "ratio"}
    m["harness.unattributed_s"] = {"value": wall - trace["root_s"], "unit": "s"}
    m["harness.trace.overhead_ratio"] = {
        "value": (traced["wall_s"] * traced["speed"]
                  / (plain["wall_s"] * plain["speed"])),
        "unit": "ratio"}
    m.update(units)
    return m


# -- measurement -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    suites = WORKLOADS[workload]
    deadline = time.clock_gettime(CLOCK) + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    want = expected_statuses(suites, load_expected())
    units = {}
    if trace:
        passes = [run_pass(suites, seed, deadline)]
        passes.append(run_pass(suites, seed, deadline,
                               OUT / f"spans-{workload}-s{seed}.npz"))
        try:
            units, _ = run_child("units.py", ["--seed", str(seed)], deadline)
        except ChildFailed as exc:
            print(f"unit costs failed: {exc}", file=sys.stderr)
    else:
        probes = [setup_probe(suites, seed, deadline)
                  for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        passes = [run_pass(suites, seed, deadline)]
        while (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) \
                <= seconds:
            passes.append(run_pass(suites, seed, deadline))

    problems, failures = [], []
    if not trace:
        problems += [p["error"] for p in probes if "error" in p]
    for p in passes:
        if "error" in p:
            problems.append(p["error"])
        failed_checks, why = validate(p["checks"], want)
        failures += failed_checks
        problems += why
    digests = [p["digest"] for p in passes if p["digest"]]
    if digests:
        problems += check_digests(f"{source_digest()}/{workload}/{seed}",
                                  digests)
    if trace and not units:
        problems.append("unit costs missing")
    attempted = len(want) * len(passes)
    failed = len(failures)

    if trace:
        metrics = per_layer(passes[0], passes[1], units, failed / attempted)
    else:
        setups = [p["setup_s"] for p in probes + passes if "setup_s" in p]
        metrics = end_to_end(passes, setups)
    diagnostics = {
        "workload": workload, "seed": seed, "suites": list(suites),
        "passes": [{k: p.get(k) for k in ("wall_s", "cpu_s", "speed",
                                          "cpu_speed", "suite_wall_s")}
                   for p in passes],
        "report_sha256": digests[0] if digests else None,
        "failed_share": failed / attempted,
        "worst_margin": worst_margins(passes[0]["checks"], want),
        "src_lines": src_lines(),
        "machine": machine(),
    }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "failures": failures,
            "problems": problems, "diagnostics": diagnostics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finestruct" / "harness.py").is_file():
        print(f"error: no finestruct sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result.pop("failures"):
        print(f"failed check {failure}", file=sys.stderr)
    for problem in result.pop("problems"):
        print(f"invalid run: {problem}", file=sys.stderr)
    print("diagnostics " + json.dumps(result.pop("diagnostics")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
