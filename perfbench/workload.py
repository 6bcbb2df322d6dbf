"""One pass of a benchmark workload, in a fresh child process.

    python3 perfbench/workload.py --suites kernels,identities --seed 7 \
        [--trace-out spans.npz] [--setup-only]

The child imports finestruct.harness, then calls the public parse_config and
run_suite once per suite, at the default configuration and the given seed.
It prints one JSON line: the monotonic clock at the first suite call and the
machine speed during start-up; then the wall time of each run_suite call,
the CPU time and peak resident set size of the process over the pass, the
machine speed during the pass (see SpeedProbe), the checks of every report
and the digest of the report bytes.  With --trace-out the pass runs under
the span tracer and the line also holds the per-function statistics; the
spans go to the file.  With --setup-only the child stops just before the
first suite call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from functools import partial

CLOCK = time.CLOCK_MONOTONIC

# The machine's speed drifts by up to 2x over seconds to minutes (other
# tenants of the host), so each timed span samples a fixed reference kernel
# and its time is also stated at reference speed: measured seconds x speed,
# where speed = the kernel's reference time / its mean time in the span.
# Start-up runs Python bytecode and a pass runs small numpy operations, and
# each is tracked best by a kernel of the same kind.  numpy is imported only
# by a pass, so that the start-up probe also covers its import.


def numpy_kernel(x) -> dict:
    """Small numpy operations on the 32 floats x and dict stores, no
    finestruct code: the mix the suites spend their time in."""
    acc = 0.0
    for i in range(16):
        x = x * 0.999 + 0.001
        acc += float(x[i]) * i
    return {i: acc + i for i in range(64)}


def python_kernel() -> dict:
    """Pure-Python loop and dict stores: the mix of importing modules."""
    d = {}
    acc = 0.0
    for i in range(64):
        acc += i * 0.5
        d[i] = acc
    return d


class SpeedProbe:
    """Times a reference kernel from a SIGALRM handler every interval_s;
    the handler runs between the bytecodes of whatever the process does."""

    def __init__(self, kernel, ref_s: float, interval_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.interval_s = interval_s
        self.durations = []
        self.cpu_durations = []
        self.spent_s = 0.0

    @classmethod
    def for_pass(cls) -> "SpeedProbe":
        import numpy as np

        return cls(partial(numpy_kernel, np.linspace(0.0, 1.0, 32)),
                   50e-6, 0.02)

    @classmethod
    def for_startup(cls) -> "SpeedProbe":
        return cls(python_kernel, 15e-6, 0.002)

    def _sample(self, signum=None, frame=None):
        # thread_time is a system call; keep it outside the wall-clock span.
        c0 = time.thread_time()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.cpu_durations.append(time.thread_time() - c0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent_s = sum(self.durations)  # time taken from the span
        while len(self.durations) < 5:  # too short a span: sample after it
            self._sample()

    @property
    def speed(self) -> float:
        """Mean kernel rate over the samples, relative to the reference."""
        return statistics.fmean(self.ref_s / d for d in self.durations)

    @property
    def cpu_speed(self) -> float:
        """The same in CPU time: unlike wall time, it does not count the
        moments the host ran another guest instead of this process."""
        return statistics.fmean(self.ref_s / d for d in self.cpu_durations
                                if d > 0)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(configs, tracer=None) -> dict:
    """Run each suite once; with a tracer, under its wrappers."""
    from finestruct.harness import emit, run_suite

    cpu0 = _cpu_s()
    digest = hashlib.sha256()
    walls, checks = {}, []
    with SpeedProbe.for_pass() as probe:
        for run_id, cfg in enumerate(configs):
            t0 = time.perf_counter()
            if tracer is None:
                report = run_suite(cfg)
            else:
                tracer.run_id = run_id
                with tracer.installed():
                    report = run_suite(cfg)
            walls[cfg["suite"]] = time.perf_counter() - t0
            digest.update(emit(report))
            checks += report["checks"]
    cpu_s = _cpu_s() - cpu0 - probe.spent_s
    return {
        "suite_wall_s": walls,
        "wall_s": sum(walls.values()) - probe.spent_s,
        "cpu_s": cpu_s,
        "speed": probe.speed,
        "cpu_speed": probe.cpu_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [(c["id"], c["status"], c["value"], c["tol"]) for c in checks],
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suites", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    suites = args.suites.split(",")

    with SpeedProbe.for_startup() as probe:
        from finestruct.harness import parse_config

        configs = [parse_config(["--suite", s, "--seed", str(args.seed)])
                   for s in suites]
        first_call = time.clock_gettime(CLOCK)
    result = {"first_call": first_call, "setup_speed": probe.speed,
              "setup_probe_s": probe.spent_s}
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        result.update(run_pass(configs, tracer))
        result["trace"] = tracer.summary()
        tracer.write(args.trace_out)
    elif not args.setup_only:
        result.update(run_pass(configs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
