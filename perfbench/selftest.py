"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench/selftest.py

They use the two cheap suites (identities, structures), so they take seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import units  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

CHEAP = ("identities", "structures")


def _bindings() -> dict:
    """Every global of every finestruct module, plus the traced methods."""
    import finestruct.harness  # noqa: F401
    from finestruct.clifford_core import Multivector
    from finestruct.op_calculus import CliffordMatrix

    out = {(name, attr): value
           for name, mod in sys.modules.items()
           if name == "finestruct" or name.startswith("finestruct.")
           for attr, value in vars(mod).items()}
    out[("Multivector", "__init__")] = vars(Multivector)["__init__"]
    out[("CliffordMatrix", "__mul__")] = vars(CliffordMatrix)["__mul__"]
    return out


def _configs():
    from finestruct.harness import parse_config

    return [parse_config(["--suite", s, "--seed", "7"]) for s in CHEAP]


def _traced_pass():
    tracer = Tracer()
    return workload.run_pass(_configs(), tracer), tracer


def test_traced_report_equals_untraced_report():
    plain = workload.run_pass(_configs())
    traced, tracer = _traced_pass()
    assert traced["digest"] == plain["digest"]
    assert traced["checks"] == plain["checks"]
    assert sum(tracer.calls) > 0


def test_wrappers_are_removed_afterwards():
    before = _bindings()
    _traced_pass()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_removed_when_the_run_raises():
    from finestruct.fueter_ops import fd_apply

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert all(_bindings()[k] is before[k] for k in before)
    assert _bindings()[("finestruct.harness", "fd_apply")] is fd_apply


def test_per_layer_counts_repeat_exactly():
    from finestruct import harness
    from finestruct.clifford_core import Multivector
    from finestruct.kernels import cauchy_kernel

    s = Multivector.paravector(1.1, 0.2)
    x = Multivector.paravector(0.2, 0.1, 0.05)

    def counted():
        _, tracer = _traced_pass()
        with tracer.installed():
            harness.fd_apply(("Delta",),
                             lambda y: cauchy_kernel("left", "II", s, y), x)
        return tracer.calls, tracer.counts

    first = counted()
    assert first == counted()
    counts = first[1]
    assert 0 < counts["fueter_ops.fd_apply.distinct_points"] \
        <= counts["fueter_ops.fd_apply.leaf_evals"]


def test_self_times_are_bounded_by_the_pass():
    traced, tracer = _traced_pass()
    summary = tracer.summary()
    own = sum(summary["self_s"].values())
    assert own == pytest.approx(summary["root_s"])
    assert 0 < summary["root_s"] <= traced["wall_s"]


def test_broken_expected_status_is_counted_not_fatal(monkeypatch):
    expected = run.load_expected()
    expected["flags"].append("identities.sum_lemmas")
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    monkeypatch.setitem(run.WORKLOADS, "cheap", CHEAP)
    result = run.measure("cheap", 7, 0, trace=False)
    assert result["failed"] == 1
    assert result["attempted"] == 98
    assert result["failures"] == ["identities.sum_lemmas: pass != flag"]
    assert result["diagnostics"]["failed_share"] == pytest.approx(1 / 98)
    assert result["correct"]


def test_child_that_raises_fails_every_check():
    want = run.expected_statuses(CHEAP, run.load_expected())
    p = run.run_pass(("no_such_suite",), 7, time.clock_gettime(run.CLOCK) + 60)
    assert "error" in p
    failures, problems = run.validate(p["checks"], want)
    assert len(failures) == len(want)
    assert problems


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    plain = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, "speed": 1.0,
             "cpu_speed": 1.0, "suite_wall_s": {}}
    unit_costs = {name: {"value": 1.0, "unit": unit}
                  for name, unit, *_ in units.cases(0)}
    printed = {
        "end_to_end": run.end_to_end([plain], [0.2]),
        "per_layer": run.per_layer(plain, plain, unit_costs, 0.0),
    }
    for section, metrics in printed.items():
        assert {m["name"]: m["unit"] for m in spec[section]} == \
            {name: m["unit"] for name, m in metrics.items()}
