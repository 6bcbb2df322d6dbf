import json
import re
import time
from math import isnan, nan

import numpy as np
import pytest

from finestruct import harness
from finestruct.clifford_core import Multivector
from finestruct.errors import ConfigError, UnknownSuite
from finestruct.harness import (
    DEFAULTS,
    SETTINGS,
    TOL_DEFAULTS,
    emit,
    main,
    parse_config,
    run_suite,
)


def test_defaults():
    cfg = parse_config([])
    assert cfg["suite"] == "all"
    assert cfg["seed"] == DEFAULTS["seed"]
    assert cfg["tol"] == TOL_DEFAULTS


def test_flag_overrides():
    cfg = parse_config(["--suite", "structures", "--seed", "42",
                        "--tol", "kernels.fd=1e-4"])
    assert cfg["suite"] == "structures"
    assert cfg["seed"] == 42
    assert cfg["tol"]["kernels.fd"] == 1e-4


def test_config_file_and_precedence(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("suite = structures\nseed = 9\n# comment\n"
                    "tol.structures.exact = 0.25\n")
    cfg = parse_config(["--config", str(path)])
    assert cfg["suite"] == "structures"
    assert cfg["seed"] == 9
    assert cfg["tol"]["structures.exact"] == 0.25
    # flags beat the file
    cfg = parse_config(["--config", str(path), "--seed", "1"])
    assert cfg["seed"] == 1


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(path)])


def test_conflicting_duplicate_flag_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--seed", "1", "--seed", "2"])
    with pytest.raises(ConfigError):
        parse_config(["--tol", "kernels.fd=1e-4", "--tol", "kernels.fd=1e-3"])
    # identical duplicates are not a conflict
    cfg = parse_config(["--seed", "3", "--seed", "3"])
    assert cfg["seed"] == 3


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        parse_config(["--suite", "bogus"])


def test_unknown_tol_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(["--tol", "nope=1"])


def test_report_schema_and_sorting():
    cfg = parse_config(["--suite", "structures"])
    report = run_suite(cfg)
    assert set(report) >= {"suite", "version", "seed", "checks", "summary"}
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    for c in report["checks"]:
        assert set(c) == {"id", "status", "value", "tol", "ms"}
        assert c["status"] in ("pass", "fail", "flag")
        assert c["ms"] == 0
    counts = report["summary"]
    assert counts["pass"] + counts["fail"] + counts["flag"] == len(ids)


def test_identities_suite_size_and_determinism():
    cfg = parse_config(["--suite", "identities"])
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert len(r1["checks"]) >= 90
    assert emit(r1) == emit(r2)


def test_timing_sums_to_suite_time(capsys):
    report = run_suite(parse_config(["--suite", "identities", "--timing"]))
    total = float(re.search(r"suite identities: (\d+) ms",
                            capsys.readouterr().err).group(1))
    ms = [c["ms"] for c in report["checks"]]
    assert abs(sum(ms) - total) <= max(0.05 * total, len(ms) * 1.0)


def test_timing_measures_each_check(monkeypatch, capsys):
    # A check's time is the span since the previous one finished, not a
    # share of the suite total.
    def suite(cfg, tol):
        time.sleep(0.2)
        yield ("structures.slow", 0.0, 0.0, None)
        yield ("structures.fast", 0.0, 0.0, None)

    monkeypatch.setitem(harness._SUITE_FUNCS, "structures", suite)
    report = run_suite(parse_config(["--suite", "structures", "--timing"]))
    capsys.readouterr()
    ms = {c["id"]: c["ms"] for c in report["checks"]}
    assert ms["structures.slow"] >= 190
    assert ms["structures.fast"] <= 50


def test_emit_formats():
    cfg = parse_config(["--suite", "structures"])
    report = run_suite(cfg)
    parsed = json.loads(emit(report, "json"))
    assert parsed["suite"] == "structures"
    lines = emit(report, "csv").decode().splitlines()
    assert lines[0] == "id,status,value,tol,ms"
    assert len(lines) == len(report["checks"]) + 1
    with pytest.raises(ConfigError):
        emit(report, "yaml")


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["--suite", "structures", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["fail"] == 0
    assert main(["--suite", "bogus"]) == 2
    assert main(["--seed", "1", "--seed", "2"]) == 2
    # an impossible tolerance forces a failing check -> exit 1
    assert main(["--suite", "structures", "--tol",
                 "structures.exact=-1"]) == 1
    capsys.readouterr()


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["--suite", "structures", "--out", str(out)]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert not out.exists()


def test_vekua_suite_flags_transcription_slips():
    cfg = parse_config(["--suite", "vekua"])
    report = run_suite(cfg)
    flagged = {c["id"] for c in report["checks"] if c["status"] == "flag"}
    assert flagged == {
        "vekua.BiHarmonic.printed_residual",
        "vekua.Cliffordian1.printed_residual",
        "vekua.PolyCliffordian12.printed_residual",
    }
    assert report["summary"]["fail"] == 0


# -- the check protocol ------------------------------------------------------------


def test_defaults_come_from_the_settings_table():
    assert DEFAULTS == {name: spec[1] for name, spec in SETTINGS.items()}
    assert parse_config([]) == dict(DEFAULTS, tol=TOL_DEFAULTS)


def _one_check(monkeypatch, samples, forced, tol=0.5):
    def suite(cfg, tol_table):
        yield ("structures.probe", samples, tol, forced)

    monkeypatch.setitem(harness._SUITE_FUNCS, "structures", suite)
    report = run_suite(parse_config(["--suite", "structures"]))
    (record,) = report["checks"]
    return record


@pytest.mark.parametrize("samples, forced, status, value", (
    ([0.0, nan, 1e-12], None, "fail", nan),
    ([nan], "flag", "fail", nan),
    (nan, None, "fail", nan),
    ([], None, "pass", 0.0),
    ([], "flag", "pass", 0.0),
    ([0.25, 0.5, 0.125], None, "pass", 0.5),
    ([1.0], "flag", "flag", 1.0),
    ([0.25, 1.0], None, "fail", 1.0),
    (0.75, "flag", "flag", 0.75),
))
def test_status_follows_the_worst_sample(monkeypatch, capsys, samples, forced,
                                         status, value):
    record = _one_check(monkeypatch, samples, forced)
    capsys.readouterr()
    assert record["status"] == status
    assert isnan(record["value"]) if isnan(value) else record["value"] == value


def test_worst_is_the_running_max_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (0, 1, 5, 40):
        scale = 10.0 ** rng.integers(-20, 5, n)
        samples = (np.abs(rng.standard_normal(n)) * scale).tolist()
        samples += [0.0, -0.0][: n % 3]
        running = 0.0
        for e in samples:
            running = max(running, e)
        assert repr(harness._worst(samples)) == repr(running)
    assert repr(harness._worst([-0.0])) == "0.0"


def test_a_nan_kernel_residual_fails_its_check(monkeypatch, capsys):
    monkeypatch.setattr(harness, "p0_residual",
                        lambda s, x: Multivector(np.full(32, nan)))
    report = run_suite(parse_config(["--suite", "kernels", "--seed", "7"]))
    capsys.readouterr()
    (record,) = [c for c in report["checks"] if c["id"] == "kernels.p0"]
    assert record["status"] == "fail"
    assert isnan(record["value"])


def test_calculus_suite_at_seed_2_has_no_failing_check(capsys):
    # On circles of 1.25 or 1.6 x T.norm_bound() this seed failed 14 checks
    # to cancellation in the contour sum; the circles now come from the
    # S-spectrum.
    report = run_suite(parse_config(["--suite", "calculus", "--seed", "2"]))
    capsys.readouterr()
    assert [c["id"] for c in report["checks"] if c["status"] == "fail"] == []


def _printed_es1bis_residual(T, s, N):
    """The residual with the printed double sum over (m, k), term by term."""
    from finestruct.kernels import _slice_inverse_powers
    from finestruct.op_calculus import CliffordMatrix

    d = T.d
    spows = _slice_inverse_powers(s, N)
    Tc, Tbar = T.as_clifford(), T.conj_clifford()
    acc = CliffordMatrix.zero(d)
    for m in range(1, N + 1):
        for k in range(1, m + 1):
            term = CliffordMatrix.identity(d)
            for _ in range(m - k):
                term = term * Tc
            for _ in range(k - 1):
                term = term * Tbar
            acc = acc + term * spows[m]
    Q = (CliffordMatrix.from_multivector(s * s, d)
         - CliffordMatrix.from_blade(0, 2.0 * T.T0) * s
         + CliffordMatrix.from_blade(0, T.qmat()))
    eye = CliffordMatrix.identity(d)
    return max((Q * acc - eye).norm_inf(), (acc * Q - eye).norm_inf())


def test_es1bis_recurrence_sums_the_printed_double_sum():
    # At N = 4 the series is far from converged, so the residual is large
    # and equal only if both sums are the same operator.
    rng = np.random.default_rng(21)
    T, _ = harness._rand_tuple(rng, 3, 0.4)
    s = Multivector.paravector(0.9, 0.3, 0.0, 0.2)
    got = harness._es1bis_residual(T, s, 4)
    want = _printed_es1bis_residual(T, s, 4)
    assert want > 1e-3
    assert abs(got - want) <= 1e-12 * want


def test_es1bis_makes_at_most_3n_plus_3_operator_products(monkeypatch):
    from finestruct.op_calculus import CliffordMatrix

    product = CliffordMatrix.__mul__
    calls = []

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CliffordMatrix, "__mul__", counting)
    rng = np.random.default_rng(22)
    T, _ = harness._rand_tuple(rng, 3, 0.2)
    s = Multivector.paravector(1.5, 0.3, 0.0, 0.2)
    assert harness._es1bis_residual(T, s, 80) < 1e-9
    assert len(calls) <= 3 * 80 + 3
