"""Each suite's report at seed 7 has the bytes that the committed manifest
tools/report_digests.json records for it, so a moved report byte fails
here and not only in the full 240-report sweep.  Skipped on a machine other
than the manifest's (Python, numpy, BLAS or architecture), where the bits
may differ."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from finestruct.harness import SUITES, emit, parse_config, run_suite

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location(
    "compare_reports", _TOOLS / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

MANIFEST = json.loads((_TOOLS / "report_digests.json").read_text())


@pytest.mark.skipif(compare_reports.machine() != MANIFEST["machine"],
                    reason="manifest made on another machine")
@pytest.mark.parametrize("suite", SUITES)
def test_report_at_seed_7_matches_the_committed_digest(suite):
    cfg = parse_config(["--suite", suite, "--seed", "7"])
    report = emit(run_suite(cfg), cfg["format"])
    assert (hashlib.sha256(report).hexdigest()
            == MANIFEST["reports"][f"{suite}_7.json"])


@pytest.mark.skipif(compare_reports.machine() != MANIFEST["machine"],
                    reason="manifest made on another machine")
def test_calculus_report_at_seed_14_matches_the_committed_digest():
    """Seed 14 is where calculus reports carry failing exact.* and tcost.*
    statuses, which the one batched call on the spectral contour computes."""
    cfg = parse_config(["--suite", "calculus", "--seed", "14"])
    report = emit(run_suite(cfg), cfg["format"])
    assert (hashlib.sha256(report).hexdigest()
            == MANIFEST["reports"]["calculus_14.json"])
