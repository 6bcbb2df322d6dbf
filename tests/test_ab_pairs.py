"""tools/ab_pairs.py: the quartiles and the count of pairs that the change
won, on canned perfbench result lines (no perfbench run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _stdout(wall, cpu, setup, rss):
    values = dict(zip(ab_pairs.METRICS, (wall, cpu, setup, rss)))
    result = {"correct": True, "attempted": 126, "failed": 0, "metrics": {
        name: {"value": v, "unit": "s"} for name, v in values.items()}}
    return 'diagnostics {"workload": "w"}\n' + json.dumps(result) + "\n"


def test_parse_reads_the_last_line():
    got = ab_pairs.parse(_stdout(0.5, 0.4, 0.2, 39.0))
    assert got["metrics"]["wall_s"]["value"] == 0.5
    assert got["failed"] == 0


def test_medians_and_wins():
    lines = [((0.46, 0.43, 0.27, 39.4), (0.40, 0.38, 0.31, 39.3)),
             ((0.48, 0.45, 0.30, 39.3), (0.41, 0.38, 0.29, 39.4)),
             ((0.47, 0.45, 0.28, 39.4), (0.47, 0.37, 0.21, 39.4)),
             ((0.50, 0.44, 0.25, 39.2), (0.52, 0.36, 0.26, 39.3))]
    pairs = [tuple(ab_pairs.parse(_stdout(*side)) for side in pair)
             for pair in lines]
    rows = {name: rest for name, *rest in ab_pairs.summary(pairs)}
    assert list(rows) == list(ab_pairs.METRICS)
    want = {"wall_s": (0.475, 0.44, 2),   # a tie is no win
            "cpu_s": (0.445, 0.375, 4), "setup_s": (0.275, 0.275, 2),
            "peak_rss_mb": (39.35, 39.35, 1)}
    for name, (old, new, wins) in want.items():
        assert rows[name][0][1] == pytest.approx(old)
        assert rows[name][1][1] == pytest.approx(new)
        assert rows[name][2] == wins
    # Exclusive quartiles of 0.46, 0.47, 0.48, 0.50.
    assert rows["wall_s"][0] == pytest.approx([0.4625, 0.475, 0.495])


def test_fewer_than_two_pairs_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(["a", "b", "--workload", "w", "--pairs", "1"])
    assert exc.value.code == 2
