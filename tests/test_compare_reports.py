"""tools/compare_reports.py: exit 0 when only values move, 1 on a status
flip or a missing check or file, 2 on a wrong argument count."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _write(path, checks):
    path.write_text(json.dumps({"checks": [
        {"id": cid, "status": status, "value": value}
        for cid, status, value in checks]}))
    return path


def _run(*paths):
    return compare_reports.main(["compare_reports.py", *map(str, paths)])


BASE = [("a.one", "pass", 1e-12), ("b.two", "flag", 0.5)]


def test_identical_reports_exit_0(tmp_path, capsys):
    old = _write(tmp_path / "old.json", BASE)
    new = _write(tmp_path / "new.json", BASE)
    assert _run(old, new) == 0
    assert capsys.readouterr().out == ""


def test_moved_value_is_printed_and_exits_0(tmp_path, capsys):
    old = _write(tmp_path / "old.json", BASE)
    new = _write(tmp_path / "new.json", [("a.one", "pass", 2e-12), BASE[1]])
    assert _run(old, new) == 0
    assert capsys.readouterr().out == "a.one: pass, 1e-12 -> 2e-12\n"


def test_status_flip_exits_1(tmp_path, capsys):
    old = _write(tmp_path / "old.json", BASE)
    new = _write(tmp_path / "new.json", [("a.one", "fail", 1e-12), BASE[1]])
    assert _run(old, new) == 1
    assert "a.one: FLIP pass -> fail" in capsys.readouterr().out


def test_id_in_one_report_only_exits_1(tmp_path, capsys):
    old = _write(tmp_path / "old.json", BASE)
    new = _write(tmp_path / "new.json", BASE[:1])
    assert _run(old, new) == 1
    assert "b.two: only in" in capsys.readouterr().out


def test_directory_with_a_file_on_one_side_only_exits_1(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for d in (old, new):
        _write(d / "seed1.json", BASE)
    _write(old / "seed2.json", BASE)
    assert _run(old, new) == 1
    assert "seed2.json: in one directory only" in capsys.readouterr().out


@pytest.mark.parametrize("argc", (0, 1, 3))
def test_wrong_argument_count_exits_2(tmp_path, capsys, argc):
    paths = [_write(tmp_path / f"r{i}.json", BASE) for i in range(argc)]
    assert _run(*paths) == 2
    assert "compare_reports.py OLD NEW" in capsys.readouterr().err
