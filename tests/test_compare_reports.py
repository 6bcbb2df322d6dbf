"""tools/compare_reports.py: exit 0 when only values move, 1 on a status
flip or a missing check or file, 2 on a wrong argument count or a path that
does not exist; and
tools/sweep_reports.py, whose directories it compares."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load("compare_reports")
sweep_reports = _load("sweep_reports")


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


def test_signed_zero_move_is_printed_and_exits_0(tmp_path, capsys):
    old = _write(tmp_path / "old.json", [("a.one", "pass", 0.0)])
    new = _write(tmp_path / "new.json", [("a.one", "pass", -0.0)])
    assert old.read_bytes() != new.read_bytes()
    assert _run(old, new) == 0
    assert capsys.readouterr().out == "a.one: pass, 0.0 -> -0.0\n"


def test_nan_that_stays_nan_is_not_a_move(tmp_path, capsys):
    checks = [("a.one", "fail", float("nan")), BASE[1]]
    old = _write(tmp_path / "old.json", checks)
    new = _write(tmp_path / "new.json", checks)
    assert _run(old, new) == 0
    assert capsys.readouterr().out == ""
    new = _write(tmp_path / "new.json", [("a.one", "fail", 1.0), BASE[1]])
    assert _run(old, new) == 0
    assert capsys.readouterr().out == "a.one: fail, nan -> 1.0\n"


def test_status_flip_exits_1(tmp_path, capsys):
    old = _write(tmp_path / "old.json", BASE)
    new = _write(tmp_path / "new.json", [("a.one", "fail", 1e-12), BASE[1]])
    assert _run(old, new) == 1
    assert "a.one: FLIP pass -> fail" in capsys.readouterr().out


def test_failing_checks_and_flips_are_counted_on_stderr(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    _write(old / "seed1.json", [("a.one", "fail", 2.0), ("b.two", "pass", 0.1),
                                ("c.three", "fail", 3.0)])
    _write(new / "seed1.json", [("a.one", "pass", 0.5), ("b.two", "fail", 2.0),
                                ("c.three", "fail", 4.0)])
    _write(old / "seed2.json", [("a.one", "fail", 2.0), ("b.two", "flag", 0.5)])
    _write(new / "seed2.json", [("a.one", "pass", 0.5), ("b.two", "pass", 0.1)])
    assert _run(old, new) == 1
    assert capsys.readouterr().err == (
        "failing checks: 3 in OLD, 2 in NEW; flips: 1 pass -> fail, "
        "2 fail -> pass\n")
    assert _run(old / "seed2.json", old / "seed2.json") == 0
    assert capsys.readouterr().err == (
        "failing checks: 1 in OLD, 1 in NEW; flips: 0 pass -> fail, "
        "0 fail -> pass\n")


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


@pytest.mark.parametrize("which", ("old", "new", "manifest_dir"))
def test_path_that_does_not_exist_exits_2(tmp_path, capsys, which):
    report = _write(tmp_path / "r.json", BASE)
    missing = tmp_path / "missing"
    if which == "manifest_dir":
        argv = ["--write-manifest", missing, tmp_path / "m.json"]
    else:
        argv = [missing, report] if which == "old" else [report, missing]
    assert _run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {missing} does not exist\n"
    assert captured.out == ""
    assert not (tmp_path / "m.json").exists()


def test_sweep_writes_one_report_per_seed(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert sweep_reports.main(["sweep_reports.py", "structures", "1", "2",
                               str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["structures_1.json",
                                                     "structures_2.json"]
    report = json.loads((out / "structures_2.json").read_text())
    assert (report["suite"], report["seed"]) == ("structures", 2)
    capsys.readouterr()
    assert _run(out, out) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", (("structures", "1"),
                                  ("nosuch", "1", "2", "out"),
                                  ("structures", "one", "2", "out")))
def test_sweep_rejects_bad_arguments_with_exit_2(tmp_path, args):
    args = [a if a != "out" else str(tmp_path / "out") for a in args]
    assert sweep_reports.main(["sweep_reports.py", *args]) == 2


def test_sweep_takes_a_comma_separated_suite_list(tmp_path):
    out = tmp_path / "sweep"
    assert sweep_reports.main(["sweep_reports.py", "structures,identities",
                               "3", "3", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["identities_3.json",
                                                     "structures_3.json"]
    report = json.loads((out / "identities_3.json").read_text())
    assert (report["suite"], report["seed"]) == ("identities", 3)


def test_sweep_rejects_an_unknown_suite_before_any_suite_runs(tmp_path,
                                                               monkeypatch):
    ran = []
    monkeypatch.setattr(sweep_reports, "run_suite", ran.append)
    out = tmp_path / "out"
    assert sweep_reports.main(["sweep_reports.py", "structures,nosuch",
                               "1", "2", str(out)]) == 2
    assert ran == [] and not out.exists()


def test_sweep_rejects_first_after_last_before_any_suite_runs(
        tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(sweep_reports, "run_suite", ran.append)
    out = tmp_path / "out"
    assert sweep_reports.main(["sweep_reports.py", "structures",
                               "2", "1", str(out)]) == 2
    assert ran == [] and not out.exists()
    err = capsys.readouterr().err
    assert "sweep_reports.py SUITES FIRST LAST OUTDIR" in err


# -- the committed manifest of report digests ---------------------------------------

_MANIFEST = _TOOLS / "report_digests.json"


def _sweep_dir(tmp_path):
    d = tmp_path / "sweep"
    d.mkdir()
    _write(d / "kernels_1.json", BASE)
    _write(d / "kernels_2.json", BASE[:1])
    return d


def _manifest(tmp_path, d):
    path = tmp_path / "digests.json"
    assert compare_reports.main(["compare_reports.py", "--write-manifest",
                                 str(d), str(path)]) == 0
    return path


def test_manifest_of_the_same_reports_exits_0(tmp_path, capsys):
    d = _sweep_dir(tmp_path)
    manifest = _manifest(tmp_path, d)
    assert _run(manifest, d) == 0
    out, err = capsys.readouterr()
    assert out == "" and "warning" not in err
    assert "2 of 2 reports compared" in err


def test_manifest_accepts_a_part_of_the_sweep(tmp_path, capsys):
    d = _sweep_dir(tmp_path)
    manifest = _manifest(tmp_path, d)
    (d / "kernels_2.json").unlink()
    assert _run(manifest, d) == 0
    assert "1 of 2 reports compared" in capsys.readouterr().err


def test_manifest_lists_reports_whose_bytes_differ_and_exits_1(tmp_path, capsys):
    d = _sweep_dir(tmp_path)
    manifest = _manifest(tmp_path, d)
    _write(d / "kernels_2.json", [("a.one", "pass", -0.0)])
    _write(d / "kernels_3.json", BASE)
    assert _run(manifest, d) == 1
    assert capsys.readouterr().out == ("kernels_2.json: bytes differ\n"
                                       "kernels_3.json: not in the manifest\n")


def test_manifest_against_an_empty_directory_exits_1(tmp_path):
    manifest = _manifest(tmp_path, _sweep_dir(tmp_path))
    empty = tmp_path / "empty"
    empty.mkdir()
    assert _run(manifest, empty) == 1


def test_manifest_from_another_machine_is_warned_about(tmp_path, capsys):
    d = _sweep_dir(tmp_path)
    manifest = _manifest(tmp_path, d)
    data = json.loads(manifest.read_text())
    data["machine"]["numpy"] = "0.0"
    manifest.write_text(json.dumps(data))
    assert _run(manifest, d) == 0
    assert "warning: manifest made on" in capsys.readouterr().err


def test_committed_manifest_covers_six_suites_at_seeds_1_to_40():
    data = json.loads(_MANIFEST.read_text())
    assert set(data["machine"]) == {"python", "numpy", "blas", "arch"}
    suites = ("identities", "kernels", "integrals", "calculus", "vekua",
              "structures")
    assert sorted(data["reports"]) == sorted(
        f"{suite}_{seed}.json" for suite in suites for seed in range(1, 41))


def test_sweep_all_writes_one_report_per_suite_of_the_manifest(tmp_path,
                                                              monkeypatch):
    # Stub suites: only the file names are checked, against the committed
    # manifest, which holds no combined all_<seed>.json.
    monkeypatch.setattr(sweep_reports, "run_suite", lambda cfg: cfg["suite"])
    monkeypatch.setattr(sweep_reports, "emit", lambda suite, fmt: b"{}")
    out = tmp_path / "sweep"
    assert sweep_reports.main(["sweep_reports.py", "all", "1", "40",
                               str(out)]) == 0
    data = json.loads(_MANIFEST.read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(data["reports"])


def test_exact_suites_match_the_committed_manifest(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert sweep_reports.main(["sweep_reports.py", "identities,structures",
                               "1", "1", str(out)]) == 0
    capsys.readouterr()
    assert _run(_MANIFEST, out) == 0
    assert capsys.readouterr().out == ""
