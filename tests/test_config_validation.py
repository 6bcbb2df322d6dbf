"""Out-of-range and malformed settings are configuration errors (exit 2),
raised before any suite runs."""

import pytest

from finestruct.errors import ConfigError
from finestruct.harness import SETTINGS, main, parse_config


def _rejected(argv, capsys):
    with pytest.raises(ConfigError):
        parse_config(argv)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _config_file(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


def test_too_few_nodes_rejected(capsys):
    _rejected(["--suite", "integrals", "--nodes", "8"], capsys)


def test_negative_seed_rejected(capsys):
    _rejected(["--suite", "identities", "--seed", "-1"], capsys)


def test_zero_dimension_rejected(capsys):
    _rejected(["--suite", "calculus", "--dim", "0"], capsys)


def test_negative_degree_cap_rejected(capsys):
    _rejected(["--suite", "structures", "--degree-cap", "-1"], capsys)


def test_malformed_integer_in_file_rejected_with_its_line(tmp_path, capsys):
    path = _config_file(tmp_path, "suite = structures\nseed = abc\n")
    with pytest.raises(ConfigError, match=f"{path}:2"):
        parse_config(["--config", path])
    _rejected(["--config", path], capsys)


def test_malformed_boolean_in_file_rejected_with_its_line(tmp_path, capsys):
    path = _config_file(tmp_path, "suite = structures\ntiming = maybe\n")
    with pytest.raises(ConfigError, match=f"{path}:2"):
        parse_config(["--config", path])
    _rejected(["--config", path], capsys)


@pytest.mark.parametrize("raw, value", (
    ("1", True), ("true", True), ("YES", True),
    ("0", False), ("False", False), ("no", False)))
def test_file_boolean_words_in_any_case(tmp_path, raw, value):
    path = _config_file(tmp_path, f"timing = {raw}\n")
    assert parse_config(["--config", path])["timing"] is value


@pytest.mark.parametrize("name", [n for n, spec in SETTINGS.items()
                                  if len(spec) == 3])
def test_each_least_value_is_enforced_on_the_flag_and_in_the_file(
        tmp_path, capsys, name):
    low = SETTINGS[name][2]
    _rejected(["--" + name.replace("_", "-"), str(low - 1)], capsys)
    _rejected(["--config", _config_file(tmp_path, f"{name} = {low - 1}\n")],
              capsys)
    assert parse_config(["--config", _config_file(
        tmp_path, f"{name} = {low}\n")])[name] == low


def test_malformed_tolerance_in_file_rejected_with_its_line(tmp_path, capsys):
    path = _config_file(tmp_path, "# tolerances\ntol.kernels.fd = abc\n")
    with pytest.raises(ConfigError, match=f"{path}:2"):
        parse_config(["--config", path])
    _rejected(["--config", path], capsys)


def test_nan_tolerance_flag_rejected_with_its_key(capsys):
    argv = ["--suite", "structures", "--tol", "structures.exact=nan"]
    with pytest.raises(ConfigError, match="structures.exact"):
        parse_config(argv)
    _rejected(argv, capsys)


def test_nan_tolerance_in_file_rejected_with_its_line(tmp_path, capsys):
    path = _config_file(tmp_path, "suite = structures\n"
                        "tol.structures.exact = NaN\n")
    with pytest.raises(ConfigError, match=f"{path}:2"):
        parse_config(["--config", path])
    _rejected(["--config", path], capsys)


def test_unknown_format_in_file_rejected(tmp_path, capsys):
    path = _config_file(tmp_path, "suite = structures\nformat = xml\n")
    _rejected(["--config", path], capsys)


def test_smallest_valid_settings_accepted(tmp_path):
    cfg = parse_config(["--dim", "1", "--degree-cap", "0", "--seed", "0",
                        "--nodes", "16"])
    assert (cfg["dim"], cfg["degree_cap"], cfg["seed"], cfg["nodes"]) == (
        1, 0, 0, 16)
    path = _config_file(tmp_path, "dim = 1\ndegree_cap = 0\nseed = 0\n"
                        "nodes = 16\nformat = csv\n")
    cfg = parse_config(["--config", path])
    assert (cfg["dim"], cfg["degree_cap"], cfg["seed"], cfg["nodes"],
            cfg["format"]) == (1, 0, 0, 16, "csv")


# -- one reader for flags, --tol and file lines --------------------------------


def test_malformed_integer_flag_names_the_flag_and_value(capsys):
    with pytest.raises(ConfigError, match=r"--seed: invalid int 'abc'"):
        parse_config(["--seed", "abc"])
    assert main(["--seed", "abc"]) == 2
    assert "error: --seed: invalid int 'abc'" in capsys.readouterr().err


def test_unknown_tolerance_flag_names_the_tolerance(capsys):
    with pytest.raises(ConfigError, match="--tol foo: unknown tolerance 'foo'"):
        parse_config(["--tol", "foo=1"])
    _rejected(["--tol", "foo=1"], capsys)


def test_unknown_tolerance_in_file_has_the_flag_wording(tmp_path):
    path = _config_file(tmp_path, "tol.foo = 1\n")
    with pytest.raises(ConfigError, match=f"{path}:1: unknown tolerance 'foo'"):
        parse_config(["--config", path])


def test_repeated_boolean_flag_accepted():
    assert parse_config(["--timing", "--timing"])["timing"] is True


@pytest.mark.parametrize("first, second, value", (
    ("1e-4", "1e-4", 1e-4), ("1", "1.0", 1.0)))
def test_tolerance_flags_that_parse_to_one_value_accepted(first, second, value):
    cfg = parse_config(["--tol", f"kernels.fd={first}",
                        "--tol", f"kernels.fd={second}"])
    assert cfg["tol"]["kernels.fd"] == value


def test_two_config_paths_rejected(tmp_path, capsys):
    one = _config_file(tmp_path, "seed = 3\n")
    other = tmp_path / "other.txt"
    other.write_text("seed = 3\n")
    _rejected(["--config", one, "--config", str(other)], capsys)
    assert parse_config(["--config", one, "--config", one])["seed"] == 3


def test_flag_beats_file_for_a_boolean_and_a_tolerance(tmp_path):
    path = _config_file(tmp_path, "timing = no\ntol.kernels.fd = 0.5\n")
    cfg = parse_config(["--config", path, "--timing",
                        "--tol", "kernels.fd=0.25"])
    assert cfg["timing"] is True
    assert cfg["tol"]["kernels.fd"] == 0.25


def test_file_values_are_stored_in_the_default_key_order(tmp_path):
    path = _config_file(tmp_path, "tol.kernels.p0 = 1\nformat = csv\n")
    cfg = parse_config(["--config", path])
    assert list(cfg) == list(parse_config([]))
    assert list(cfg["tol"]) == list(parse_config([])["tol"])


def test_conflicting_duplicate_key_in_file_rejected_at_its_line(tmp_path,
                                                                capsys):
    path = _config_file(tmp_path, "seed = 1\n# again\nseed = 2\n")
    with pytest.raises(ConfigError,
                       match=f"{path}:3: conflicting duplicate key 'seed'"):
        parse_config(["--config", path])
    _rejected(["--config", path], capsys)


def test_file_repeat_that_parses_to_one_value_accepted(tmp_path):
    path = _config_file(tmp_path, "seed = 4\ntol.kernels.fd = 1\n"
                        "seed=4\ntol.kernels.fd = 1.0\n")
    cfg = parse_config(["--config", path])
    assert (cfg["seed"], cfg["tol"]["kernels.fd"]) == (4, 1.0)
    # A flag still overrides the file's value without a conflict.
    assert parse_config(["--config", path, "--seed", "5"])["seed"] == 5


def test_empty_config_path_is_an_unreadable_file(capsys):
    with pytest.raises(ConfigError, match="cannot read config file ''"):
        parse_config(["--config", ""])
    _rejected(["--config", ""], capsys)
