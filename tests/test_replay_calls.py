"""tools/replay_calls.py: its helpers on canned data, and a replay of the FD
reduce over a kernels pass with this checkout as both sides."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from finestruct.clifford_core import Multivector

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "replay_calls", _ROOT / "tools" / "replay_calls.py")
replay_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_calls)


def test_storable_takes_arrays_strings_numbers_and_none():
    assert replay_calls.storable(
        (np.zeros(3), "D", 1, 1e-3, np.float64(2.0), True, None))
    assert replay_calls.storable(())
    for other in (("D",), [1.0], Multivector.scalar(1.0), {"a": 1}):
        assert not replay_calls.storable((np.zeros(3), other))


def test_digest_reads_raw_bytes_and_shapes():
    digest = replay_calls.digest
    assert digest([np.array([0.0])]) != digest([np.array([-0.0])])
    assert digest([np.zeros(2)]) != digest([np.zeros((1, 2))])
    assert digest([np.zeros(2), np.ones(2)]) != digest([np.ones(2), np.zeros(2)])
    x = Multivector.paravector(0.5, -0.0)
    assert digest([x]) == digest([x.c])
    # A strided view is hashed as its values.
    a = np.arange(6.0).reshape(2, 3)
    assert digest([a[:, 1]]) == digest([np.array([1.0, 4.0])])


def test_replay_of_one_checkout_against_itself(capsys):
    code = replay_calls.main([str(_ROOT), str(_ROOT), "fueter_ops._fd_reduce",
                              "--suite", "kernels", "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert re.search(r"^[1-9]\d* calls recorded, 0 skipped$", out, re.M)
    assert "outputs identical, sha256 " in out
    assert out.count("median") == 2


def test_a_failing_child_exits_1(capsys):
    code = replay_calls.main([str(_ROOT), str(_ROOT), "fueter_ops.no_such",
                              "--suite", "structures", "--rounds", "1"])
    assert code == 1
    assert "AttributeError" in capsys.readouterr().err


def test_zero_rounds_is_an_argument_error():
    with pytest.raises(SystemExit) as exc:
        replay_calls.main(["a", "b", "fueter_ops._fd_reduce",
                           "--suite", "kernels", "--rounds", "0"])
    assert exc.value.code == 2
