"""The kernel-formula table: fine_kernel and fine_resolvent compared bit for
bit (raw bytes, so signed zeros count) with the hand-written formulas they
replace, and each row checked exactly against the operator-word images
through its generating function."""

import itertools

import numpy as np
import pytest

from finestruct import harness, kernels
from finestruct.clifford_core import Multivector, paravector_conjugate, paravector_norm_sq
from finestruct.fueter_ops import KIND_ORDER, KIND_WORDS, word_degrees, word_image
from finestruct.harness import _rand_tuple
from finestruct.kernels import (
    KERNEL_TERMS,
    S_MINUS_X0,
    S_MINUS_X0_SQ,
    S_MINUS_XBAR,
    X_MINUS_S,
    fine_kernel,
    inverse_power,
    pseudo_kernel,
)
from finestruct.op_calculus import CliffordMatrix, fine_resolvent, q_resolvent
from finestruct.slice_poly import LEFT, RIGHT

KINDS = tuple(KIND_WORDS)


# -- the hand-written formulas the table replaced -----------------------------


def _reference_q_inverse_power(s, x, k):
    q = pseudo_kernel("commutative", s, x)
    bound = 1e-10 * (1.0 + paravector_norm_sq(s) + paravector_norm_sq(x))
    assert np.sqrt(paravector_norm_sq(q)) > bound
    return inverse_power(q, k)


def _reference_fine_kernel(kind, side, s, x):
    s_minus_xbar = s - paravector_conjugate(x)
    if kind == "Cauchy":
        q_inv = _reference_q_inverse_power(s, x, 1)
        if side == LEFT:
            return s_minus_xbar * q_inv
        return q_inv * s_minus_xbar
    if kind == "F5":
        q3 = _reference_q_inverse_power(s, x, 3)
        if side == LEFT:
            return s_minus_xbar * q3 * 64.0
        return q3 * s_minus_xbar * 64.0
    s_minus_x0 = s - Multivector.scalar(x[0])
    if kind == "D":
        return _reference_q_inverse_power(s, x, 1) * (-4.0)
    if kind == "Delta":
        q2 = _reference_q_inverse_power(s, x, 2)
        if side == LEFT:
            return s_minus_xbar * q2 * (-8.0)
        return q2 * s_minus_xbar * (-8.0)
    if kind == "DeltaD":
        return _reference_q_inverse_power(s, x, 2) * 16.0
    if kind == "Dbar":
        q1 = _reference_q_inverse_power(s, x, 1)
        q2 = _reference_q_inverse_power(s, x, 2)
        if side == LEFT:
            return s_minus_xbar * q2 * s_minus_x0 * 4.0 + q1 * 2.0
        return s_minus_x0 * q2 * s_minus_xbar * 4.0 + q1 * 2.0
    if kind == "Dbar2":
        q3 = _reference_q_inverse_power(s, x, 3)
        sq = s_minus_x0 * s_minus_x0
        if side == LEFT:
            return s_minus_xbar * q3 * sq * 32.0
        return sq * q3 * s_minus_xbar * 32.0
    if kind == "D2":
        q2 = _reference_q_inverse_power(s, x, 2)
        if side == LEFT:
            return (x - s) * q2 * 8.0
        return q2 * (x - s) * 8.0
    if kind == "DeltaDbar":
        q3 = _reference_q_inverse_power(s, x, 3)
        if side == LEFT:
            return s_minus_xbar * q3 * s_minus_x0 * (-64.0)
        return s_minus_x0 * q3 * s_minus_xbar * (-64.0)
    raise ValueError(kind)


def _reference_fine_resolvent(kind, side, T, s):
    d = T.d
    sI = CliffordMatrix.from_multivector(s, d)
    s_minus_tbar = sI - T.conj_clifford()
    if kind in ("Cauchy", "SC"):
        q1 = q_resolvent(T, s, 1)
        if side == LEFT:
            return s_minus_tbar * q1
        return q1 * s_minus_tbar
    if kind == "F5":
        q3 = q_resolvent(T, s, 3)
        if side == LEFT:
            return (s_minus_tbar * q3).scale(64.0)
        return (q3 * s_minus_tbar).scale(64.0)
    s_minus_t0 = sI - CliffordMatrix.from_blade(0, T.T0)
    if kind == "D":
        return q_resolvent(T, s, 1).scale(-4.0)
    if kind == "Delta":
        q2 = q_resolvent(T, s, 2)
        if side == LEFT:
            return (s_minus_tbar * q2).scale(-8.0)
        return (q2 * s_minus_tbar).scale(-8.0)
    if kind == "DeltaD":
        return q_resolvent(T, s, 2).scale(16.0)
    if kind == "Dbar":
        q1 = q_resolvent(T, s, 1)
        q2 = q_resolvent(T, s, 2)
        if side == LEFT:
            return (s_minus_tbar * q2 * s_minus_t0).scale(4.0) + q1.scale(2.0)
        return (s_minus_t0 * q2 * s_minus_tbar).scale(4.0) + q1.scale(2.0)
    if kind == "Dbar2":
        q3 = q_resolvent(T, s, 3)
        sq = s_minus_t0 * s_minus_t0
        if side == LEFT:
            return (s_minus_tbar * q3 * sq).scale(32.0)
        return (sq * q3 * s_minus_tbar).scale(32.0)
    if kind == "D2":
        q2 = q_resolvent(T, s, 2)
        t_minus_s = T.as_clifford() - sI
        if side == LEFT:
            return (t_minus_s * q2).scale(8.0)
        return (q2 * t_minus_s).scale(8.0)
    if kind == "DeltaDbar":
        q3 = q_resolvent(T, s, 3)
        if side == LEFT:
            return (s_minus_tbar * q3 * s_minus_t0).scale(-64.0)
        return (s_minus_t0 * q3 * s_minus_tbar).scale(-64.0)
    raise ValueError(kind)


# -- bit for bit ---------------------------------------------------------------


def _points(case, n=40):
    """(s, x) paravector pairs: generic, x on the slice axis, x with zero
    (and -0.0) slots, s real, and both real."""
    rng = np.random.default_rng(["generic", "axis", "zero_slots", "real_s",
                                 "both_real"].index(case))
    pairs = []
    for _ in range(n):
        s = rng.normal(size=6) * rng.uniform(0.5, 2.0)
        x = rng.normal(size=6) * rng.uniform(0.1, 1.5)
        if case == "axis":
            x[1:] = 0.0
        elif case == "zero_slots":
            x[rng.random(6) < 0.5] = rng.choice((0.0, -0.0))
            s[rng.random(6) < 0.3] = 0.0
        elif case == "real_s":
            s[1:] = 0.0
        elif case == "both_real":
            s[1:] = 0.0
            x[1:] = 0.0
        pairs.append((Multivector.paravector(*s), Multivector.paravector(*x)))
    return pairs


@pytest.mark.parametrize("side", (LEFT, RIGHT))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ("generic", "axis", "zero_slots", "real_s",
                                  "both_real"))
def test_fine_kernel_equals_hand_written_formula_bit_for_bit(case, kind, side):
    for s, x in _points(case):
        got = fine_kernel(kind, side, s, x)
        assert got.c.tobytes() == _reference_fine_kernel(kind, side, s, x).c.tobytes()


@pytest.mark.parametrize("side", (LEFT, RIGHT))
def test_cauchy_form_ii_and_f5_kernel_read_the_table(side):
    for s, x in _points("zero_slots"):
        assert (kernels.cauchy_kernel(side, "II", s, x).c.tobytes()
                == _reference_fine_kernel("Cauchy", side, s, x).c.tobytes())
        assert (kernels.f5_kernel(side, s, x).c.tobytes()
                == _reference_fine_kernel("F5", side, s, x).c.tobytes())


@pytest.mark.parametrize("d", (1, 2, 4))
def test_fine_resolvent_equals_hand_written_formula_bit_for_bit(d):
    rng = np.random.default_rng(10 + d)
    for rep in range(3):
        T, _ = _rand_tuple(rng, d)
        s = Multivector.paravector(*(rng.normal(size=6) * 1.5))
        if rep == 1:
            s = Multivector.scalar(s[0] + 3.0)  # s on the real axis
        for kind, side in itertools.product(KINDS + ("SC",), (LEFT, RIGHT)):
            got = fine_resolvent(kind, side, T, s)
            ref = _reference_fine_resolvent(kind, side, T, s)
            assert got.a.tobytes() == ref.a.tobytes(), (kind, side, rep)


def test_fine_kernel_builds_q_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return pseudo_kernel(*args)

    monkeypatch.setattr(kernels, "pseudo_kernel", counted)
    s, x = _points("generic", 1)[0]
    for kind in KINDS:
        calls.clear()
        fine_kernel(kind, LEFT, s, x)
        assert calls == ["commutative"], kind


def test_unknown_kind_is_rejected():
    s, x = _points("generic", 1)[0]
    with pytest.raises(ValueError):
        fine_kernel("Nabla", LEFT, s, x)


def test_kernels_series_evaluates_each_closed_form_once(monkeypatch):
    calls = {"n": 0}

    def counted(*args):
        calls["n"] += 1
        return fine_kernel(*args)

    monkeypatch.setattr(harness, "fine_kernel", counted)
    cfg = harness.parse_config(["--suite", "kernels", "--seed", "7"])
    per_check = {}
    for check in harness._suite_kernels(cfg, cfg["tol"]):
        per_check[check[0]] = calls["n"]
        calls["n"] = 0
    series = [n for cid, n in per_check.items() if cid.startswith("kernels.series.")]
    # 5 samples x 2 sides per kind.
    assert series == [10] * len(KINDS)


def test_kind_order_is_the_total_derivative_order():
    assert KIND_ORDER == {"Cauchy": 0, "D": 1, "Dbar": 1, "Delta": 2, "D2": 2,
                          "Dbar2": 2, "DeltaD": 3, "DeltaDbar": 3, "F5": 4}
    assert all(KIND_ORDER[k] == sum(word_degrees(w)) for k, w in KIND_WORDS.items())


# -- exact generating functions -------------------------------------------------
#
# With s a commuting variable and t = 1/s, the kernel of a kind is the
# generating function sum_m image_m t^(m+1) of the images of x^m.  Polynomials
# in (x0, y = x_, t) are dicts {(a, b, j): int}; Q = s^2 q(t) with
# q(t) = 1 - 2 x0 t + (x0^2 - y^2) t^2, so a term c L Q^(-k) R times q(t)^3 is
# the polynomial c (tL)(tR) t^(2k - deg L - deg R) q(t)^(3 - k).

ORDER = 40


def _mul(p, q):
    out = {}
    for (a1, b1, j1), n1 in p.items():
        for (a2, b2, j2), n2 in q.items():
            if j1 + j2 <= ORDER:
                key = (a1 + a2, b1 + b2, j1 + j2)
                out[key] = out.get(key, 0) + n1 * n2
    return {k: n for k, n in out.items() if n}


def _add(p, q, sign=1):
    out = dict(p)
    for k, n in q.items():
        out[k] = out.get(k, 0) + sign * n
    return {k: n for k, n in out.items() if n}


def _pow(p, e):
    out = {(0, 0, 0): 1}
    for _ in range(e):
        out = _mul(out, p)
    return out


ONE_P = {(0, 0, 0): 1}
Q_T = {(0, 0, 0): 1, (1, 0, 1): -2, (2, 0, 2): 1, (0, 2, 2): -1}
# t times each factor, and the factor's degree in s.
T_FACTORS = {
    None: (ONE_P, 0),
    S_MINUS_XBAR: ({(0, 0, 0): 1, (1, 0, 1): -1, (0, 1, 1): 1}, 1),
    S_MINUS_X0: ({(0, 0, 0): 1, (1, 0, 1): -1}, 1),
    S_MINUS_X0_SQ: (_pow({(0, 0, 0): 1, (1, 0, 1): -1}, 2), 2),
    X_MINUS_S: ({(0, 0, 0): -1, (1, 0, 1): 1, (0, 1, 1): 1}, 1),
}
S_MINUS_X = "s - x"  # only in the printed D^2 form
T_FACTORS[S_MINUS_X] = ({(0, 0, 0): 1, (1, 0, 1): -1, (0, 1, 1): -1}, 1)


def _terms_times_q(terms, p=3):
    out = {}
    for c, left, k, right in terms:
        assert float(c).is_integer()
        (lt, ld), (rt, rd) = T_FACTORS[left], T_FACTORS[right]
        term = _mul(_mul(lt, rt), _pow(Q_T, p - k))
        term = _mul(term, {(0, 0, 2 * k - ld - rd): int(c)})
        out = _add(out, term)
    return out


def _series_times_q(word, p=3):
    series = {(a, b, m + 1): n for m in range(ORDER)
              for (a, b), n in word_image(word, m).items()}
    return _mul(series, _pow(Q_T, p))


def _orders(p):
    return {j for (_, _, j) in p}


@pytest.mark.parametrize("kind", KINDS)
def test_table_row_is_the_exact_generating_function(kind):
    assert _terms_times_q(KERNEL_TERMS[kind]) == _series_times_q(KIND_WORDS[kind])


def test_printed_d2_form_differs_exactly_at_low_orders():
    printed = ((8.0, S_MINUS_X, 2, None),)
    word = KIND_WORDS["D2"]
    diff = _add(_terms_times_q(printed), _series_times_q(word), -1)
    assert _orders(diff) == {3, 4, 5, 6}
    diff = _add(_terms_times_q(printed, 2), _series_times_q(word, 2), -1)
    assert _orders(diff) == {3, 4}
