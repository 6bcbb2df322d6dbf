"""Each step of the pseudo-kernel chain has one copy: Q's six slots come from
kernels._q_slots (for pseudo_kernel, harness._q_norm and fine_kernel_rows),
and Q^(-k) from kernels._q_powers (for fine_kernel, fine_kernel_rows and
inverse_power).  The ring expressions of Q, written out here, stay the
independent reference, byte for byte.  The paravector domain rule also
rejects inf and NaN slots, and imaginary units share it."""

import importlib
import pkgutil

import numpy as np
import pytest

import finestruct
from finestruct import kernels, op_calculus
from finestruct.clifford_core import (
    PARAVECTOR_INDEX,
    PARAVECTOR_MASKS,
    VECTOR_MASKS,
    Multivector,
    check_imaginary_unit,
    embed,
    paravector_norm_sq,
)
from finestruct.contour import circle, fine_integral_eval
from finestruct.errors import (NotFinite, NotImaginaryUnit, NotParavector,
                               SpectralSphereHit, ZeroParavector)
from finestruct.harness import _q_norm, _rand_tuple
from finestruct.kernels import (
    KERNEL_TERMS,
    cauchy_kernel,
    cauchy_kernel_batch,
    f5_kernel,
    fine_kernel,
    fine_kernel_rows,
    fine_kernel_series,
    fine_kernel_via_f5,
    inverse_power,
    p0_residual,
    pseudo_kernel,
)
from finestruct.op_calculus import (
    f_resolvent_equation_residual,
    fine_resolvent,
    fine_resolvent_series,
    q_resolvent,
)
from finestruct.slice_poly import LEFT, RIGHT, SlicePolynomial

E12 = 3  # the blade e1 e2, outside the paravector slots


def _slots(rng):
    """Six random slots, about a third of them 0.0 or -0.0."""
    v = rng.normal(size=6) * rng.uniform(0.1, 3.0)
    for i in range(6):
        u = rng.random()
        if u < 0.35:
            v[i] = 0.0 if u < 0.17 else -0.0
    return v


def _axis(v, rng):
    """v with every vector slot a signed zero: a point on the real axis."""
    v[1:] = [0.0 if rng.random() < 0.5 else -0.0 for _ in range(5)]
    return v


def _pairs(n=1200):
    rng = np.random.default_rng(42)
    pairs = []
    for i in range(n):
        s, x = _slots(rng), _slots(rng)
        if i % 5 == 1:
            x = _axis(x, rng)
        if i % 7 == 2:
            s = _axis(s, rng)
        pairs.append((Multivector.paravector(*s), Multivector.paravector(*x)))
    pairs.append((Multivector.paravector(*[0.0] * 6),
                  Multivector.paravector(*[-0.0] * 6)))
    pairs.append((Multivector.paravector(-0.0, 1.0, -0.0, 0.0, 2.0, -0.0),
                  Multivector.paravector(0.5, -0.0, 0.0, 0.0, -0.0, 0.0)))
    return pairs


def _ring_q(s, x):
    """s s - s (2 x0) + |x|^2, in the ring."""
    return s * s - s * (2.0 * x[0]) + Multivector.scalar(paravector_norm_sq(x))


# -- Q: one rule, checked against the ring expressions ---------------------------


def test_pseudo_kernel_is_the_ring_expression_byte_for_byte():
    pairs = _pairs()
    slots = np.array([p.c[PARAVECTOR_INDEX] for pair in pairs for p in pair])
    assert len(pairs) >= 1000
    assert np.count_nonzero(np.signbit(slots) & (slots == 0.0)) > 500
    assert np.count_nonzero((slots == 0.0) & ~np.signbit(slots)) > 500
    on_axis = ~slots[:, 1:].any(axis=1)  # rows alternate s, x
    assert on_axis[0::2].sum() > 100 and on_axis[1::2].sum() > 100
    for s, x in pairs:
        commutative = pseudo_kernel("commutative", s, x)
        noncommutative = pseudo_kernel("noncommutative", s, x)
        assert commutative.c.tobytes() == _ring_q(s, x).c.tobytes(), (s, x)
        assert noncommutative.c.tobytes() == _ring_q(x, s).c.tobytes(), (s, x)


def _rows_q(monkeypatch, call):
    """The Q rows that fine_kernel_rows passes to _q_powers during call()."""
    seen = []
    original = kernels._q_powers

    def recording(q, nq):
        seen.append(q.copy())
        return original(q, nq)

    monkeypatch.setattr(kernels, "_q_powers", recording)
    call()
    monkeypatch.setattr(kernels, "_q_powers", original)
    (q,) = seen
    return q


def test_the_rows_q_is_the_ring_expression_row_by_row(monkeypatch):
    pairs = [(s, x) for s, x in _pairs() if paravector_norm_sq(s) > 0.0]
    checked = 0
    for block in range(0, len(pairs), 100):
        chunk = pairs[block:block + 100]
        S = np.array([s.c for s, _ in chunk])
        X = np.array([x.c for _, x in chunk])
        s0, x0 = chunk[0]
        for args, want in (
                ((S, X), [_ring_q(s, x) for s, x in chunk]),
                ((s0, X), [_ring_q(s0, x) for _, x in chunk]),
                ((S, x0), [_ring_q(s, x0) for s, _ in chunk])):
            try:
                q = _rows_q(monkeypatch,
                            lambda: fine_kernel_rows("Cauchy", LEFT, *args))
            except SpectralSphereHit:
                continue
            assert q.tobytes() == np.array([w.c for w in want]).tobytes()
            checked += len(q)
    assert checked > 2500


def _patch_everywhere(monkeypatch, name, replacement):
    original = getattr(kernels, name)
    patched = []
    for info in pkgutil.iter_modules(finestruct.__path__):
        module = importlib.import_module(f"finestruct.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
            patched.append(info.name)
    return patched


def test_every_reader_of_q_changes_with_the_one_slot_rule(monkeypatch):
    s = Multivector.paravector(1.1, 0.3, 0.2, -0.4)
    x = Multivector.paravector(0.2, 0.1, 0.0, 0.3)
    sl, xl = s.c[PARAVECTOR_INDEX].tolist(), x.c[PARAVECTOR_INDEX].tolist()
    before = (pseudo_kernel("commutative", s, x).c.copy(),
              pseudo_kernel("noncommutative", s, x).c.copy(),
              _q_norm(sl, xl),
              fine_kernel_rows("F5", LEFT, s, x.c[None]).copy())
    original = kernels._q_slots

    def perturbed(s, x, nx):
        q = original(s, x, nx)
        q[2] = q[2] + 0.125
        return q

    assert {"kernels", "harness"} <= set(
        _patch_everywhere(monkeypatch, "_q_slots", perturbed))
    after = (pseudo_kernel("commutative", s, x).c,
             pseudo_kernel("noncommutative", s, x).c,
             _q_norm(sl, xl),
             fine_kernel_rows("F5", LEFT, s, x.c[None]))
    assert not np.array_equal(after[0], before[0])
    assert not np.array_equal(after[1], before[1])
    assert after[2] != before[2]
    assert not np.array_equal(after[3], before[3])


# -- Q^(-k): one helper ------------------------------------------------------------


def test_fine_kernel_makes_no_inverse_power_call(monkeypatch):
    calls = []
    original = kernels.inverse_power

    def counted(q, k):
        calls.append(k)
        return original(q, k)

    monkeypatch.setattr(kernels, "inverse_power", counted)
    s = Multivector.paravector(1.1, 0.3, 0.2)
    x = Multivector.paravector(0.2, 0.1)
    for kind in KERNEL_TERMS:
        for side in (LEFT, RIGHT):
            fine_kernel(kind, side, s, x)
    cauchy_kernel(LEFT, "II", s, x)
    assert calls == []


def test_every_reader_of_q_powers_reaches_the_one_helper(monkeypatch):
    calls = []
    original = kernels._q_powers

    def counted(q, nq):
        calls.append(q.shape)
        return original(q, nq)

    monkeypatch.setattr(kernels, "_q_powers", counted)
    s = Multivector.paravector(1.1, 0.3, 0.2)
    x = Multivector.paravector(0.2, 0.1)
    fine_kernel("Dbar", LEFT, s, x)
    fine_kernel_rows("Dbar", LEFT, s, np.array([x.c, x.c * 0.5]))
    q = pseudo_kernel("commutative", s, x)
    for k in (1, 2, 3):
        inverse_power(q, k)
    assert calls == [(1, 32), (2, 32), (1, 32), (1, 32), (1, 32)]


def test_inverse_power_keeps_its_checks():
    q = pseudo_kernel("commutative", Multivector.paravector(1.1, 0.3),
                      Multivector.paravector(0.2, 0.1))
    assert inverse_power(q, 0) == Multivector.scalar(1.0)
    with pytest.raises(ZeroParavector):
        inverse_power(Multivector(), 0)
    with pytest.raises(NotParavector):
        inverse_power(Multivector.basis(E12), 1)
    with pytest.raises(NotFinite):
        inverse_power(Multivector.paravector(np.nan, 1.0), 1)


# -- one index of the paravector slots ---------------------------------------------


def test_the_paravector_slots_have_one_index():
    assert PARAVECTOR_INDEX.tolist() == list(PARAVECTOR_MASKS)
    assert np.shares_memory(VECTOR_MASKS, PARAVECTOR_INDEX)
    assert not hasattr(op_calculus, "_PARAVECTOR_MASKS")


# -- non-finite points ---------------------------------------------------------------


S = Multivector.paravector(1.1, 0.3, 0.2)
X = Multivector.paravector(0.2, 0.1)
BAD = (np.inf, -np.inf, np.nan)


def _with_slot(p, mask, value):
    c = p.c.copy()
    c[mask] = value
    return Multivector(c)


def _kernel_calls(s, x):
    return {
        "pseudo_kernel": lambda: pseudo_kernel("commutative", s, x),
        "pseudo_kernel noncommutative": lambda: pseudo_kernel(
            "noncommutative", s, x),
        "fine_kernel": lambda: fine_kernel("F5", LEFT, s, x),
        "fine_kernel_rows": lambda: fine_kernel_rows("F5", LEFT, s.c[None], x),
        "fine_kernel_rows x rows": lambda: fine_kernel_rows(
            "Dbar", RIGHT, s, x.c[None]),
        "cauchy_kernel I": lambda: cauchy_kernel(LEFT, "I", s, x),
        "cauchy_kernel II": lambda: cauchy_kernel(RIGHT, "II", s, x),
        "cauchy_kernel_batch": lambda: cauchy_kernel_batch(LEFT, s, x.c[None]),
        "f5_kernel": lambda: f5_kernel(LEFT, s, x),
        "fine_kernel_series": lambda: fine_kernel_series("F5", LEFT, s, x, 6),
        "fine_kernel_via_f5": lambda: fine_kernel_via_f5("D", LEFT, s, x),
        "p0_residual": lambda: p0_residual(s, x),
    }


def _resolvent_calls(s):
    T, _ = _rand_tuple(np.random.default_rng(5), 2, 0.2)
    p = X + Multivector.scalar(1.0)
    return {
        "q_resolvent": lambda: q_resolvent(T, s, 1),
        "fine_resolvent": lambda: fine_resolvent("F5", LEFT, T, s),
        "fine_resolvent_series": lambda: fine_resolvent_series(
            "D", LEFT, T, s * 2.0, 4),
        "f_resolvent_equation_residual s": lambda: f_resolvent_equation_residual(
            T, s, p),
        "f_resolvent_equation_residual p": lambda: f_resolvent_equation_residual(
            T, p, s),
    }


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("mask", (0, 2))
@pytest.mark.parametrize("where", ("s", "x"))
def test_every_kernel_entry_point_rejects_a_non_finite_slot(where, mask, bad):
    s, x = ((_with_slot(S, mask, bad), X) if where == "s"
            else (S, _with_slot(X, mask, bad)))
    for name, call in _kernel_calls(s, x).items():
        with pytest.raises(NotFinite):
            call()
            pytest.fail(name)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("mask", (0, 4))
def test_every_resolvent_entry_point_rejects_a_non_finite_slot(mask, bad):
    for name, call in _resolvent_calls(_with_slot(S, mask, bad)).items():
        with pytest.raises(NotFinite):
            call()
            pytest.fail(name)


@pytest.mark.parametrize("kind", ("Cauchy", "F5", "Dbar"))
@pytest.mark.parametrize("s, x", (
    (Multivector.paravector(np.inf, 0.3), Multivector.paravector(0.2, 0.1)),
    (Multivector.paravector(1.1, np.inf, 0.2), Multivector.paravector(np.nan, 0.1)),
    (S, Multivector.paravector(0.2, np.nan)),
))
def test_the_scalar_and_row_kernels_raise_alike_on_non_finite_slots(kind, s, x):
    errors = []
    for call in (lambda: fine_kernel(kind, LEFT, s, x),
                 lambda: fine_kernel_rows(kind, LEFT, s.c[None], x.c[None])):
        with pytest.raises(NotFinite) as info:
            call()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_a_higher_blade_is_reported_before_a_non_finite_slot():
    bad = _with_slot(_with_slot(S, 0, np.nan), E12, 0.5)
    with pytest.raises(NotParavector):
        fine_kernel("F5", LEFT, bad, X)


# -- imaginary units share the paravector rule ----------------------------------


def test_an_imaginary_unit_with_a_tiny_higher_blade_is_rejected():
    J = Multivector.basis(1) + Multivector.basis(E12) * 1e-13
    with pytest.raises(NotImaginaryUnit):
        check_imaginary_unit(J)
    with pytest.raises(NotImaginaryUnit):
        circle(0.0, 2.0, J, 32)
    with pytest.raises(NotImaginaryUnit):
        embed(0.5, 0.25, J)


@pytest.mark.parametrize("bad", BAD)
def test_an_imaginary_unit_with_a_non_finite_slot_is_rejected(bad):
    for J in (_with_slot(Multivector.basis(1), 2, bad),
              Multivector.paravector(0.0, bad)):
        with pytest.raises(NotImaginaryUnit):
            check_imaginary_unit(J)


def test_a_negative_zero_in_a_higher_blade_of_an_imaginary_unit_is_accepted():
    J = _with_slot(Multivector.basis(1), E12, -0.0)
    check_imaginary_unit(J)
    assert embed(0.5, 0.25, J) == embed(0.5, 0.25, Multivector.basis(1))
    P = SlicePolynomial.monomial(3)
    x = Multivector.paravector(0.2, 0.1)
    got = fine_integral_eval("F5", P, x, circle(0.0, 2.0, J, 32))
    want = fine_integral_eval("F5", P, x, circle(0.0, 2.0, Multivector.basis(1), 32))
    assert got.c.tobytes() == want.c.tobytes()
