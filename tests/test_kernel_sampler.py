"""The kernel-pair sampler of the harness decides each candidate on the six
paravector slots of s and x, in floats.  These tests compare it with the
sampler that built a Multivector and a pseudo kernel per candidate, kept
here as the reference, bit for bit: the same pairs and the same state of
the generator afterwards, and the skip of an s that no candidate can
accept."""

from math import sqrt

import numpy as np
import pytest

from finestruct import harness
from finestruct.clifford_core import Multivector, paravector_norm_sq
from finestruct.harness import _q_norm, _seed_kernel_pair
from finestruct.kernels import pseudo_kernel


def _reference_rand_paravector(rng, scale):
    v = rng.normal(size=6)
    v *= scale / np.linalg.norm(v)
    return Multivector.paravector(*v)


def _reference_pnorm(x):
    return sqrt(paravector_norm_sq(x))


def _reference_seed_kernel_pair(rng, q_lo=0.5, q_hi=1.0):
    while True:
        s = _reference_rand_paravector(rng, rng.uniform(0.95, 1.3))
        for _ in range(500):
            x = _reference_rand_paravector(
                rng, rng.uniform(0.25, 0.5) * _reference_pnorm(s))
            if q_lo < _reference_pnorm(pseudo_kernel("commutative", s, x)) <= q_hi:
                return s, x


def _slots(rng, zero_share):
    """Six random slots, each replaced by 0.0 or -0.0 with zero_share."""
    v = rng.normal(size=6) * rng.uniform(0.1, 3.0)
    for i in range(6):
        if rng.random() < zero_share:
            v[i] = 0.0 if rng.random() < 0.5 else -0.0
    return v.tolist()


def _pairs(n):
    rng = np.random.default_rng(2024)
    pairs = []
    for i in range(n):
        s = _slots(rng, 0.2)
        x = _slots(rng, 0.2)
        if i % 5 == 0:
            # On the axis: every vector slot of x is a signed zero.
            x[1:] = [0.0 if rng.random() < 0.5 else -0.0 for _ in range(5)]
        pairs.append((s, x))
    pairs.append(([0.0] * 6, [-0.0] * 6))
    pairs.append(([-0.0, 1.0, -0.0, 0.0, 2.0, -0.0], [0.5, -0.0, 0.0, 0.0, -0.0, 0.0]))
    return pairs


def test_q_norm_equals_the_pseudo_kernel_norm_by_bits():
    pairs = _pairs(12000)
    zero_slots = sum(1 for s, x in pairs for v in s + x if v == 0.0)
    assert zero_slots > 10000
    for s, x in pairs:
        want = _reference_pnorm(pseudo_kernel("commutative",
                                              Multivector.paravector(*s),
                                              Multivector.paravector(*x)))
        assert _q_norm(s, x).hex() == want.hex(), (s, x)


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("window", ((0.5, 1.0), (0.2, 2.0)))
def test_sampler_draws_the_reference_pairs(seed, window):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        s, x = _seed_kernel_pair(rng, *window)
        want_s, want_x = _reference_seed_kernel_pair(ref, *window)
        assert s.c.tobytes() == want_s.c.tobytes()
        assert x.c.tobytes() == want_x.c.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("window", ((1.0, 0.5), (1.0, 1.0)))
def test_sampler_rejects_an_empty_window(window):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="empty window"):
        _seed_kernel_pair(rng, *window)
    assert rng.bit_generator.state == state


# An s is skipped when every candidate x has |Q(s, x)| >= 0.75 |s| |s_| >
# q_hi; its 500 candidates still take their draws.


def test_every_candidate_is_on_or_above_the_skip_bound():
    rng = np.random.default_rng(39)
    n = 100_000
    s = rng.normal(size=(n, 6))
    s *= rng.uniform(0.95, 1.3, (n, 1)) / np.linalg.norm(s, axis=1, keepdims=True)
    x = rng.normal(size=(n, 6))
    s_norm = np.linalg.norm(s, axis=1)
    x *= rng.uniform(0.0, 0.5, (n, 1)) * s_norm[:, None] / np.linalg.norm(
        x, axis=1, keepdims=True)
    # Q depends on x through x0 and |x| only.  Half the pairs put x at
    # |x| = |s|/2 and x0 = |x| c, where c = 1.25 cos(theta), clipped to
    # [-1, 1], minimises |Q|^2 over c = x0 / |x|.
    r = 0.5 * s_norm[::2]
    cos_theta = s[::2, 0] / s_norm[::2]
    x0 = np.clip(1.25 * cos_theta, -1.0, 1.0) * r
    x[::2] = 0.0
    x[::2, 0], x[::2, 1] = x0, np.sqrt(r * r - x0 * x0)
    bound = 0.75 * s_norm * np.linalg.norm(s[:, 1:], axis=1)
    ratios = [_q_norm(si, xi) / b
              for si, xi, b in zip(s.tolist(), x.tolist(), bound.tolist())]
    assert min(ratios) >= 1.0 - 1e-12
    assert min(ratios) < 1.0 + 1e-9  # the bound is attained


def test_the_sampler_skips_the_hopeless_s(monkeypatch):
    calls = []

    def counting_q_norm(s, x):
        calls.append(None)
        return _q_norm(s, x)

    monkeypatch.setattr(harness, "_q_norm", counting_q_norm)
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            _seed_kernel_pair(rng)
    # 19,015 candidates are decided without the skip, 3,515 with it.
    assert len(calls) < 5000


@pytest.mark.parametrize("seed", (4, 7, 9, 10))
def test_a_skipped_s_takes_the_draws_of_its_candidates(seed):
    gen = np.random.default_rng(seed)
    first = _reference_rand_paravector(gen, gen.uniform(0.95, 1.3))
    vector_part = np.linalg.norm(first.c[[1, 2, 4, 8, 16]])
    assert 0.75 * _reference_pnorm(first) * vector_part > 1.0
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    s, x = _seed_kernel_pair(rng)
    want_s, want_x = _reference_seed_kernel_pair(ref)
    assert s.c.tobytes() == want_s.c.tobytes()
    assert x.c.tobytes() == want_x.c.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


class _ScriptedRng:
    """Draws s = e1 and candidates x = 0.5 e1: |Q| = 0.75 = 0.75 |s| |s_|,
    the bound itself.  Has no random() and no standard_normal(), so a skip
    raises."""

    def __init__(self):
        self.uniforms = [1.0, 0.5]

    def uniform(self, lo, hi):
        return self.uniforms.pop(0)

    def normal(self, size):
        return np.eye(6)[1]


def test_an_s_whose_bound_is_the_window_top_is_not_skipped():
    s, x = _seed_kernel_pair(_ScriptedRng(), 0.5, 0.75)
    assert s.c.tobytes() == Multivector.paravector(0.0, 1.0).c.tobytes()
    assert x.c.tobytes() == Multivector.paravector(0.0, 0.5).c.tobytes()
