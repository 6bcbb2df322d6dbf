"""The kernel-pair sampler of the harness decides each candidate on the six
paravector slots of s and x, in floats.  These tests compare it with the
sampler that built a Multivector and a pseudo kernel per candidate, kept
here as the reference, bit for bit: the same pairs and the same state of
the generator afterwards."""

from math import sqrt

import numpy as np
import pytest

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
