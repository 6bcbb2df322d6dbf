"""Unit costs of single layer operations, outside the workloads.

    python3 perfbench/units.py --seed 7

Each cost is the median over repeats of one timed batch of calls on fixed
inputs drawn from the seed, divided by the batch size, and stated at
reference speed like the pass times (workload.SpeedProbe).  Prints one JSON
line mapping metric name to {"value", "unit"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from finestruct.clifford_core import Multivector, mv_mul
from finestruct.contour import circle, fine_integral_eval
from finestruct.fueter_ops import KIND_WORDS, apply_word, fd_apply
from finestruct.kernels import cauchy_kernel
from finestruct.op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    poly_calculus_integral,
    q_resolvent,
    s_spectrum,
)
from finestruct.slice_poly import LEFT, SlicePolynomial
from workload import SpeedProbe

SCALE = {"us": 1e6, "ms": 1e3}


def _paravector(rng, norm: float) -> Multivector:
    v = rng.normal(size=6)
    return Multivector.paravector(*(v * (norm / np.linalg.norm(v))))


def _tuple(rng, d: int) -> OperatorTuple:
    """Commuting tuple T0..T5 sharing one eigenbasis, as the harness builds."""
    S = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    Si = np.linalg.inv(S)
    return OperatorTuple([S @ np.diag(rng.uniform(-0.5, 0.5, size=d)) @ Si
                          for _ in range(6)])


def _poly(rng, degree: int) -> SlicePolynomial:
    return SlicePolynomial([Multivector(rng.normal(size=32))
                            for _ in range(degree + 1)], LEFT)


def cases(seed: int):
    """(metric name, unit, zero-argument call, calls per batch, repeats)."""
    rng = np.random.default_rng(seed)
    dense_a, dense_b = (Multivector(rng.normal(size=32)) for _ in range(2))
    para_a, para_b = _paravector(rng, 1.0), _paravector(rng, 1.0)
    s = _paravector(rng, 1.1)
    x = _paravector(rng, 0.33)

    def kernel(y):
        return cauchy_kernel(LEFT, "II", s, y)

    d = 4
    T = _tuple(rng, d)
    s_op = _paravector(rng, 2.0 * T.norm_bound())
    A, B = (CliffordMatrix(rng.normal(size=(32, d, d))) for _ in range(2))
    e1 = Multivector.basis(1)
    P8 = _poly(rng, 8)
    x_in = Multivector.paravector(*(rng.normal(size=6) * 0.15))
    unit_circle = circle(0.0, 1.0, e1, 256)
    P6 = _poly(rng, 6)
    op_circle = circle(0.0, 1.25 * T.norm_bound(), e1, 256)
    f5 = KIND_WORDS["F5"]

    def image_table():
        for m in range(61):
            apply_word(f5, SlicePolynomial.monomial(m))

    return [
        ("clifford_core.mv_mul.dense.unit_us", "us",
         lambda: mv_mul(dense_a, dense_b), 200, 15),
        ("clifford_core.mv_mul.paravector.unit_us", "us",
         lambda: mv_mul(para_a, para_b), 1000, 15),
        ("kernels.cauchy_kernel.unit_us", "us",
         lambda: cauchy_kernel(LEFT, "II", s, x), 200, 15),
        ("fueter_ops.fd_apply.one_letter.unit_ms", "ms",
         lambda: fd_apply(("D",), kernel, x), 3, 7),
        ("fueter_ops.fd_apply.two_letters.unit_ms", "ms",
         lambda: fd_apply(("Delta", "D"), kernel, x), 1, 3),
        ("fueter_ops.image_table.unit_ms", "ms", image_table, 1, 3),
        ("op_calculus.CliffordMatrix.mul.unit_us", "us", lambda: A * B, 20, 15),
        ("op_calculus.q_resolvent.unit_us", "us",
         lambda: q_resolvent(T, s_op), 100, 15),
        ("op_calculus.s_spectrum.unit_us", "us", lambda: s_spectrum(T), 100, 15),
        ("contour.fine_integral_eval.unit_ms", "ms",
         lambda: fine_integral_eval("DeltaD", P8, x_in, unit_circle), 1, 3),
        ("op_calculus.poly_calculus_integral.unit_ms", "ms",
         lambda: poly_calculus_integral("F5", LEFT, P6, T, op_circle), 1, 3),
    ]


def measure(seed: int) -> dict:
    out = {}
    for name, unit, call, batch, repeats in cases(seed):
        call()  # warm caches and lazy state before timing
        samples = []
        with SpeedProbe.for_pass() as probe:
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(batch):
                    call()
                samples.append((time.perf_counter() - t0) / batch)
        out[name] = {
            "value": statistics.median(samples) * probe.speed * SCALE[unit],
            "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
