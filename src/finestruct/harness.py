"""Verification harness: runs the identity, kernel, integral, calculus,
axial-PDE, and structure suites and emits machine-readable reports.

Exit codes: 0 when no check fails (flag records do not fail the run),
1 on any failing check, 2 on configuration or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from math import sqrt

import numpy as np

from . import __version__
from .clifford_core import Multivector, paravector_norm_sq
from .errors import ConfigError, EngineError, UnknownSuite
from .fueter_ops import (
    KIND_WORDS,
    KIND_ORDER,
    SYSTEM_WORDS,
    VEKUA_SYSTEMS,
    apply_word,
    axial_parts,
    classify_space,
    enumerate_factorizations,
    fd_apply,  # not called here; perfbench's self-tests use harness.fd_apply
    fd_apply_batch,
    monomial_image,
    sum_lemma_1,
    sum_lemma_2,
    vekua_residual,
)
from .kernels import (
    cauchy_kernel,
    cauchy_kernel_batch,
    fine_kernel,
    fine_kernel_series,
    fine_kernel_via_f5,
    p0_residual,
    pseudo_kernel,
)
from .contour import circle, fine_integral_eval, word_eval
from .op_calculus import (
    CliffordMatrix,
    OperatorTuple,
    f5_moment,
    f_resolvent_equation_residual,
    fine_resolvent,
    fine_resolvent_series,
    p0_operator_residual,
    poly_calculus_exact,
    poly_calculus_integral,
    product_rule_residual,
    s_spectrum,
)
from .slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    canonical_eval,
    canonical_eval_rows,
    eval_slice_poly,
    to_canonical,
)

SUITES = ("identities", "kernels", "integrals", "calculus", "vekua", "structures")

ALL_KINDS = tuple(KIND_WORDS)
FINE_KINDS = tuple(k for k in ALL_KINDS if k not in ("F5", "Cauchy"))

DEFAULTS = {
    "suite": "all",
    "seed": 7,
    "nodes": 256,
    "dim": 4,
    "degree_cap": 6,
    "out": None,
    "format": "json",
    "timing": False,
}

TOL_DEFAULTS = {
    "identities.exact": 0.0,
    "kernels.fd": 1e-5,
    "kernels.series": 1e-10,
    "kernels.via_f5": 1e-11,
    "kernels.form_equiv": 1e-11,
    "kernels.p0": 1e-10,
    "kernels.sides": 1e-13,
    "integrals.cauchy": 1e-11,
    "integrals.word": 1e-9,
    "integrals.independence": 1e-10,
    "calculus.spectrum": 1e-10,
    "calculus.exact": 1e-8,
    "calculus.series": 1e-9,
    "calculus.es1bis": 1e-9,
    "calculus.p0": 1e-10,
    "calculus.reseq": 1e-10,
    "calculus.prodo": 1e-8,
    "calculus.moments": 1e-9,
    "calculus.tcost": 1e-9,
    "vekua.residual": 1e-8,
    "vekua.crosscheck": 1e-3,
    "structures.exact": 0.0,
}


# -- configuration ---------------------------------------------------------------


def parse_config(argv, file_path: str | None = None) -> dict:
    """CLI flags override file values override defaults."""
    parser = argparse.ArgumentParser(
        prog="verify", description="Run verification suites.", add_help=True)
    parser.add_argument("--suite", action="append")
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--nodes", action="append", type=int)
    parser.add_argument("--dim", action="append", type=int)
    parser.add_argument("--degree-cap", action="append", type=int, dest="degree_cap")
    parser.add_argument("--tol", action="append", default=[])
    parser.add_argument("--config", action="append")
    parser.add_argument("--out", action="append")
    parser.add_argument("--format", action="append", choices=["json", "csv"])
    parser.add_argument("--timing", action="store_true")
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line") from exc
        raise

    def single(name):
        values = getattr(ns, name)
        if not values:
            return None
        if len(set(map(str, values))) > 1:
            raise ConfigError(f"conflicting duplicate flag --{name}")
        return values[-1]

    cfg = dict(DEFAULTS)
    cfg["tol"] = dict(TOL_DEFAULTS)

    path = single("config") or file_path
    if path:
        cfg.update(_read_config_file(path))

    for name in ("suite", "seed", "nodes", "dim", "degree_cap", "out", "format"):
        value = single(name)
        if value is not None:
            cfg[name] = value
    if ns.timing:
        cfg["timing"] = True

    seen: dict = {}
    for item in ns.tol:
        if "=" not in item:
            raise ConfigError(f"--tol expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in TOL_DEFAULTS:
            raise ConfigError(f"unknown tolerance key {key!r}")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"invalid tolerance value for {key!r}") from exc
        if key in seen and seen[key] != value:
            raise ConfigError(f"conflicting duplicate flag --tol {key}")
        seen[key] = value
        cfg["tol"][key] = value

    if cfg["suite"] not in SUITES + ("all",):
        raise UnknownSuite(f"unknown suite {cfg['suite']!r}")
    return cfg


def _read_config_file(path: str) -> dict:
    known_int = {"seed", "nodes", "dim", "degree_cap"}
    known_str = {"suite", "out", "format"}
    out: dict = {"tol": dict(TOL_DEFAULTS)}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in known_int:
            out[key] = int(raw)
        elif key in known_str:
            out[key] = raw
        elif key == "timing":
            out[key] = raw.lower() in ("1", "true", "yes")
        elif key.startswith("tol."):
            tkey = key[4:]
            if tkey not in TOL_DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown tolerance {tkey!r}")
            out["tol"][tkey] = float(raw)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return out


# -- shared fixtures --------------------------------------------------------------


def _rand_paravector(rng, scale: float) -> Multivector:
    v = rng.normal(size=6)
    v *= scale / np.linalg.norm(v)
    return Multivector.paravector(*v)


def _pnorm(x: Multivector) -> float:
    return sqrt(paravector_norm_sq(x))


def _seed_kernel_pair(rng, q_lo: float = 0.5, q_hi: float = 1.0):
    while True:
        s = _rand_paravector(rng, rng.uniform(0.95, 1.3))
        for _ in range(500):
            x = _rand_paravector(rng, rng.uniform(0.25, 0.5) * _pnorm(s))
            if q_lo < _pnorm(pseudo_kernel("commutative", s, x)) <= q_hi:
                return s, x


def _rand_slice_poly(rng, degree: int, side: str = LEFT) -> SlicePolynomial:
    return SlicePolynomial([Multivector(rng.normal(size=32))
                            for _ in range(degree + 1)], side)


def _rand_tuple(rng, d: int, scale: float = 0.5, vanish45: bool = False,
                shifts=None):
    """Simultaneously diagonalizable commuting tuple plus its exact spectrum."""
    S = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    Si = np.linalg.inv(S)
    diags = [rng.uniform(-scale, scale, size=d) for _ in range(6)]
    if vanish45:
        diags[4] = np.zeros(d)
        diags[5] = np.zeros(d)
    if shifts is not None:
        diags[0] = diags[0] + shifts
    mats = [S @ np.diag(dg) @ Si for dg in diags]
    T = OperatorTuple(mats)
    truth = sorted((float(diags[0][k]),
                    float(np.sqrt(sum(diags[i][k] ** 2 for i in range(1, 6)))))
                   for k in range(d))
    return T, truth


# -- suites -----------------------------------------------------------------------


def _suite_identities(cfg, tol):
    rng = np.random.default_rng(cfg["seed"])
    for kind in FINE_KINDS:
        for m in range(13):
            lhs = apply_word(KIND_WORDS[kind], SlicePolynomial.monomial(m))
            rhs = to_canonical(monomial_image(kind, m))
            value = 0.0 if lhs.equals(rhs) else 1.0
            yield (f"identities.table.{kind}.m{m:02d}", value,
                   tol["identities.exact"], None)
    lemma_fail = sum(1 for m in range(3, 201)
                     if not (sum_lemma_1(m) and sum_lemma_2(m)))
    yield ("identities.sum_lemmas", float(lemma_fail),
           tol["identities.exact"], None)
    anchors = [
        ("D", 1, -4.0), ("Delta", 2, -8.0), ("D2", 2, -8.0),
        ("DeltaD", 3, 16.0), ("Dbar", 1, 6.0),
        ("Dbar2", 2, 32.0), ("DeltaDbar", 3, -64.0),
    ]
    worst = 0.0
    for kind, m, expected in anchors:
        got = canonical_eval(apply_word(KIND_WORDS[kind],
                                        SlicePolynomial.monomial(m)),
                             Multivector.scalar(0.7))
        worst = max(worst, (got - Multivector.scalar(expected)).norm_inf())
    yield ("identities.anchors", worst, tol["identities.exact"], None)
    endpoint = 0.0
    for _ in range(50):
        P = _rand_slice_poly(rng, int(rng.integers(0, 11)))
        img = apply_word(("D", "Delta", "Delta"), P)
        if not img.is_zero():
            endpoint = max(endpoint,
                           max(c.norm_inf() for c in img.terms.values()))
    yield ("identities.fueter_sce_endpoint", endpoint,
           tol["identities.exact"], None)


def _suite_kernels(cfg, tol):
    rng = np.random.default_rng(cfg["seed"] + 1)
    for kind in FINE_KINDS + ("F5",):
        worst = 0.0
        growth = 16.0 if kind == "F5" else 4.0
        for _ in range(8):
            s, x = _seed_kernel_pair(rng)
            fd = fd_apply_batch(KIND_WORDS[kind],
                                lambda Y: cauchy_kernel_batch(LEFT, s, Y), x,
                                h=1e-3, step_growth=growth)
            ck = fine_kernel(kind, LEFT, s, x)
            worst = max(worst, (fd - ck).norm_inf() / ck.norm_inf())
        yield (f"kernels.fd.{kind}", worst, tol["kernels.fd"], None)

    for kind in ALL_KINDS:
        worst = 0.0
        for _ in range(5):
            s = _rand_paravector(rng, rng.uniform(0.95, 1.3))
            x = _rand_paravector(rng, 0.3 * _pnorm(s))
            for side in (LEFT, RIGHT):
                closed = fine_kernel(kind, side, s, x)
                diff = (fine_kernel_series(kind, side, s, x, 60)
                        - closed).norm_inf()
                scale = closed.norm_inf()
                worst = max(worst, diff / max(scale, 1.0))
        yield (f"kernels.series.{kind}", worst,
               tol["kernels.series"], None)

    for kind in FINE_KINDS:
        worst = 0.0
        for _ in range(10):
            s, x = _seed_kernel_pair(rng)
            for side in (LEFT, RIGHT):
                worst = max(worst, (fine_kernel_via_f5(kind, side, s, x)
                                    - fine_kernel(kind, side, s, x)).norm_inf())
        # Remark-combination mismatches are transcription flags, not failures.
        status = None if worst <= tol["kernels.via_f5"] else "flag"
        yield (f"kernels.via_f5.{kind}", worst,
               tol["kernels.via_f5"], status)

    worst = 0.0
    for _ in range(100):
        s, x = _seed_kernel_pair(rng, 0.2, 2.0)
        for side in (LEFT, RIGHT):
            worst = max(worst, (cauchy_kernel(side, "I", s, x)
                                - cauchy_kernel(side, "II", s, x)).norm_inf())
    yield ("kernels.form_equiv", worst, tol["kernels.form_equiv"], None)

    worst = 0.0
    for _ in range(100):
        s, x = _seed_kernel_pair(rng, 0.2, 2.0)
        worst = max(worst, p0_residual(s, x).norm_inf())
    yield ("kernels.p0", worst, tol["kernels.p0"], None)

    worst = 0.0
    for _ in range(20):
        s, x = _seed_kernel_pair(rng, 0.2, 2.0)
        for kind in ("D", "DeltaD"):
            worst = max(worst, (fine_kernel(kind, LEFT, s, x)
                                - fine_kernel(kind, RIGHT, s, x)).norm_inf())
    yield ("kernels.sides_coincide", worst, tol["kernels.sides"], None)

    # The printed D^2 closed form differs in sign from the one the series,
    # the F5 combination, and the FD oracle all agree on; reported as a
    # transcription flag.
    s, x = _seed_kernel_pair(np.random.default_rng(cfg["seed"] + 2))
    from .kernels import _q_inverse_power
    printed = (s - x) * _q_inverse_power(s, x, 2) * 8.0
    adopted = fine_kernel("D2", LEFT, s, x)
    yield ("kernels.d2_printed_sign",
           (printed - adopted).norm_inf(), 1e-12, "flag")


def _suite_integrals(cfg, tol):
    rng = np.random.default_rng(cfg["seed"] + 3)
    N = cfg["nodes"]
    e1 = Multivector.basis(1)
    e2 = Multivector.basis(2)
    e5 = Multivector.basis(16)
    c = circle(0.0, 1.0, e1, N)

    P3 = SlicePolynomial.monomial(3)
    x = Multivector.paravector(0.2, 0.0, 0.1, 0.0, 0.05)
    yield ("integrals.cauchy_poly",
           (fine_integral_eval("Cauchy", P3, x, c)
            - eval_slice_poly(P3, x)).norm_inf(),
           tol["integrals.cauchy"], None)

    alt = [circle(0.0, 1.0, e2, N), circle(0.0, 1.7, e5, N),
           circle(0.1, 1.4, e1, N)]
    vals = [fine_integral_eval("Cauchy", P3, x, ci) for ci in [c] + alt]
    worst = max((a - b).norm_inf() for a in vals for b in vals)
    yield ("integrals.independence", worst,
           tol["integrals.independence"], None)

    for kind in ALL_KINDS:
        worst = 0.0
        for _ in range(4):
            for side in (LEFT, RIGHT):
                P = _rand_slice_poly(rng, 8, side)
                xx = Multivector.paravector(*(rng.normal(size=6) * 0.15))
                worst = max(worst, (fine_integral_eval(kind, P, xx, c)
                                    - word_eval(kind, P, xx)).norm_inf())
        yield (f"integrals.word.{kind}", worst,
               tol["integrals.word"], None)

    x4 = SlicePolynomial.monomial(4)
    xin = Multivector.paravector(0.3, 0.2)
    a1 = (fine_integral_eval("F5", x4, xin, c)
          - Multivector.scalar(64.0)).norm_inf()
    a2 = (fine_integral_eval("DeltaD", x4, xin, c)
          - Multivector.scalar(64.0 * 0.3)).norm_inf()
    yield ("integrals.anchors", max(a1, a2),
           tol["integrals.word"], None)

    # geometric trapezoid convergence on an analytic integrand
    errs = []
    for n in (32, 64, 128):
        cn = circle(0.0, 1.0, e1, n)
        errs.append((fine_integral_eval("Cauchy", P3, x, cn)
                     - eval_slice_poly(P3, x)).norm_inf())
    decays = 1.0 if (errs[0] <= 1e-4 and errs[1] <= errs[0] + 1e-15
                     and errs[2] <= errs[1] + 1e-15) else 0.0
    yield ("integrals.trapezoid_convergence", 1.0 - decays, 0.0, None)


def _suite_calculus(cfg, tol):
    rng = np.random.default_rng(cfg["seed"] + 4)
    d = cfg["dim"]
    N = cfg["nodes"]
    e1 = Multivector.basis(1)
    e3 = Multivector.basis(4)

    worst = 0.0
    for _ in range(10):
        T, truth = _rand_tuple(rng, d)
        sp = s_spectrum(T)
        worst = max(worst, max(max(abs(a - c), abs(b - v))
                               for (a, b), (c, v) in zip(sp, truth)))
    yield ("calculus.spectrum", worst, tol["calculus.spectrum"], None)

    T, _ = _rand_tuple(rng, d)
    c = circle(0.0, 1.25 * T.norm_bound(), e1, N)
    for kind in ("SC",) + FINE_KINDS + ("F5",):
        worst = 0.0
        for side in (LEFT, RIGHT):
            P = _rand_slice_poly(rng, cfg["degree_cap"], side)
            worst = max(worst, (poly_calculus_integral(kind, side, P, T, c)
                                - poly_calculus_exact(kind, side, P, T)).norm_inf())
        yield (f"calculus.exact.{kind}", worst,
               tol["calculus.exact"], None)

    s = _rand_paravector(rng, 2.0 * T.norm_bound())
    worst = 0.0
    for kind in ALL_KINDS:
        for side in (LEFT, RIGHT):
            worst = max(worst, (fine_resolvent_series(kind, side, T, s, 60)
                                - fine_resolvent(kind, side, T, s)).norm_inf())
    yield ("calculus.series", worst, tol["calculus.series"], None)

    # two-sided inverse identity for the pseudo resolvent series
    worst = _es1bis_residual(T, s, 80)
    yield ("calculus.es1bis", worst, tol["calculus.es1bis"], None)

    worst = 0.0
    for _ in range(10):
        Tk, _ = _rand_tuple(rng, d)
        sk = _rand_paravector(rng, 2.5 * Tk.norm_bound())
        worst = max(worst, p0_operator_residual(Tk, sk).norm_inf())
    yield ("calculus.p0_operator", worst, tol["calculus.p0"], None)

    worst = 0.0
    for _ in range(20):
        Tk, _ = _rand_tuple(rng, d, 0.3)
        sk = Multivector.scalar(rng.uniform(1.5, 2.5)) + _rand_paravector(rng, 0.3)
        pk = Multivector.scalar(-rng.uniform(1.5, 2.5)) + _rand_paravector(rng, 0.3)
        worst = max(worst, f_resolvent_equation_residual(Tk, sk, pk).norm_inf())
    yield ("calculus.reseq", worst, tol["calculus.reseq"], None)

    worst = 0.0
    for _ in range(3):
        Tk, _ = _rand_tuple(rng, 3, 0.3)
        ck = circle(0.0, 1.6 * Tk.norm_bound(), e1, N)
        f = SlicePolynomial([rng.normal() for _ in range(4)], LEFT)
        g = _rand_slice_poly(rng, 4, LEFT)
        worst = max(worst, product_rule_residual(f, g, Tk, ck).norm_inf())
    yield ("calculus.prodo", worst, tol["calculus.prodo"], None)

    worst = max(f5_moment(T, c, j).norm_inf() for j in range(4))
    yield ("calculus.moments", worst, tol["calculus.moments"], None)

    # Tcost: perturbations of degree below the annihilator order leave the
    # calculus unchanged.
    for kind in FINE_KINDS + ("F5",):
        t = KIND_ORDER[kind] - 1
        P = _rand_slice_poly(rng, cfg["degree_cap"], LEFT)
        pert = SlicePolynomial(
            [P.coeffs[j] + Multivector(rng.normal(size=32))
             if j <= t else P.coeffs[j] for j in range(len(P.coeffs))], LEFT)
        diff = (poly_calculus_integral(kind, LEFT, P, T, c)
                - poly_calculus_integral(kind, LEFT, pert, T, c)).norm_inf()
        yield (f"calculus.tcost.{kind}", diff,
               tol["calculus.tcost"], None)

    # Disconnected spectrum: two clusters, per-component perturbations of
    # degree <= t change nothing.
    yield ("calculus.tcost.two_component",
           _two_component_tcost(rng, N), tol["calculus.tcost"], None)

    cj = circle(0.0, 1.25 * T.norm_bound(), e3, N)
    ck2 = circle(0.0, 1.6 * T.norm_bound(), e1, N)
    P = _rand_slice_poly(rng, cfg["degree_cap"], LEFT)
    base = poly_calculus_integral("F5", LEFT, P, T, c)
    worst = max((poly_calculus_integral("F5", LEFT, P, T, cc) - base).norm_inf()
                for cc in (cj, ck2))
    yield ("calculus.independence", worst,
           tol["calculus.tcost"], None)


def _es1bis_residual(T: OperatorTuple, s: Multivector, N: int) -> float:
    from .op_calculus import _slice_inverse_powers

    d = T.d
    spows = _slice_inverse_powers(s, N)
    tp = [CliffordMatrix.identity(d)]
    tb = [CliffordMatrix.identity(d)]
    Tc, Tbar = T.as_clifford(), T.conj_clifford()
    for _ in range(N):
        tp.append(tp[-1] * Tc)
        tb.append(tb[-1] * Tbar)
    acc = CliffordMatrix.zero(d)
    for m in range(1, N + 1):
        for k in range(1, m + 1):
            acc = acc + (tp[m - k] * tb[k - 1]) * spows[m]
    Q = (CliffordMatrix.from_multivector(s * s, d)
         - CliffordMatrix.from_blade(0, 2.0 * T.T0) * s
         + CliffordMatrix.from_blade(0, T.qmat()))
    eye = CliffordMatrix.identity(d)
    return max((Q * acc - eye).norm_inf(), (acc * Q - eye).norm_inf())


def _two_component_tcost(rng, N: int) -> float:
    d1, d2 = 2, 2
    T1, _ = _rand_tuple(rng, d1, 0.3, vanish45=True)
    T2, _ = _rand_tuple(rng, d2, 0.3, vanish45=True,
                        shifts=np.full(d2, 5.0))
    mats = [np.block([[a, np.zeros((d1, d2))], [np.zeros((d2, d1)), b]])
            for a, b in zip(T1.mats, T2.mats)]
    T = OperatorTuple(mats)
    e1 = Multivector.basis(1)
    contours = [circle(0.0, 1.2, e1, N), circle(5.0, 1.2, e1, N)]
    P = _rand_slice_poly(rng, 5, LEFT)
    worst = 0.0
    for kind in ("D", "Delta", "DeltaD", "F5"):
        t = KIND_ORDER[kind] - 1
        alphas = [[Multivector(rng.normal(size=32)) for _ in range(t + 1)]
                  for _ in range(2)]

        def perturbed(s, _alphas=alphas, _P=P):
            comp = 0 if abs(s[0]) < 2.5 else 1
            val = eval_slice_poly(_P, s)
            spow = Multivector.scalar(1.0)
            for a in _alphas[comp]:
                val = val + spow * a
                spow = spow * s
            return val

        base = poly_calculus_integral(kind, LEFT, P, T, contours)
        pert = poly_calculus_integral(kind, LEFT, perturbed, T, contours)
        worst = max(worst, (pert - base).norm_inf())
    return worst


def _suite_vekua(cfg, tol):
    # complement word: annihilator ∘ complement = D Δ²
    complements = {
        "AntiCliffordian": ("D", "D"),
        "BiHarmonic": ("D",),
        "Poly3": ("Dbar", "Dbar"),
        "Cliffordian1": ("Delta",),
        "Harmonic": ("Delta", "D"),
        "Poly2": ("Delta", "Dbar"),
        "PolyCliffordian12": ("Dbar",),
    }
    point = (0.7, 1.1)
    for sysname in VEKUA_SYSTEMS:
        C = apply_word(complements[sysname], SlicePolynomial.monomial(5))
        A, B = axial_parts(C)
        r1, r2 = vekua_residual(sysname, A, B, point)
        printed = max(r1.norm_inf(), r2.norm_inf())

        x = Multivector.paravector(point[0], point[1])
        # Polynomial members make the stencil truncation exactly zero, so a
        # large step keeps float64 roundoff far below tolerance.
        cross = fd_apply_batch(SYSTEM_WORDS[sysname],
                               lambda Y, _C=C: canonical_eval_rows(_C, Y), x,
                               h=0.05).norm_inf()
        yield (f"vekua.{sysname}.annihilator_crosscheck", cross,
               tol["vekua.crosscheck"], None)
        # The fixture is exactly annihilated; a large printed-system residual
        # is therefore a transcription discrepancy, reported as a flag.
        status = None if printed <= tol["vekua.residual"] else "flag"
        yield (f"vekua.{sysname}.printed_residual", printed,
               tol["vekua.residual"], status)


EXPECTED_FINE_CHAINS = {
    ("D", "D", "Dbar", "Dbar"): ["ABH", "AntiACH1", "AH", "AM"],
    ("D", "Dbar", "D", "Dbar"): ["ABH", "ACH1", "AH", "AM"],
    ("D", "Dbar", "Dbar", "D"): ["ABH", "ACH1", "AP2", "AM"],
    ("Dbar", "D", "D", "Dbar"): ["APC12", "ACH1", "AH", "AM"],
    ("Dbar", "D", "Dbar", "D"): ["APC12", "ACH1", "AP2", "AM"],
    ("Dbar", "Dbar", "D", "D"): ["APC12", "AP3", "AP2", "AM"],
}

EXPECTED_COARSE_CHAINS = {
    ("Delta", "Delta"): ["ACH1", "AM"],
    ("D", "Delta", "Dbar"): ["ABH", "AH", "AM"],
    ("Dbar2", "D", "D"): ["AP3", "AP2", "AM"],
}

# Complement word producing a fixture of each space from x^m.
TAG_COMPLEMENTS = {
    "AM": ("Delta", "Delta"), "AH": ("Delta", "D"), "ABH": ("D",),
    "ACH1": ("Delta",), "AntiACH1": ("D", "D"), "AP2": ("Delta", "Dbar"),
    "AP3": ("Dbar", "Dbar"), "APC12": ("Dbar",),
}


def _suite_structures(cfg, tol):
    fine = dict(enumerate_factorizations(False))
    yield ("structures.dirac_count",
           float(abs(len(fine) - 6)), tol["structures.exact"], None)
    mismatch = sum(1 for w, labels in EXPECTED_FINE_CHAINS.items()
                   if fine.get(w) != labels)
    yield ("structures.dirac_chains", float(mismatch),
           tol["structures.exact"], None)
    coarse = dict(enumerate_factorizations(True))
    mismatch = sum(1 for w, labels in EXPECTED_COARSE_CHAINS.items()
                   if coarse.get(w) != labels)
    yield ("structures.coarse_chains", float(mismatch),
           tol["structures.exact"], None)
    bad = 0
    for tag, comp in TAG_COMPLEMENTS.items():
        fixture = apply_word(comp, SlicePolynomial.monomial(7))
        if tag not in classify_space(fixture):
            bad += 1
    if "SH" not in classify_space(SlicePolynomial.monomial(6)):
        bad += 1
    yield ("structures.classification", float(bad),
           tol["structures.exact"], None)


_SUITE_FUNCS = {
    "identities": _suite_identities,
    "kernels": _suite_kernels,
    "integrals": _suite_integrals,
    "calculus": _suite_calculus,
    "vekua": _suite_vekua,
    "structures": _suite_structures,
}


# -- report assembly ---------------------------------------------------------------


def run_suite(cfg: dict) -> dict:
    name = cfg["suite"]
    if name == "all":
        names = SUITES
    elif name in SUITES:
        names = (name,)
    else:
        raise UnknownSuite(f"unknown suite {name!r}")
    tol = cfg["tol"]
    records = []
    for sname in names:
        # Each suite yields its checks as it finishes them, so a check's
        # time is the span since the previous yield.
        t0 = last = time.perf_counter()
        for cid, value, ctol, forced in _SUITE_FUNCS[sname](cfg, tol):
            now = time.perf_counter()
            ms = round((now - last) * 1000.0) if cfg.get("timing") else 0
            last = now
            if forced is not None:
                status = forced
            else:
                status = "pass" if value <= ctol else "fail"
            records.append({"id": cid, "status": status,
                            "value": float(value), "tol": float(ctol),
                            "ms": ms})
        elapsed = (time.perf_counter() - t0) * 1000.0
        print(f"suite {sname}: {elapsed:.0f} ms", file=sys.stderr)
    records.sort(key=lambda r: r["id"])
    summary = {
        "pass": sum(1 for r in records if r["status"] == "pass"),
        "fail": sum(1 for r in records if r["status"] == "fail"),
        "flag": sum(1 for r in records if r["status"] == "flag"),
    }
    return {
        "suite": name,
        "version": __version__,
        "seed": cfg["seed"],
        "config": {k: v for k, v in cfg.items() if k not in ("tol", "out")},
        "checks": records,
        "summary": summary,
    }


def emit(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "status", "value", "tol", "ms"])
        for rec in report["checks"]:
            writer.writerow([rec["id"], rec["status"], rec["value"],
                             rec["tol"], rec["ms"]])
        return buf.getvalue().encode()
    raise ConfigError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        report = run_suite(cfg)
        payload = emit(report, cfg["format"])
    except (ConfigError, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    if cfg["out"]:
        with open(cfg["out"], "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 1 if report["summary"]["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
