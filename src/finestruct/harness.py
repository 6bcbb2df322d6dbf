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
from math import hypot, isnan, sqrt

import numpy as np

from . import __version__
from .clifford_core import Multivector, mv_mul_rows, paravector_norm_sq, slots_norm_sq
from .errors import ConfigError, EngineError, UnknownSuite
from .fueter_ops import (
    KIND_WORDS,
    KIND_ORDER,
    SYSTEM_TAGS,
    SYSTEM_WORDS,
    TAG_WORDS,
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
    word_degrees,
)
from .kernels import (
    _guarded_q,
    _q_slots,
    _slice_inverse_powers,
    cauchy_kernel,
    cauchy_kernel_batch,
    fine_kernel,
    fine_kernel_series,
    fine_kernel_via_f5,
    inverse_power,
    p0_residual,
)
from .contour import circle, fine_integral_eval, word_eval
from .op_calculus import (
    CliffordMatrix,
    NodeRows,
    OperatorTuple,
    f_resolvent_equation_residual,
    fine_resolvent,
    fine_resolvent_series,
    p0_operator_residual,
    poly_calculus_exact,
    poly_calculus_integral,
    poly_calculus_integrals,
    product_rule_residual,
    s_spectrum,
    spectral_circle,
)
from .slice_poly import (
    LEFT,
    RIGHT,
    SlicePolynomial,
    canonical_eval,
    canonical_eval_rows,
    eval_slice_poly,
    eval_slice_poly_rows,
    to_canonical,
)

SUITES = ("identities", "kernels", "integrals", "calculus", "vekua", "structures")

ALL_KINDS = tuple(KIND_WORDS)
FINE_KINDS = tuple(k for k in ALL_KINDS if k not in ("F5", "Cauchy"))

# Each setting: (type, default[, least value]).  It is a --flag and a
# config-file key of the same name (with "-" for "_" on the command line);
# a bool setting is a flag without a value.
SETTINGS = {
    "suite": (str, "all"),
    "seed": (int, 7, 0),
    "nodes": (int, 256, 16),
    "dim": (int, 4, 1),
    "degree_cap": (int, 6, 0),
    "out": (str, None),
    "format": (str, "json"),
    "timing": (bool, False),
}
DEFAULTS = {name: spec[1] for name, spec in SETTINGS.items()}

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


def parse_config(argv) -> dict:
    """Every value is one (key, raw, where) entry read by _set, the config
    file's lines before the flags: flags override file values override
    defaults.  A key given twice as a flag, or twice in the file, must
    parse to one value."""
    parser = argparse.ArgumentParser(
        prog="verify", description="Run verification suites.", add_help=True)
    for name, (kind, *_) in SETTINGS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="append_const", const="1")
        else:
            parser.add_argument(flag, action="append")
    parser.add_argument("--tol", action="append", default=[])
    parser.add_argument("--config", action="append", default=[])
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line") from exc
        raise

    cfg = dict(DEFAULTS, tol=dict(TOL_DEFAULTS))
    if len(set(ns.config)) > 1:
        raise ConfigError("conflicting duplicate flag --config")
    lines = []
    if ns.config:  # given, even as "", which names no readable file
        path = ns.config[0]
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}") from exc
    given: dict = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, eq, raw = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, where = key.strip(), f"{path}:{lineno}"
            value = _set(cfg, key, raw.strip(), where)
            if given.setdefault(key, value) != value:
                raise ConfigError(f"{where}: conflicting duplicate key {key!r}")

    flags = [(name, raw, "--" + name.replace("_", "-"))
             for name in SETTINGS for raw in getattr(ns, name) or ()]
    for item in ns.tol:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--tol expects key=value, got {item!r}")
        flags.append(("tol." + key, raw, f"--tol {key}"))
    given = {}
    for key, raw, where in flags:
        value = _set(cfg, key, raw, where)
        if given.setdefault(key, value) != value:
            raise ConfigError(f"conflicting duplicate flag {where}")

    if cfg["suite"] not in SUITES + ("all",):
        raise UnknownSuite(f"unknown suite {cfg['suite']!r}")
    for name, (_, _, *least) in SETTINGS.items():
        if least and cfg[name] < least[0]:
            raise ConfigError(f"{name} must be at least {least[0]}, got {cfg[name]}")
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg['format']!r}")
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _set(cfg: dict, key: str, raw: str, where: str):
    """Store in cfg the setting key (tol.<id> for a tolerance) read from
    raw, and return it; where names the flag or path:line in an error.  A
    bool is 1/true/yes or 0/false/no, in any case, and a tolerance is a
    float that is not NaN, which no check value passes."""
    if key.startswith("tol."):
        kind, table, key = float, cfg["tol"], key[4:]
        if key not in TOL_DEFAULTS:
            raise ConfigError(f"{where}: unknown tolerance {key!r}")
    elif key in SETTINGS:
        kind, table = SETTINGS[key][0], cfg
    else:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        value = _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: invalid {kind.__name__} {raw!r}") from exc
    if kind is float and isnan(value):
        raise ConfigError(f"{where}: a tolerance cannot be NaN, got {raw!r}")
    table[key] = value
    return value


# -- shared fixtures --------------------------------------------------------------


def _rand_slots(rng, scale: float) -> list:
    """The six paravector slots of a random paravector of norm scale."""
    v = rng.normal(size=6)
    v *= scale / sqrt(v.dot(v))  # np.linalg.norm of a 1-D float array
    return v.tolist()


def _rand_paravector(rng, scale: float) -> Multivector:
    return Multivector.paravector(*_rand_slots(rng, scale))


def _pnorm(x: Multivector) -> float:
    return sqrt(paravector_norm_sq(x))


def _q_norm(s: list, x: list) -> float:
    """_pnorm(pseudo_kernel("commutative", s, x)) from the six paravector
    slots of s and x, bit for bit: the norm of kernels._q_slots.  The
    algebraic |Q|^2 = a^2 + 4 (s0 - x0)^2 |s_|^2 differs in the last bits."""
    return sqrt(slots_norm_sq(_q_slots(s, x, slots_norm_sq(x))))


def _seed_kernel_pair(rng, q_lo: float = 0.5, q_hi: float = 1.0):
    """A random pair (s, x) with q_lo < |Q(s, x)| <= q_hi: for each s, up
    to 500 candidates x of norm 0.25 to k = 0.5 |s|.  A candidate is decided
    on its slots (_q_norm); only the accepted pair becomes multivectors.

    Every candidate has |Q| >= (1 - k^2) |s| |s_|: in the complex slice of
    s, with z = |s| e^(i theta), Q is (z - l)(z - conj l) for |l| = |x|,
    and |Q|^2, convex in cos arg l, is at least (|s|^2 - |x|^2)^2 sin^2
    theta.  An s whose bound exceeds q_hi (by a 1e-9 margin for roundoff)
    is skipped, but its 500 candidates still take their draws, one
    uniform and six normals each, so every later draw is unchanged."""
    if not q_lo < q_hi:
        raise ValueError(f"empty window ({q_lo}, {q_hi}]")
    k = 0.5
    while True:
        s = _rand_slots(rng, rng.uniform(0.95, 1.3))
        s_mv = Multivector.paravector(*s)
        s_norm = _pnorm(s_mv)
        if (1 - k * k) * s_norm * hypot(*s[1:]) > q_hi * (1 + 1e-9):
            # The raw draws of rng.uniform and rng.normal(size=6), without
            # their arithmetic.  bit_generator.advance cannot replace this:
            # a ziggurat normal takes a data-dependent number of raw draws.
            for _ in range(500):
                rng.random()
                rng.standard_normal(6)
            continue
        for _ in range(500):
            x = _rand_slots(rng, rng.uniform(0.25, k) * s_norm)
            if q_lo < _q_norm(s, x) <= q_hi:
                return s_mv, Multivector.paravector(*x)


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
    errors = [(canonical_eval(apply_word(KIND_WORDS[kind],
                                         SlicePolynomial.monomial(m)),
                              Multivector.scalar(0.7))
               - Multivector.scalar(expected)).norm_inf()
              for kind, m, expected in anchors]
    yield ("identities.anchors", errors, tol["identities.exact"], None)
    # D Delta^2 annihilates every slice polynomial: each coefficient of an
    # image is a sample.
    endpoint = []
    for _ in range(50):
        P = _rand_slice_poly(rng, int(rng.integers(0, 11)))
        img = apply_word(("D", "Delta", "Delta"), P)
        endpoint += [c.norm_inf() for c in img.terms.values()]
    yield ("identities.fueter_sce_endpoint", endpoint,
           tol["identities.exact"], None)


def _suite_kernels(cfg, tol):
    rng = np.random.default_rng(cfg["seed"] + 1)
    for kind in FINE_KINDS + ("F5",):
        errors = []
        growth = 16.0 if kind == "F5" else 4.0
        for _ in range(8):
            s, x = _seed_kernel_pair(rng)
            fd = fd_apply_batch(KIND_WORDS[kind],
                                lambda Y: cauchy_kernel_batch(LEFT, s, Y), x,
                                h=1e-3, step_growth=growth)
            ck = fine_kernel(kind, LEFT, s, x)
            errors.append((fd - ck).norm_inf() / ck.norm_inf())
        yield (f"kernels.fd.{kind}", errors, tol["kernels.fd"], None)

    for kind in ALL_KINDS:
        errors = []
        for _ in range(5):
            s = _rand_paravector(rng, rng.uniform(0.95, 1.3))
            x = _rand_paravector(rng, 0.3 * _pnorm(s))
            for side in (LEFT, RIGHT):
                closed = fine_kernel(kind, side, s, x)
                diff = (fine_kernel_series(kind, side, s, x, 60)
                        - closed).norm_inf()
                errors.append(diff / max(closed.norm_inf(), 1.0))
        yield (f"kernels.series.{kind}", errors, tol["kernels.series"], None)

    for kind in FINE_KINDS:
        # Remark-combination mismatches are transcription flags, not failures.
        yield (f"kernels.via_f5.{kind}",
               [(fine_kernel_via_f5(kind, side, s, x)
                 - fine_kernel(kind, side, s, x)).norm_inf()
                for s, x in (_seed_kernel_pair(rng) for _ in range(10))
                for side in (LEFT, RIGHT)],
               tol["kernels.via_f5"], "flag")

    yield ("kernels.form_equiv",
           [(cauchy_kernel(side, "I", s, x)
             - cauchy_kernel(side, "II", s, x)).norm_inf()
            for s, x in (_seed_kernel_pair(rng, 0.2, 2.0) for _ in range(100))
            for side in (LEFT, RIGHT)],
           tol["kernels.form_equiv"], None)

    yield ("kernels.p0",
           [p0_residual(s, x).norm_inf()
            for s, x in (_seed_kernel_pair(rng, 0.2, 2.0) for _ in range(100))],
           tol["kernels.p0"], None)

    yield ("kernels.sides_coincide",
           [(fine_kernel(kind, LEFT, s, x)
             - fine_kernel(kind, RIGHT, s, x)).norm_inf()
            for s, x in (_seed_kernel_pair(rng, 0.2, 2.0) for _ in range(20))
            for kind in ("D", "DeltaD")],
           tol["kernels.sides"], None)

    # The printed D^2 closed form differs in sign from the one the series,
    # the F5 combination, and the FD oracle all agree on; reported as a
    # transcription flag.
    s, x = _seed_kernel_pair(np.random.default_rng(cfg["seed"] + 2))
    printed = (s - x) * inverse_power(_guarded_q(s, x), 2) * 8.0
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
    yield ("integrals.independence",
           [(a - b).norm_inf() for a in vals for b in vals],
           tol["integrals.independence"], None)

    for kind in ALL_KINDS:
        errors = []
        for _ in range(4):
            for side in (LEFT, RIGHT):
                P = _rand_slice_poly(rng, 8, side)
                xx = Multivector.paravector(*(rng.normal(size=6) * 0.15))
                errors.append((fine_integral_eval(kind, P, xx, c)
                               - word_eval(kind, P, xx)).norm_inf())
        yield (f"integrals.word.{kind}", errors, tol["integrals.word"], None)

    x4 = SlicePolynomial.monomial(4)
    xin = Multivector.paravector(0.3, 0.2)
    a1 = (fine_integral_eval("F5", x4, xin, c)
          - Multivector.scalar(64.0)).norm_inf()
    a2 = (fine_integral_eval("DeltaD", x4, xin, c)
          - Multivector.scalar(64.0 * 0.3)).norm_inf()
    yield ("integrals.anchors", [a1, a2], tol["integrals.word"], None)

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

    errors = []
    for _ in range(10):
        T, truth = _rand_tuple(rng, d)
        errors += [abs(e) for (a, b), (c, v) in zip(s_spectrum(T), truth)
                   for e in (a - c, b - v)]
    yield ("calculus.spectrum", errors, tol["calculus.spectrum"], None)

    T, _ = _rand_tuple(rng, d)
    c = spectral_circle(T, e1, N, 1.25)
    # Every integral on c is one batched call, made once the last of its
    # inputs (independence's P) is drawn.  Inputs are drawn in check order,
    # so the checks on c are yielded after the others, and the call's time
    # falls on the first of them, calculus.exact.SC.
    exact_kinds = ("SC",) + FINE_KINDS + ("F5",)
    exact = [(kind, side, _rand_slice_poly(rng, cfg["degree_cap"], side))
             for kind in exact_kinds for side in (LEFT, RIGHT)]

    s = _rand_paravector(rng, 2.0 * T.norm_bound())
    yield ("calculus.series",
           [(fine_resolvent_series(kind, side, T, s, 60)
             - fine_resolvent(kind, side, T, s)).norm_inf()
            for kind in ALL_KINDS for side in (LEFT, RIGHT)],
           tol["calculus.series"], None)

    # two-sided inverse identity for the pseudo resolvent series
    yield ("calculus.es1bis", _es1bis_residual(T, s, 80),
           tol["calculus.es1bis"], None)

    errors = []
    for _ in range(10):
        Tk, _ = _rand_tuple(rng, d)
        sk = _rand_paravector(rng, 2.5 * Tk.norm_bound())
        errors.append(p0_operator_residual(Tk, sk).norm_inf())
    yield ("calculus.p0_operator", errors, tol["calculus.p0"], None)

    errors = []
    for _ in range(20):
        Tk, _ = _rand_tuple(rng, d, 0.3)
        sk = Multivector.scalar(rng.uniform(1.5, 2.5)) + _rand_paravector(rng, 0.3)
        pk = Multivector.scalar(-rng.uniform(1.5, 2.5)) + _rand_paravector(rng, 0.3)
        errors.append(f_resolvent_equation_residual(Tk, sk, pk).norm_inf())
    yield ("calculus.reseq", errors, tol["calculus.reseq"], None)

    errors = []
    for _ in range(3):
        Tk, _ = _rand_tuple(rng, 3, 0.3)
        ck = spectral_circle(Tk, e1, N, 1.6)
        f = SlicePolynomial([rng.normal() for _ in range(4)], LEFT)
        g = _rand_slice_poly(rng, 4, LEFT)
        errors.append(product_rule_residual(f, g, Tk, ck).norm_inf())
    yield ("calculus.prodo", errors, tol["calculus.prodo"], None)

    moments = [("F5", LEFT, SlicePolynomial.monomial(j)) for j in range(4)]

    # Tcost: perturbations of degree below the annihilator order leave the
    # calculus unchanged.
    tcost_kinds = FINE_KINDS + ("F5",)
    tcost = []
    for kind in tcost_kinds:
        t = KIND_ORDER[kind] - 1
        P = _rand_slice_poly(rng, cfg["degree_cap"], LEFT)
        pert = SlicePolynomial(
            [P.coeffs[j] + Multivector(rng.normal(size=32))
             if j <= t else P.coeffs[j] for j in range(len(P.coeffs))], LEFT)
        tcost += [(kind, LEFT, P), (kind, LEFT, pert)]

    # Disconnected spectrum: two clusters, per-component perturbations of
    # degree <= t change nothing.
    yield ("calculus.tcost.two_component",
           _two_component_tcost(rng, N), tol["calculus.tcost"], None)

    cj = spectral_circle(T, e3, N, 1.25)
    ck2 = spectral_circle(T, e1, N, 1.6)
    P = _rand_slice_poly(rng, cfg["degree_cap"], LEFT)
    got = iter(poly_calculus_integrals(
        T, c, exact + moments + tcost + [("F5", LEFT, P)]))

    errors = [(next(got) - poly_calculus_exact(kind, side, Pk, T)).norm_inf()
              for kind, side, Pk in exact]
    for i, kind in enumerate(exact_kinds):
        yield (f"calculus.exact.{kind}", errors[2 * i:2 * i + 2],
               tol["calculus.exact"], None)

    yield ("calculus.moments", [next(got).norm_inf() for _ in moments],
           tol["calculus.moments"], None)

    for kind in tcost_kinds:
        # A job's integral, less that of its perturbed twin.
        yield (f"calculus.tcost.{kind}", (next(got) - next(got)).norm_inf(),
               tol["calculus.tcost"], None)

    base = next(got)
    yield ("calculus.independence",
           [(poly_calculus_integral("F5", LEFT, P, T, cc) - base).norm_inf()
            for cc in (cj, ck2)],
           tol["calculus.tcost"], None)


def _es1bis_residual(T: OperatorTuple, s: Multivector, N: int) -> float:
    # P_m = sum_k T^(m-k) Tbar^(k-1), k = 1..m, is T P_(m-1) + Tbar^(m-1).
    d = T.d
    spows = _slice_inverse_powers(s, N)
    Tc, Tbar = T.as_clifford(), T.conj_clifford()
    P = acc = CliffordMatrix.zero(d)
    tb = CliffordMatrix.identity(d)
    for m in range(1, N + 1):
        P = Tc * P + tb
        acc = acc + P * spows[m]
        tb = tb * Tbar
    Q = (CliffordMatrix.from_multivector(s * s, d)
         - CliffordMatrix.from_blade(0, 2.0 * T.T0) * s
         + CliffordMatrix.from_blade(0, T.qmat()))
    eye = CliffordMatrix.identity(d)
    return _worst([(Q * acc - eye).norm_inf(), (acc * Q - eye).norm_inf()])


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
    jobs = []
    for kind in ("D", "Delta", "DeltaD", "F5"):
        t = KIND_ORDER[kind] - 1
        alphas = [[Multivector(rng.normal(size=32)) for _ in range(t + 1)]
                  for _ in range(2)]

        def perturbed(S, _alphas=alphas, _P=P):
            # Each node takes the chain of its own component's alphas.
            vals = []
            for comp in _alphas:
                val, spow = eval_slice_poly_rows(_P, S), np.zeros_like(S)
                spow[:, 0] = 1.0
                for a in comp:
                    val = val + mv_mul_rows(spow, a.c[None])
                    spow = mv_mul_rows(spow, S)
                vals.append(val)
            return np.where((np.abs(S[:, 0]) < 2.5)[:, None], *vals)

        jobs += [(kind, LEFT, P), (kind, LEFT, NodeRows(perturbed))]
    got = poly_calculus_integrals(T, contours, jobs)
    return _worst([(got[i + 1] - got[i]).norm_inf()
                   for i in range(0, len(got), 2)])


def _complement(word) -> tuple:
    """The word that composes with an annihilator word to D Δ², and so turns
    x^m into a fixture of the space: the (D, Dbar) degrees (3, 2) of D Δ²
    less the word's, written as Δ^k, then the D or Dbar left over."""
    a, b = word_degrees(word)
    k = min(3 - a, 2 - b)
    return ("Delta",) * k + ("D",) * (3 - a - k) + ("Dbar",) * (2 - b - k)


TAG_COMPLEMENTS = {tag: _complement(word) for tag, word in TAG_WORDS.items()}


def _suite_vekua(cfg, tol):
    point = (0.7, 1.1)
    for sysname in VEKUA_SYSTEMS:
        C = apply_word(TAG_COMPLEMENTS[SYSTEM_TAGS[sysname]],
                       SlicePolynomial.monomial(5))
        A, B = axial_parts(C)
        r1, r2 = vekua_residual(sysname, A, B, point)

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
        yield (f"vekua.{sysname}.printed_residual",
               [r1.norm_inf(), r2.norm_inf()], tol["vekua.residual"], "flag")


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


def _worst(samples) -> float:
    """The one reduction of a check's samples (a list, or one float): their
    largest value, 0.0 for none, NaN if any sample is NaN.  Adding 0.0 turns
    a largest -0.0 into the +0.0 that a running max from 0.0 keeps."""
    return float(np.max(samples, initial=0.0)) + 0.0


def run_suite(cfg: dict) -> dict:
    """Each suite yields its checks as (id, samples, tol, forced), and the
    check's value is _worst(samples).  It passes if value <= tol; else it
    flags if forced is "flag" (a transcription slip) and value is not NaN;
    else it fails.  So a NaN sample always fails."""
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
        for cid, samples, ctol, forced in _SUITE_FUNCS[sname](cfg, tol):
            now = time.perf_counter()
            ms = round((now - last) * 1000.0) if cfg.get("timing") else 0
            last = now
            value = _worst(samples)
            status = ("pass" if value <= ctol
                      else "flag" if forced == "flag" and not isnan(value)
                      else "fail")
            records.append({"id": cid, "status": status, "value": value,
                            "tol": float(ctol), "ms": ms})
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
        try:
            with open(cfg["out"], "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']!r}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload.decode())
    return 1 if report["summary"]["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
