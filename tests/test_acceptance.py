"""End-to-end acceptance checks for the sensitivity toolkit.

Each test prints one line with the measured numbers when it passes, so a
verbose run doubles as a results table. The expensive Monte Carlo blocks are
shared through module-scoped fixtures; everything is seeded, so reruns are
reproducible down to the last bit on the pure-arithmetic paths.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kolsens import (BaselineModel, BoundaryFunction, EvalPoint, FdProblem1d, McConfig,
                     build_time_grid, compute_report, draw_samples, epsilon_sweep,
                     generate_normalized_model, plan_epsilon_sweep, predicted_complexity,
                     quartic_boundary, quartic_sensitivity_quadrature, quartic_v0,
                     sensitivity_mc, sine_boundary, sine_sensitivity_quadrature,
                     sine_v0, solve, v0_mc)
from kolsens.cli import DIM_SWEEP_HEADER, main

V0_SERIES = 0.510378        # sin(1) e^{-1/2}
V0_REPORTED = 0.51033       # large-sample Monte Carlo reference
DRIFT_REPORTED = 0.45018
VOL_REPORTED = 0.55718
SUM_REPORTED = 1.00736
QUARTIC_DRIFT_REF = 16.4666
QUARTIC_VOL_REF = 24.0707
QUARTIC_SUM_REF = 40.5373


def _announce(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def quartic_setup():
    model = BaselineModel(drift=np.array([1.0]), vol=np.array([[1.0]]), horizon=1.0)
    return model, quartic_boundary(), EvalPoint(t=0.0, x=np.zeros(1))


@pytest.fixture(scope="module")
def quartic_sens_runs(quartic_setup):
    """Ten seeded sensitivity estimates at N=100, M0=M1=3000 (seeds 20..29)."""
    model, boundary, point = quartic_setup
    grid = build_time_grid(0.0, model.horizon, 100)
    drifts, vols = [], []
    t0 = time.perf_counter()
    for seed in range(20, 30):
        samples = draw_samples(model, grid, 3000, 3000, seed)
        sd, sv, _ = sensitivity_mc(boundary, point, samples)
        drifts.append(sd)
        vols.append(sv)
    elapsed = time.perf_counter() - t0
    return np.array(drifts), np.array(vols), elapsed


@pytest.fixture(scope="module")
def sine_suite():
    """Sine-boundary runs for d in {1, 5, 10}: value at M0=1e6 plus ten
    seeded sensitivity estimates at N=100, M0=M1=2000 per dimension."""
    out = {}
    for d in (1, 5, 10):
        model = generate_normalized_model(d, 100 + d)
        boundary = sine_boundary(d)
        point = EvalPoint(t=0.0, x=np.zeros(d))
        t0 = time.perf_counter()
        value_samples = draw_samples(model, build_time_grid(0.0, 1.0, 1),
                                     1_000_000, 1, 0)
        v0 = v0_mc(boundary, point, value_samples)
        v0_elapsed = time.perf_counter() - t0
        del value_samples
        grid = build_time_grid(0.0, 1.0, 100)
        drifts, vols = [], []
        for seed in range(10):
            samples = draw_samples(model, grid, 2000, 2000, seed)
            sd, sv, _ = sensitivity_mc(boundary, point, samples)
            drifts.append(sd)
            vols.append(sv)
        out[d] = {"v0": v0, "v0_elapsed": v0_elapsed,
                  "drifts": np.array(drifts), "vols": np.array(vols)}
    return out


def test_criterion_01_quartic_baseline_value(quartic_setup):
    model, boundary, point = quartic_setup
    t0 = time.perf_counter()
    samples = draw_samples(model, build_time_grid(0.0, 1.0, 1), 1_000_000, 1, 0)
    v0 = v0_mc(boundary, point, samples)
    elapsed = time.perf_counter() - t0
    assert abs(v0 - 10.0) < 0.05, f"v0={v0}"
    assert elapsed < 10.0, f"elapsed={elapsed:.2f}s"
    _announce(1, f"v0={v0:.5f} (target 10 +- 0.05), {elapsed:.2f}s")


def test_criterion_02_quartic_sensitivities(quartic_sens_runs):
    drifts, vols, elapsed = quartic_sens_runs
    drift, vol = float(drifts.mean()), float(vols.mean())
    total = drift + vol
    assert abs(drift - QUARTIC_DRIFT_REF) / QUARTIC_DRIFT_REF < 0.02, f"drift={drift}"
    assert abs(vol - QUARTIC_VOL_REF) / QUARTIC_VOL_REF < 0.02, f"vol={vol}"
    assert abs(total - QUARTIC_SUM_REF) / QUARTIC_SUM_REF < 0.02, f"sum={total}"
    assert elapsed < 120.0, f"elapsed={elapsed:.1f}s"
    _announce(2, f"drift={drift:.4f} vol={vol:.4f} sum={total:.4f} "
                 f"(refs {QUARTIC_DRIFT_REF}/{QUARTIC_VOL_REF}/{QUARTIC_SUM_REF} "
                 f"+- 2%), {elapsed:.1f}s")


def test_criterion_03_sine_dimension_invariance(sine_suite):
    lines = []
    for d, block in sine_suite.items():
        v0 = block["v0"]
        assert abs(v0 - V0_SERIES) < 0.002, f"d={d}: v0={v0}"
        assert abs(v0 - V0_REPORTED) < 0.002, f"d={d}: v0={v0}"
        assert block["v0_elapsed"] < 60.0, f"d={d}: {block['v0_elapsed']:.1f}s"
        lines.append(f"d={d}: {v0:.6f} ({block['v0_elapsed']:.2f}s)")
    _announce(3, "; ".join(lines) + f" vs {V0_SERIES}/{V0_REPORTED} +- 0.002")


def test_criterion_04_sqrt_d_scaling(sine_suite):
    base_drift = sine_suite[1]["drifts"].mean()
    base_vol = sine_suite[1]["vols"].mean()
    lines = []
    for d in (5, 10):
        root = math.sqrt(d)
        for label, base in (("drift", base_drift), ("vol", base_vol)):
            ratio = sine_suite[d][f"{label}s"].mean() / base
            assert abs(ratio / root - 1.0) < 0.02, f"d={d} {label}: ratio={ratio}"
            lines.append(f"d={d} {label}: {ratio:.4f}/{root:.4f}")
    _announce(4, "; ".join(lines) + " (within 2%)")


def test_criterion_05_quadrature_oracle_agreement(sine_suite):
    quad_drift = sine_sensitivity_quadrature(1.0, 1, "drift")
    quad_vol = sine_sensitivity_quadrature(1.0, 1, "vol")
    assert abs(quad_drift - DRIFT_REPORTED) < 0.005
    assert abs(quad_vol - VOL_REPORTED) < 0.005
    parts = []
    for label, quad in (("drifts", quad_drift), ("vols", quad_vol)):
        vals = sine_suite[1][label]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        gap = abs(vals.mean() - quad)
        assert gap < 3.0 * se, f"{label}: gap={gap:.5f} se={se:.5f}"
        parts.append(f"{label[:-1]} gap {gap / se:.2f} SE")
    _announce(5, f"quadrature ({quad_drift:.5f}, {quad_vol:.5f}) vs "
                 f"({DRIFT_REPORTED}, {VOL_REPORTED}) +- 0.005; " + ", ".join(parts))


def test_criterion_06_epsilon_squared_error_law():
    quad_drift = quartic_sensitivity_quadrature("drift")
    quad_vol = quartic_sensitivity_quadrature("vol")
    epsilons = [0.01 * k for k in range(1, 11)]
    slopes = {}
    t0 = time.perf_counter()
    for gamma, eta in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        template = FdProblem1d(drift=1.0, vol=1.0, gamma=gamma, eta=eta,
                               epsilon=epsilons[-1], boundary=quartic_boundary(),
                               nx=2001)
        result = epsilon_sweep(plan_epsilon_sweep(template, epsilons),
                               v0=quartic_v0(0.0, 0.0, 1.0, 1.0, 1.0),
                               sensitivity=gamma * quad_drift + eta * quad_vol)
        slopes[(gamma, eta)] = result.slope
        assert 1.7 < result.slope < 2.3, f"(gamma,eta)=({gamma},{eta}): {result.slope}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"elapsed={elapsed:.1f}s"
    shown = ", ".join(f"({g:g},{e:g})={s:.3f}" for (g, e), s in slopes.items())
    _announce(6, f"log-log slopes {shown} in [1.7, 2.3], {elapsed:.1f}s")


def test_criterion_07_linearity_identity(quartic_setup):
    model, boundary, point = quartic_setup
    report = compute_report(model, boundary, point,
                            McConfig(n_steps=20, m0=500, m1=500, seed=11))
    combined = report.sens_total(1.0, 1.0)
    split = report.sens_total(1.0, 0.0) + report.sens_total(0.0, 1.0)
    assert abs(combined - split) <= 1e-12 * abs(combined)
    assert abs(DRIFT_REPORTED + VOL_REPORTED - SUM_REPORTED) < 1e-12
    _announce(7, f"sens(1,1)={combined!r} == sens(1,0)+sens(0,1)={split!r}; "
                 f"{DRIFT_REPORTED}+{VOL_REPORTED}=={SUM_REPORTED}")


def test_criterion_08_complexity_formula():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        d = int(rng.integers(1, 16))
        n = int(rng.integers(1, 200))
        m1 = d + 1 + int(rng.integers(0, 800))
        m0 = m1 + int(rng.integers(0, 5000))
        got = predicted_complexity(d, n, m0, m1)
        # same polynomial, expanded along a different grouping
        want = m0 * d + n * (m1 * m1 + m1) * (d + d * d) + n * m1 * d**3
        assert got == want
        inner_terms = got - m0 * d
        doubled = predicted_complexity(d, n, m0, 2 * m1) - m0 * d
        assert doubled >= 3 * inner_terms, f"(d,n,m0,m1)=({d},{n},{m0},{m1})"
    _announce(8, "20 random tuples match exactly; doubling M1 at least "
                 "triples the M1-dependent terms")


def test_criterion_09_dim_sweep_determinism(tmp_path, monkeypatch):
    config = {"model": {"kind": "normalized", "dim": 1, "seed": 100},
              "boundary": "sine",
              "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
              "mc": {"n_steps": 4, "m0": 400, "m1": 100},
              "dims": [1, 2], "seed": 3, "runs": 2}
    cfg = tmp_path / "dims.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    texts = []
    for workers, name in (("1", "a.csv"), ("4", "b.csv")):
        monkeypatch.setenv("KOLSENS_WORKERS", workers)
        out = tmp_path / name
        assert main(["--config", str(cfg), "--command", "dim-sweep",
                     "--format", "csv", "--out", str(out)]) == 0
        texts.append(out.read_text())
    stripped = []
    for text in texts:
        lines = text.splitlines()
        assert lines[0] == DIM_SWEEP_HEADER
        stripped.append([",".join(line.split(",")[:-1]) for line in lines])
    assert stripped[0] == stripped[1]
    _announce(9, "dim-sweep CSV byte-identical at 1 vs 4 workers "
                 "(runtime column excluded)")


def test_criterion_10_property_suite(quartic_setup):
    model, boundary, point = quartic_setup

    # affine boundary: zero volatility factor, exact drift factor
    a = np.array([1.5, -0.5])
    wide = BaselineModel(drift=np.array([0.1, -0.2]),
                         vol=np.array([[1.0, 0.0], [0.3, 0.7]]), horizon=1.5)
    affine = BoundaryFunction(
        dim=2,
        value=lambda p: np.asarray(p) @ a + 2.0,
        gradient=lambda p: np.broadcast_to(a, np.asarray(p).shape).copy(),
        hessian=lambda p: np.zeros(np.asarray(p).shape + (2,)),
        growth_alpha=1.0, growth_const=5.0)
    pt2 = EvalPoint(t=0.25, x=np.array([0.4, -0.1]))
    samples2 = draw_samples(wide, build_time_grid(0.25, 1.5, 6), 300, 37, 3)
    for bnd in (affine, replace(affine, hessian=None)):     # Hessian and FD branches
        sd, sv, _ = sensitivity_mc(bnd, pt2, samples2)
        assert sv == 0.0
        assert sd == pytest.approx(1.25 * math.sqrt(2.5), rel=1e-13)

    # constant boundary: both factors vanish
    const = BoundaryFunction(
        dim=1,
        value=lambda p: np.full(np.asarray(p).shape[:-1], 1.0),
        gradient=lambda p: np.zeros(np.asarray(p).shape),
    )
    samples1 = draw_samples(model, build_time_grid(0.0, 1.0, 5), 200, 40, 1)
    assert sensitivity_mc(const, point, samples1)[:2] == (0.0, 0.0)

    # translation covariance of the value estimator, bit-identical
    shift = np.array([0.75])
    f_val = lambda p: np.asarray(p)[..., 0] ** 2 * (np.asarray(p)[..., 0] + 2.0)
    zero_grad = lambda p: np.zeros(np.asarray(p).shape)
    f = BoundaryFunction(dim=1, value=f_val, gradient=zero_grad)
    g = BoundaryFunction(dim=1, value=lambda p: f_val(shift + np.asarray(p)),
                         gradient=zero_grad)
    shared = draw_samples(model, build_time_grid(0.0, 1.0, 4), 30_000, 10, 7)
    assert (v0_mc(f, EvalPoint(t=0.0, x=shift), shared)
            == v0_mc(g, EvalPoint(t=0.0, x=np.zeros(1)), shared))

    # finite-difference branch approaches the exact-Hessian branch at rate h
    samples_h = draw_samples(model, build_time_grid(0.0, 1.0, 6), 500, 300, 9)
    _, sv_exact, _ = sensitivity_mc(boundary, point, samples_h)
    no_hessian = replace(boundary, hessian=None, ridge=replace(boundary.ridge, d2=None))
    errs = {h: abs(sensitivity_mc(no_hessian, point, samples_h, h=h)[1] - sv_exact)
            for h in (1e-2, 1e-3)}
    assert 3.0 < errs[1e-2] / errs[1e-3] < 30.0

    # grid reference: exact frozen edges, value nondecreasing in epsilon
    prob = FdProblem1d(drift=1.0, vol=1.0, gamma=1.0, eta=1.0, epsilon=0.1,
                       boundary=quartic_boundary(), nx=401, half_width=4.0)
    sol = solve(prob)
    terminal = quartic_boundary().value(sol.grid_x[:, None])
    assert np.array_equal(sol.values[[0, -1]], terminal[[0, -1]])
    vals = [solve(replace(prob, epsilon=e)).at(0.0)
            for e in (0.0, 0.05, 0.1)]
    assert vals[0] < vals[1] < vals[2]

    _announce(10, "affine/constant exactness, translation covariance, "
                  "O(h) branch agreement, exact frozen edges, monotone in epsilon")


def test_reduced_dimension_sweep_completes_at_d50(tmp_path):
    config = {"model": {"kind": "normalized", "dim": 1, "seed": 100},
              "boundary": "sine",
              "uncertainty": {"gamma": 1.0, "eta": 1.0, "epsilon": 0.05},
              "mc": {"n_steps": 100, "m0": 250_000, "m1": 3000},
              "dims": [1, 50], "seed": 0, "runs": 2}
    cfg = tmp_path / "d50.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "d50.json.out"
    assert main(["--config", str(cfg), "--command", "dim-sweep",
                 "--out", str(out)]) == 0
    rows = {row["d"]: row for row in json.loads(out.read_text())["rows"]}
    assert set(rows) == {1, 50}
    # criteria 3-4 invariants at tolerances widened for M0=2.5e5, two runs
    for d in (1, 50):
        assert abs(rows[d]["v0_mean"] - V0_SERIES) < 0.004, rows[d]
    root = math.sqrt(50.0)
    ratios = {}
    for key in ("sens_drift_mean", "sens_vol_mean"):
        ratio = rows[50][key] / rows[1][key]
        ratios[key] = ratio
        assert abs(ratio / root - 1.0) < 0.05, f"{key}: {ratio} vs {root}"
    print(f"[PASS] reduced sweep: d=50 completed at M1=3000; "
          f"v0 ({rows[1]['v0_mean']:.5f}, {rows[50]['v0_mean']:.5f}); "
          f"ratios {ratios['sens_drift_mean']:.3f}/{ratios['sens_vol_mean']:.3f} "
          f"vs sqrt(50)={root:.3f}")
