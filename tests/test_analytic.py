import math

import numpy as np
import pytest

from kolsens import (ValidationError, gauss_abs_expectation, quartic_sensitivity_quadrature,
                     quartic_v0, sine_sensitivity_quadrature, sine_v0)
from kolsens import analytic


def _abs_normal_closed_form(mu: float, sigma: float) -> float:
    """E|N(mu, sigma^2)| in closed form (half-normal plus mean correction)."""
    if sigma == 0.0:
        return abs(mu)
    z = mu / sigma
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return sigma * (2.0 * phi + z * (2.0 * cdf - 1.0))


def test_gauss_abs_expectation_identity_function():
    zeros = lambda lo, hi: [0.0] if lo < 0.0 < hi else []
    for mu, sigma in [(0.0, 1.0), (1.3, 0.7), (-2.5, 2.0), (4.0, 0.5)]:
        got = gauss_abs_expectation(lambda y: y, zeros, mu, sigma, order=48)
        assert got == pytest.approx(_abs_normal_closed_form(mu, sigma), rel=1e-12)


def test_gauss_abs_expectation_degenerate_std():
    got = gauss_abs_expectation(np.cos, lambda lo, hi: [], 2.0, 0.0, order=16)
    assert got == abs(math.cos(2.0))


def test_quartic_v0_closed_form_values():
    # frozen oracle: fourth moment of N(1, 1) at the benchmark point
    assert quartic_v0(0.0, 0.0, 1.0, 1.0, 1.0) == 10.0
    # independent check by Gauss-Hermite integration of the quartic payoff
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    rng = np.random.default_rng(5)
    for _ in range(8):
        t = float(rng.uniform(0.0, 0.9))
        x = float(rng.uniform(-2.0, 2.0))
        b0 = float(rng.uniform(-1.0, 1.0))
        s0 = float(rng.uniform(0.3, 2.0))
        theta = 1.0 - t
        mu = x + b0 * theta
        sd = s0 * math.sqrt(theta)
        quad = float(np.sum(weights * (mu + math.sqrt(2.0) * sd * nodes) ** 4)
                     / math.sqrt(math.pi))
        assert quartic_v0(t, x, b0, s0, 1.0) == pytest.approx(quad, rel=1e-12)


def test_quartic_v0_rejects_reversed_times():
    with pytest.raises(ValidationError):
        quartic_v0(1.5, 0.0, 1.0, 1.0, 1.0)


def test_quartic_sensitivity_frozen_values():
    # frozen oracle values at (t, x, drift, vol, horizon) = (0, 0, 1, 1, 1)
    assert quartic_sensitivity_quadrature("drift") == pytest.approx(
        16.368698302602724, rel=1e-10)
    assert quartic_sensitivity_quadrature("vol") == 24.0


def test_quartic_vol_closed_form_general_point():
    # 12*|vol|*theta*(mu0^2 + vol^2*theta) with mu0 = x + drift*theta
    val = quartic_sensitivity_quadrature("vol", t=0.25, x=0.5, drift=-0.4,
                                         vol=1.5, horizon=1.25)
    theta = 1.0
    mu0 = 0.5 - 0.4 * theta
    assert val == pytest.approx(12.0 * 1.5 * theta * (mu0 ** 2 + 1.5 ** 2 * theta))


def test_quartic_drift_quadrature_vs_monte_carlo():
    # loose independent check of the kinked time integrand
    rng = np.random.default_rng(11)
    n = 400_000
    z = rng.standard_normal(n)
    grid = np.linspace(0.0, 1.0, 201)
    mids = 0.5 * (grid[1:] + grid[:-1])
    total = 0.0
    for u in mids:
        a = 1.0 + math.sqrt(u) * z
        total += np.mean(np.abs(4.0 * a * (a * a + 3.0 * (1.0 - u)))) * (grid[1] - grid[0])
    assert quartic_sensitivity_quadrature("drift") == pytest.approx(total, rel=5e-3)


def test_sine_v0_value():
    assert sine_v0(1.0) == pytest.approx(math.sin(1.0) * math.exp(-0.5), abs=0.0)
    assert sine_v0(1.0) == pytest.approx(0.510377951544573, abs=1e-14)
    with pytest.raises(ValidationError):
        sine_v0(0.0)


def test_sine_sensitivity_frozen_values():
    # frozen oracle values at horizon 1, d = 1
    assert sine_sensitivity_quadrature(1.0, 1, "drift") == pytest.approx(
        0.4510843138180038, abs=1e-10)
    assert sine_sensitivity_quadrature(1.0, 1, "vol") == pytest.approx(
        0.5598683800368548, abs=1e-10)


def test_sine_sensitivity_doubling_stability(monkeypatch):
    def values():
        return [sine_sensitivity_quadrature(1.0, 1, "drift"),
                sine_sensitivity_quadrature(1.0, 1, "vol"),
                quartic_sensitivity_quadrature("drift")]

    base = values()
    monkeypatch.setattr(analytic, "_GAUSS_ORDER", 2 * analytic._GAUSS_ORDER)
    monkeypatch.setattr(analytic, "_TIME_PANELS", 2 * analytic._TIME_PANELS)
    for b, fine in zip(base, values()):
        assert abs(b - fine) < 1e-8


def test_sine_sqrt_dim_factorization_is_exact():
    for kind in ("drift", "vol"):
        base = sine_sensitivity_quadrature(1.0, 1, kind)
        for d in (2, 5, 10, 50):
            assert sine_sensitivity_quadrature(1.0, d, kind) == math.sqrt(d) * base


def test_sine_sensitivity_vs_plain_monte_carlo():
    # brute-force the dimension-free integral with common random numbers
    rng = np.random.default_rng(23)
    z = rng.standard_normal(500_000)
    grid = np.linspace(0.0, 1.0, 101)
    mids = 0.5 * (grid[1:] + grid[:-1])
    dt = grid[1] - grid[0]
    for kind, g in (("drift", np.cos), ("vol", np.sin)):
        total = 0.0
        for u in mids:
            total += (math.exp(-0.5 * (1.0 - u))
                      * np.mean(np.abs(g(1.0 + math.sqrt(u) * z))) * dt)
        assert sine_sensitivity_quadrature(1.0, 1, kind) == pytest.approx(total, rel=5e-3)


def test_kind_validation():
    with pytest.raises(ValidationError):
        sine_sensitivity_quadrature(1.0, 1, "curvature")
    with pytest.raises(ValidationError):
        quartic_sensitivity_quadrature("everything")
    with pytest.raises(ValidationError):
        sine_sensitivity_quadrature(1.0, 0, "drift")
    with pytest.raises(ValidationError):
        sine_sensitivity_quadrature(-1.0, 1, "drift")


def test_recorded_large_sample_reference_bands():
    # the quadrature values sit inside the recorded large-sample MC bands
    assert abs(sine_sensitivity_quadrature(1.0, 1, "drift") - 0.45018) < 0.005
    assert abs(sine_sensitivity_quadrature(1.0, 1, "vol") - 0.55718) < 0.005
    assert abs(sine_v0(1.0) - 0.51033) < 0.002
