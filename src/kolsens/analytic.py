"""Reference values for the two built-in experiment families.

For the quartic boundary (d = 1) and the sine boundary on a normalized model
the linear-problem value function is known in closed form, so the baseline
value and both sensitivity factors reduce to one-dimensional integrals of
Gaussian expectations. The baseline values and the quartic volatility factor
are fully closed-form; the remaining factors need numerical quadrature
because of the absolute value around the inner expectation.

The absolute value makes the integrands kinked, so plain Gaussian quadrature
stalls at a few digits. `gauss_abs_expectation` instead splits the real line
at the analytically known sign changes of the smooth part and integrates each
segment with Gauss-Legendre against the explicit normal density; the result
is stable to ~1e-14 under order doubling. Tails beyond 13 standard
deviations are dropped (the integrands grow at most polynomially, so the
truncation error is below 1e-29).
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import choice, count, real

_TAIL_SIGMAS = 13.0
_PANEL_ORDER = 8     # Gauss-Legendre order inside each time panel
_GAUSS_ORDER = 64    # Gauss-Legendre order of each Gaussian-expectation segment
_TIME_PANELS = 200   # panels of each time integral


@lru_cache(maxsize=None)
def _leggauss(order: int):
    nodes, weights = leggauss(order)
    return nodes, weights


def _lattice_points(offset: float, step: float, lo: float, hi: float) -> list:
    """All points offset + k*step inside (lo, hi), ascending."""
    k0 = math.ceil((lo - offset) / step)
    k1 = math.floor((hi - offset) / step)
    return [offset + k * step for k in range(k0, k1 + 1) if lo < offset + k * step < hi]


def gauss_abs_expectation(func, zeros, mean: float, std: float, order: int) -> float:
    """E[|func(Y)|] for Y ~ N(mean, std^2), splitting at the zeros of func.

    `zeros(lo, hi)` must return the sign changes of `func` inside (lo, hi) in
    ascending order; each segment between consecutive zeros is then smooth and
    integrated with an `order`-point Gauss-Legendre rule against the normal
    density. A zero `std` collapses to the point mass |func(mean)|.
    """
    return _abs_expectation(func, zeros, real(mean, "mean"), real(std, "std", low=0.0),
                            count(order, "order"))


def _abs_expectation(func, zeros, mean: float, std: float, order: int) -> float:
    """gauss_abs_expectation on arguments already checked, as the quadratures pass them."""
    if std == 0.0:
        return abs(float(func(np.asarray([mean]))[0]))
    lo = mean - _TAIL_SIGMAS * std
    hi = mean + _TAIL_SIGMAS * std
    edges = [lo, *zeros(lo, hi), hi]
    nodes, weights = _leggauss(order)
    scale = 1.0 / (std * math.sqrt(2.0 * math.pi))
    parts = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        y = 0.5 * (a + b) + half * nodes
        dens = np.exp(-0.5 * ((y - mean) / std) ** 2) * scale
        parts.append(half * float(np.sum(weights * np.abs(func(y)) * dens)))
    return math.fsum(parts)


def _time_integral(integrand, upper: float) -> float:
    """Composite Gauss-Legendre integral of a scalar function over [0, upper]."""
    nodes, weights = _leggauss(_PANEL_ORDER)
    width = upper / _TIME_PANELS
    parts = []
    for p in range(_TIME_PANELS):
        mid = (p + 0.5) * width
        half = 0.5 * width
        parts.append(half * math.fsum(
            w * integrand(mid + half * z) for z, w in zip(nodes, weights)))
    return math.fsum(parts)


# --------------------------------------------------------------------------
# quartic family: boundary u^4 in dimension one
# --------------------------------------------------------------------------

def quartic_v0(t: float, x: float, drift: float, vol: float, horizon: float) -> float:
    """Baseline value of the quartic boundary: E[(x + X_T)^4 | X_t = 0].

    The displacement is N(drift*theta, vol^2*theta) with theta = horizon - t,
    so this is the fourth moment mu^4 + 6 mu^2 s^2 + 3 s^4 of a normal with
    mean mu = x + drift*theta and variance s^2 = vol^2*theta.
    """
    t, x, drift, vol = (real(v, name) for v, name in
                        ((t, "t"), (x, "x"), (drift, "drift"), (vol, "vol")))
    theta = real(horizon, "horizon", low=t) - t
    mu = x + drift * theta
    s2 = vol * vol * theta
    return mu ** 4 + 6.0 * mu ** 2 * s2 + 3.0 * s2 ** 2


def quartic_sensitivity_quadrature(kind: str, t: float = 0.0, x: float = 0.0,
                                   drift: float = 1.0, vol: float = 1.0,
                                   horizon: float = 1.0) -> float:
    """Sensitivity factors of the quartic family, to quadrature accuracy.

    The linear-problem gradient at elapsed time u is 4*a*(a^2 + 3*vol^2*rem)
    with rem = theta - u and a ~ N(x + drift*theta, vol^2*u); its only sign
    change is at a = 0. The volatility factor needs no quadrature at all:
    the second derivative 12*(a^2 + vol^2*rem) is nonnegative, and E[a^2]
    integrates in closed form to 12*|vol|*theta*(mu0^2 + vol^2*theta).
    """
    t, x, drift, vol = (real(v, name) for v, name in
                        ((t, "t"), (x, "x"), (drift, "drift"), (vol, "vol")))
    theta = real(horizon, "horizon", low=t, above=True) - t
    mu0 = x + drift * theta
    if choice(kind, "kind", ("drift", "vol")) == "vol":
        return 12.0 * abs(vol) * theta * (mu0 ** 2 + vol ** 2 * theta)

    def integrand(u: float) -> float:
        rem = theta - u
        def g(a):
            return 4.0 * a * (a * a + 3.0 * vol * vol * rem)
        def zeros(lo, hi):
            return [0.0] if lo < 0.0 < hi else []
        return _abs_expectation(g, zeros, mu0, abs(vol) * math.sqrt(u), _GAUSS_ORDER)

    return _time_integral(integrand, theta)


# --------------------------------------------------------------------------
# sine family: boundary sin(sum of coordinates) on a normalized model
# --------------------------------------------------------------------------

def sine_v0(horizon: float) -> float:
    """Baseline value of the sine boundary at (t, x) = (0, 0), any dimension.

    For a normalized model the coordinate sum of the displacement is
    N(horizon, horizon) regardless of dimension, hence
    E[sin(sum X_T)] = sin(horizon) * exp(-horizon / 2).
    """
    horizon = real(horizon, "horizon", low=0.0, above=True)
    return math.sin(horizon) * math.exp(-0.5 * horizon)


def sine_sensitivity_quadrature(horizon: float, dim: int, kind: str) -> float:
    """Sensitivity factors of the sine family on a normalized model.

    Both factors equal sqrt(dim) times a dimension-free integral,

        int_0^T exp(-(T-u)/2) * E[ |g(T + sqrt(u) Z)| ] du,

    with g = cos for the drift factor and g = sin for the volatility factor;
    the sqrt(dim) factor multiplies the same scalar integral bit-for-bit.
    """
    horizon, dim = real(horizon, "horizon", low=0.0, above=True), count(dim, "dim")
    if choice(kind, "kind", ("drift", "vol")) == "drift":
        g, offset = np.cos, 0.5 * math.pi
    else:
        g, offset = np.sin, 0.0

    def integrand(u: float) -> float:
        def zeros(lo, hi):
            return _lattice_points(offset, math.pi, lo, hi)
        expect = _abs_expectation(g, zeros, horizon, math.sqrt(u), _GAUSS_ORDER)
        return math.exp(-0.5 * (horizon - u)) * expect

    return math.sqrt(dim) * _time_integral(integrand, horizon)
