"""Baseline diffusion models, uncertainty budgets, and boundary data.

A baseline model is the constant-coefficient diffusion dX = b dt + sigma dW
on a finite horizon. Sensitivities are taken with respect to a joint
drift/volatility perturbation budget: drift may move by gamma*eps in
Euclidean norm and volatility by eta*eps in Frobenius norm. The first-order
expansion in eps is trustworthy only while eps stays below
min(1, lambda_min(sigma)), which `validate_expansion_regime` checks.

Boundary (terminal) data is carried as a `BoundaryFunction` bundle: batched
evaluators for the value, gradient and (optionally) Hessian, plus the
polynomial growth envelope used by the standing assumptions. Boundaries of
ridge form f(x) = phi(a . x) can declare that structure, which the Monte
Carlo engine exploits to make its pairwise work independent of dimension.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GenerationError, ValidationError, array, count, real

Array = np.ndarray


@dataclass(frozen=True)
class BaselineModel:
    """Constant coefficients b (shape (d,)), sigma (shape (d,d)), horizon T."""

    drift: Array
    vol: Array
    horizon: float = 1.0

    def __post_init__(self):
        drift = array(self.drift, "drift", (None,))
        vol = array(self.vol, "vol", (len(drift), len(drift)))
        horizon = real(self.horizon, "horizon", low=0.0, above=True)
        if np.linalg.svd(vol, compute_uv=False)[-1] <= 0.0:
            raise ValidationError("vol must be invertible (singular matrix given)")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "vol", vol)
        object.__setattr__(self, "horizon", horizon)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


def lambda_min(model: BaselineModel) -> float:
    """Smallest singular value of the baseline volatility matrix."""
    return float(np.linalg.svd(model.vol, compute_uv=False)[-1])


@dataclass(frozen=True)
class UncertaintySpec:
    """Perturbation budget: gamma, eta in [0,1] weight drift/vol, eps >= 0 scales both."""

    gamma: float
    eta: float
    epsilon: float

    def __post_init__(self):
        real(self.gamma, "gamma", 0.0, 1.0)
        real(self.eta, "eta", 0.0, 1.0)
        real(self.epsilon, "epsilon", low=0.0)


@dataclass(frozen=True)
class EvalPoint:
    """Space-time evaluation point (t, x). t < horizon is checked where a model is in scope."""

    t: float
    x: Array

    def __post_init__(self):
        # a scalar is promoted; np.atleast_1d would coerce a list's mixed elements
        x = self.x if isinstance(self.x, (list, tuple)) else np.atleast_1d(self.x)
        object.__setattr__(self, "x", array(x, "x", (None,)))
        object.__setattr__(self, "t", real(self.t, "t", low=0.0))


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of the expansion-regime check eps < min(1, lambda_min(vol))."""

    ok: bool
    epsilon: float
    bound: float
    vol_lambda_min: float


def validate_expansion_regime(model: BaselineModel, unc: UncertaintySpec) -> RegimeReport:
    """Check that the perturbation scale keeps the expansion in its valid regime."""
    lam = lambda_min(model)
    bound = min(1.0, lam)
    return RegimeReport(ok=unc.epsilon < bound, epsilon=unc.epsilon,
                        bound=bound, vol_lambda_min=lam)


# --------------------------------------------------------------------------
# boundary (terminal) data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeProfile:
    """Structure declaration for boundaries of the form f(x) = phi(a . x).

    `profile`, `d1`, `d2` are vectorized scalar callables for phi and its
    first two derivatives (d2 may be None when no Hessian is available).
    """

    direction: Array
    profile: Callable[[Array], Array]
    d1: Callable[[Array], Array]
    d2: Callable[[Array], Array] | None = None

    def __post_init__(self):
        object.__setattr__(self, "direction", array(self.direction, "direction", (None,)))


@dataclass(frozen=True)
class BoundaryFunction:
    """Terminal data bundle with batched evaluators.

    value: (..., d) -> (...)
    gradient: (..., d) -> (..., d)
    hessian: (..., d) -> (..., d, d), or None if unavailable
    growth_alpha, growth_const: envelope |f| + |grad f| + ||hess f||_F
        <= growth_const * (1 + |x|^growth_alpha), used by regime diagnostics.
    ridge: optional structure declaration (see RidgeProfile); ridge.d2 is
        set exactly when `hessian` is. These declarations pick the engine path.
    """

    dim: int
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None
    growth_alpha: float = 1.0
    growth_const: float = 1.0
    ridge: RidgeProfile | None = None
    name: str = "external"

    def __post_init__(self):
        count(self.dim, "dim")
        real(self.growth_alpha, "growth_alpha", low=1.0)
        real(self.growth_const, "growth_const", low=0.0, above=True)
        if self.ridge is not None and self.ridge.direction.shape != (self.dim,):
            raise ValidationError("ridge direction length must equal boundary dim")
        if self.ridge is not None and (self.ridge.d2 is None) != (self.hessian is None):
            raise ValidationError("ridge.d2 must be set exactly when hessian is")


def ridge_boundary(direction, profile, d1, d2=None, *, growth_alpha=1.0,
                   growth_const=1.0, name="ridge") -> BoundaryFunction:
    """Build a BoundaryFunction from scalar profile callables for f(x) = phi(a . x).

    The batched value/gradient/Hessian evaluators are generated from the
    profile, so the bundle is consistent by construction.
    """
    ridge = RidgeProfile(direction=direction, profile=profile, d1=d1, d2=d2)
    a = ridge.direction
    d = a.shape[0]

    def value(pts):
        return profile(np.asarray(pts) @ a)

    def gradient(pts):
        s = np.asarray(pts) @ a
        return d1(s)[..., None] * a

    hessian = None
    if d2 is not None:
        outer = np.multiply.outer(a, a)

        def hessian(pts):
            s = np.asarray(pts) @ a
            return d2(s)[..., None, None] * outer

    return BoundaryFunction(dim=d, value=value, gradient=gradient, hessian=hessian,
                            growth_alpha=growth_alpha, growth_const=growth_const,
                            ridge=ridge, name=name)


def _quartic_phi(s):
    """(s * s) * (s * s), with one array allocated."""
    t = s * s
    t *= t
    return t


def _quartic_d1(s):
    """4.0 * (s * s) * s, with one array allocated."""
    t = s * s
    t *= 4.0
    t *= s
    return t


def _quartic_d2(s):
    """12.0 * (s * s), with one array allocated."""
    t = s * s
    t *= 12.0
    return t


def quartic_boundary() -> BoundaryFunction:
    """One-dimensional boundary f(x) = x^4 (Hessian 12 x^2 grows quadratically)."""
    return ridge_boundary(
        np.ones(1),
        profile=_quartic_phi,
        d1=_quartic_d1,
        d2=_quartic_d2,
        # sup_s (s^4 + 4|s|^3 + 12 s^2) / (1 + s^4) is ~8.6, attained near |s|=1.2
        growth_alpha=4.0,
        growth_const=9.0,
        name="quartic",
    )


def sine_boundary(dim: int) -> BoundaryFunction:
    """f(x) = sin(x_1 + ... + x_d); all derivative norms stay bounded by d."""
    dim = count(dim, "dim")
    return ridge_boundary(
        np.ones(dim),
        profile=np.sin,
        d1=np.cos,
        d2=lambda s: -np.sin(s),
        # |sin| + sqrt(d)|cos| + d|sin| <= 1 + sqrt(d) + d <= 2d + 1
        growth_alpha=1.0,
        growth_const=float(2 * dim + 1),
        name="sine",
    )


@dataclass(frozen=True)
class BoundaryCheck:
    """Finite-difference consistency report for a BoundaryFunction."""

    max_gradient_rel_err: float
    max_hessian_rel_err: float
    max_hessian_asym: float
    max_ridge_rel_err: float
    ok: bool


def check_boundary(boundary: BoundaryFunction) -> BoundaryCheck:
    """Probe gradient/Hessian against central differences of value/gradient.

    A ridge declaration is probed too, since the engine evaluates it in place
    of the evaluators: value against profile(x.a), gradient against
    d1(x.a) a and, when set, Hessian against d2(x.a) a a^T. Relative errors
    are measured against 1 + |exact| at 20 seeded Gaussian points of
    standard deviation 1.5, with step 1e-5; `ok` means every error is below
    1e-5. Returns a report; callers decide whether that is fatal.
    """
    step, tol = 1e-5, 1e-5
    pts = 1.5 * np.random.default_rng(0).standard_normal((20, boundary.dim))
    d = boundary.dim

    def rel_err(got, exact):
        return float(np.max(np.abs(got - exact) / (1.0 + np.abs(exact))))

    def central(fn):    # column k: the central difference of fn along axis k
        return np.stack([(fn(pts + e) - fn(pts - e)) / (2 * step) for e in step * np.eye(d)],
                        axis=-1)

    grad = boundary.gradient(pts)
    g_err = rel_err(central(boundary.value), grad)

    h_err = 0.0
    asym = 0.0
    hess = None
    if boundary.hessian is not None:
        hess = boundary.hessian(pts)
        asym = float(np.max(np.abs(hess - np.swapaxes(hess, -1, -2))))
        h_err = rel_err(central(boundary.gradient), hess)

    r_err = 0.0
    ridge = boundary.ridge
    if ridge is not None:
        a = ridge.direction
        s = pts @ a
        r_err = max(rel_err(boundary.value(pts), ridge.profile(s)),
                    rel_err(grad, ridge.d1(s)[:, None] * a))
        if hess is not None:    # ridge.d2 is set exactly when the Hessian is
            r_err = max(r_err, rel_err(hess, ridge.d2(s)[:, None, None]
                                       * np.multiply.outer(a, a)))

    ok = g_err < tol and h_err < tol and asym < tol and r_err < tol
    return BoundaryCheck(max_gradient_rel_err=g_err, max_hessian_rel_err=h_err,
                         max_hessian_asym=asym, max_ridge_rel_err=r_err, ok=ok)


# --------------------------------------------------------------------------
# randomized normalized models
# --------------------------------------------------------------------------

_MAX_REDRAWS = 100

def generate_normalized_model(dim: int, seed: int, horizon: float = 1.0) -> BaselineModel:
    """Draw a random baseline model normalized so coordinate sums behave like d=1.

    Drift entries are U[0,1] rescaled to unit component sum; volatility entries
    are U[-1,1] rescaled so the vector of column sums has unit Euclidean norm.
    Under this normalization the law of sum_i X^i is dimension independent,
    which is what makes the sine-family benchmarks comparable across d.
    Redraws (up to _MAX_REDRAWS times) until the volatility is comfortably
    invertible: lambda_min > 1e-12 * ||vol||_F.
    """
    dim, seed = count(dim, "dim"), count(seed, "seed", low=0)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REDRAWS):
        b_raw = rng.uniform(0.0, 1.0, dim)
        s_raw = rng.uniform(-1.0, 1.0, (dim, dim))
        b_sum = np.abs(b_raw).sum()
        col = s_raw.sum(axis=0)
        s_norm = math.sqrt(float(col @ col))
        if b_sum <= 0.0 or s_norm <= 0.0:
            continue
        vol = s_raw / s_norm
        lam = np.linalg.svd(vol, compute_uv=False)[-1]
        if lam <= 1e-12 * np.linalg.norm(vol):
            continue
        return BaselineModel(drift=b_raw / b_sum, vol=vol, horizon=horizon)
    raise GenerationError(
        f"no invertible normalized volatility found in {_MAX_REDRAWS} draws (dim={dim}, seed={seed})")
