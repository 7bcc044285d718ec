"""Time grids and reproducible Gaussian sample grids.

Sampling is built on numpy's counter-based Philox generator. The master seed
is the Philox key; 2^14-sample blocks are indexed through counter word 1 and
a stream tag (outer pool / independent inner pool) through counter word 2.
Blocks are always generated in full and sliced, which gives two properties
the estimators rely on:

* prefix reuse — the first M1 samples of an M0-sample grid are bit-identical
  to an M1-sample grid drawn with the same seed, for any M1 <= M0;
* scheduling independence — a sample's values depend only on (seed, index,
  tag), never on how many samples are drawn or in what order.

Each sample j owns a single standard normal vector W(j), and its
displacement at elapsed time tau is b*tau + sqrt(tau) * sigma W(j): all time
points are comonotone, as in the estimator's derivation, and a grid holds
m0*d doubles whatever the number of time steps.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import BaselineModel

Array = np.ndarray

BLOCK = 1 << 14          # samples per Philox block; fixed, part of the stream contract
_TAG_OUTER = 0
_TAG_INNER = 1

_MAGIC = b"KSGN"
_HEADER = struct.Struct("<4sIQQQ")   # magic, version, d, m0, seed
_DUMP_VERSION = 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start = t_0 < ... < t_N = t_end with step dt."""

    t_start: float
    t_end: float
    n_steps: int
    dt: float
    nodes: Array
    elapsed: Array       # elapsed[i] = i*dt, with elapsed[-1] pinned to t_end - t_start


def build_time_grid(t_start: float, t_end: float, n_steps: int) -> TimeGrid:
    """Build the uniform time grid used by the estimators."""
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValidationError("grid endpoints must be finite")
    if not t_start < t_end:
        raise ValidationError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    if int(n_steps) != n_steps or n_steps < 1:
        raise ValidationError(f"n_steps must be a positive integer, got {n_steps}")
    n_steps = int(n_steps)
    dt = (t_end - t_start) / n_steps
    elapsed = dt * np.arange(n_steps + 1)
    elapsed[-1] = t_end - t_start
    nodes = t_start + elapsed
    nodes.setflags(write=False)
    elapsed.setflags(write=False)
    return TimeGrid(t_start=float(t_start), t_end=float(t_end), n_steps=n_steps,
                    dt=dt, nodes=nodes, elapsed=elapsed)


def _block(seed: int, index: int, tag: int, shape: tuple) -> Array:
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, index, tag, 0]))
    return gen.standard_normal(shape)


def _draw(seed: int, m: int, tag: int, d: int) -> Array:
    """Draw m standard normal d-vectors, block by block."""
    out = np.empty((m, d))
    for b in range(-(-m // BLOCK)):
        lo = b * BLOCK
        take = min(BLOCK, m - lo)
        out[lo:lo + take] = _block(seed, b, tag, (BLOCK, d))[:take]
    return out


@dataclass
class SampleGrid:
    """Normal draws plus the model/grid needed to turn them into displacements.

    `normals` has shape (m0, d): one standard normal vector per sample.
    `inner_normals` holds the optional independent inner pool (shape (m1, d));
    when absent the inner estimator reuses the outer pool.
    """

    model: BaselineModel
    grid: TimeGrid
    m0: int
    m1: int
    seed: int
    normals: Array
    inner_normals: Array | None = None
    _mixed: Array | None = field(default=None, repr=False)
    _inner_mixed: Array | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.model.dim

    def _mix(self, w: Array) -> Array:
        # sigma W(j) for each row; einsum with optimize=False stays off BLAS,
        # whose threaded reductions are not bit-stable across worker counts.
        return np.einsum("jk,lk->jl", w, self.model.vol, optimize=False)

    def ensure_mixed(self) -> None:
        """Materialize the sigma-mixed normals (idempotent; call before threading)."""
        if self._mixed is not None:
            return
        self._mixed = self._mix(self.normals)
        if self.inner_normals is not None:
            self._inner_mixed = self._mix(self.inner_normals)

    def displacement(self, i: int, *, start: int = 0, stop: int | None = None,
                     pool: str = "outer") -> Array:
        """Displacement samples b*tau_i + sqrt(tau_i) sigma W at grid node i.

        Rows [start, stop) of the requested pool. The inner pool falls back to
        the outer one unless an independent pool was drawn.
        """
        if not 0 <= i <= self.grid.n_steps:
            raise ValidationError(f"node index {i} outside 0..{self.grid.n_steps}")
        if pool not in ("outer", "inner"):
            raise ValidationError(f"unknown pool {pool!r}")
        self.ensure_mixed()
        tau = self.grid.elapsed[i]
        mixed = self._mixed
        if pool == "inner" and self._inner_mixed is not None:
            mixed = self._inner_mixed
        return tau * self.model.drift + np.sqrt(tau) * mixed[start:stop]


def draw_samples(model: BaselineModel, grid: TimeGrid, m0: int, m1: int, seed: int,
                 independent_inner: bool = False) -> SampleGrid:
    """Draw a reproducible sample grid for the nested estimators.

    One standard normal d-vector per outer sample; the grid only fixes the
    elapsed times at which `SampleGrid.displacement` scales it.

    Parameters
    ----------
    m0, m1 : outer/inner sample counts, m0 >= m1 >= 1.
    seed : nonnegative master seed (the Philox key).
    independent_inner : draw the inner pool from its own stream instead of
        reusing the first m1 outer samples.
    """
    if int(m0) != m0 or int(m1) != m1 or m1 < 1 or m0 < m1:
        raise ValidationError(f"need integer m0 >= m1 >= 1, got m0={m0}, m1={m1}")
    if int(seed) != seed or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    m0, m1, seed = int(m0), int(m1), int(seed)
    normals = _draw(seed, m0, _TAG_OUTER, model.dim)
    inner = _draw(seed, m1, _TAG_INNER, model.dim) if independent_inner else None
    return SampleGrid(model=model, grid=grid, m0=m0, m1=m1, seed=seed,
                      normals=normals, inner_normals=inner)


def samples_from_normals(model: BaselineModel, grid: TimeGrid, normals: Array,
                         m1: int, seed: int) -> SampleGrid:
    """Rebuild a SampleGrid around an externally supplied normal block."""
    normals = np.asarray(normals, dtype=np.float64)
    if normals.ndim != 2 or normals.shape[1] != model.dim:
        raise ValidationError(f"normals must have shape (m0, {model.dim})")
    if not 1 <= m1 <= normals.shape[0]:
        raise ValidationError("need 1 <= m1 <= m0")
    return SampleGrid(model=model, grid=grid, m0=normals.shape[0], m1=int(m1),
                      seed=int(seed), normals=normals)


def dump_normals(samples: SampleGrid, path) -> None:
    """Write the normal block for reproducibility audits.

    Layout: header (magic 'KSGN', u32 version, u64 d, u64 m0, u64 seed),
    then m0*d little-endian float64 in row-major order.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _DUMP_VERSION, samples.dim, samples.m0, samples.seed))
        fh.write(np.ascontiguousarray(samples.normals, dtype="<f8").tobytes())


def load_normals(path) -> tuple[Array, dict]:
    """Read back a normal block written by dump_normals; returns (array, header)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        magic, version, d, m0, seed = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValidationError(f"{path}: not a normal-block file (bad magic)")
        if version != _DUMP_VERSION:
            raise ValidationError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expect = m0 * d * 8
    if len(payload) != expect:
        raise ValidationError(f"{path}: payload has {len(payload)} bytes, expected {expect}")
    arr = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(m0, d)
    return arr, {"version": version, "d": int(d), "m0": int(m0), "seed": int(seed)}
