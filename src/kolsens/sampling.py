"""Time grids and reproducible Gaussian sample grids.

Sampling is built on numpy's counter-based Philox generator. The master seed
is the Philox key and 2^14-sample blocks are indexed through counter word 1.
A block is always read from its start (the rows of its prefix have the
bits of the same rows of the whole block), which gives two properties the
estimators rely on:

* prefix reuse — the first M1 samples of an M0-sample grid are bit-identical
  to an M1-sample grid drawn with the same seed, for any M1 <= M0;
* scheduling independence — a sample's values depend only on (seed, index),
  never on how many samples are drawn or in what order.

Each sample j owns a single standard normal vector W(j), and its
displacement at elapsed time tau is b*tau + sqrt(tau) * sigma W(j): all time
points are comonotone, as in the estimator's derivation. A grid holds only
the nested estimator's m1 inner rows, as one (m1, d) array: the drawn W(j),
overwritten in place with sigma W(j) when the grid is built. Rows past m1
are never held: `SampleGrid.displacement` draws them from their own Philox
blocks and mixes them on the spot, so memory stays bounded however large m0
gets. Held and streamed rows go through the same draw and the same per-row
mix, so every row has the same bits whichever way it is read.

`SampleGrid.projection` reads a ridge's scalar projection
a.(x + displacement) = a.x + tau a.b + sqrt(tau) W(j).(sigma^T a) without
building any sigma W(j): it draws every row, held ones included, again from
its Philox block and takes one dot product per row.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import BaselineModel

Array = np.ndarray

BLOCK = 1 << 14          # samples per Philox block; fixed, part of the stream contract


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start = t_0 < ... < t_N = t_end with step dt."""

    t_start: float
    t_end: float
    n_steps: int
    dt: float
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
    elapsed.setflags(write=False)
    return TimeGrid(t_start=float(t_start), t_end=float(t_end), n_steps=n_steps,
                    dt=dt, elapsed=elapsed)


def _draw(seed: int, lo: int, out: Array) -> Array:
    """Fill out with the standard normal d-vectors W(j) of rows lo, lo+1, ...

    Each Philox block the rows touch is read from its start, which gives
    every row the bits of the same row of the whole block: rows from a
    block's start are drawn straight into `out`; rows from within a block
    are drawn after the rows before them, which are dropped.
    """
    hi, d = lo + out.shape[0], out.shape[1]
    for b in range(lo // BLOCK, -(-hi // BLOCK)):
        first, last = max(lo, b * BLOCK), min(hi, (b + 1) * BLOCK)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, b, 0, 0]))
        if first == b * BLOCK:
            gen.standard_normal(out=out[first - lo:last - lo])
        else:
            out[first - lo:last - lo] = gen.standard_normal((last - b * BLOCK, d))[
                first - b * BLOCK:]
    return out


def _mix(rows: Array, vol: Array) -> Array:
    """Overwrite rows W(j) with sigma W(j), one block of rows at a time.

    einsum with optimize=False stays off BLAS, whose threaded reductions are
    not bit-stable across worker counts, and gives each row the bits of a
    whole-array einsum, whatever rows it is mixed with.
    """
    for lo in range(0, rows.shape[0], BLOCK):
        part = rows[lo:lo + BLOCK]
        part[...] = np.einsum("jk,lk->jl", part, vol, optimize=False)
    return rows


@dataclass
class SampleGrid:
    """The m1 inner sample rows plus the model/grid that turn samples into displacements.

    `_w` holds sigma W(j) of rows [0, m1), mixed in place when the grid is
    built; rows [m1, m0) are drawn and mixed only when `displacement` reads
    them. Read the samples through `displacement`, or through `projection`
    for a ridge.
    """

    model: BaselineModel
    grid: TimeGrid
    m0: int
    m1: int
    seed: int
    _w: Array = field(repr=False)
    _mixed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.ensure_mixed()

    def ensure_mixed(self) -> None:
        """Mix the held rows in place into sigma W(j), once; construction calls it."""
        if not self._mixed:
            _mix(self._w, self.model.vol)
            self._mixed = True

    def _check_rows(self, i: int, start: int, stop: int | None) -> int:
        """The checked row range's stop, for node i and rows [start, stop)."""
        if not 0 <= i <= self.grid.n_steps:
            raise ValidationError(f"node index {i} outside 0..{self.grid.n_steps}")
        stop = self.m0 if stop is None else stop
        if not 0 <= start <= stop <= self.m0:
            raise ValidationError(f"row range [{start}, {stop}) outside [0, {self.m0}]")
        return stop

    def displacement(self, i: int, *, start: int = 0, stop: int | None = None) -> Array:
        """Displacement samples b*tau_i + sqrt(tau_i) sigma W at grid node i.

        Rows [start, stop) of the m0 samples, 0 <= start <= stop <= m0; a
        fresh array. Rows below m1 come from the held array, the rest are
        drawn from their Philox blocks and mixed on this call, with the same
        bits. The nested estimator's inner samples are rows [0, m1).
        """
        stop = self._check_rows(i, start, stop)
        mid = min(max(start, self.m1), stop)
        rows = np.empty((stop - start, self.model.dim))
        rows[:mid - start] = self._w[start:mid]
        if mid < stop:
            _mix(_draw(self.seed, mid, rows[mid - start:]), self.model.vol)
        tau = self.grid.elapsed[i]
        rows *= np.sqrt(tau)
        rows += tau * self.model.drift      # the bits of tau*b + sqrt(tau)*row
        return rows

    def projection(self, i: int, direction: Array, x: Array):
        """The reader `project(start, stop)` of a.(x + displacement) at node i, a = direction.

        It gives rows [start, stop) of ((sqrt(tau_i) p) + tau_i a.b) + a.x,
        p = W(j).(sigma^T a): the order of `displacement` + x, whose bits it
        has for d = 1 and a = 1. Every row, held ones included, is drawn again
        into one reused buffer and never mixed. All products are einsums off
        BLAS, so a row's bits do not depend on the rows it is read with.
        """
        self._check_rows(i, 0, None)
        a, tau = np.asarray(direction, dtype=float), self.grid.elapsed[i]
        sig_a = np.einsum("lk,l->k", self.model.vol, a, optimize=False)
        shift_b = tau * np.einsum("k,k->", a, self.model.drift, optimize=False)
        shift_x = np.einsum("k,k->", a, x, optimize=False)
        buf = np.empty((min(BLOCK, self.m0), self.model.dim))

        def project(start: int, stop: int) -> Array:
            stop = self._check_rows(i, start, stop)
            n = stop - start
            w = _draw(self.seed, start, buf[:n] if n <= len(buf) else np.empty((n, len(a))))
            p = np.einsum("jk,k->j", w, sig_a, optimize=False)
            p *= np.sqrt(tau)
            p += shift_b
            p += shift_x
            return p

        return project


def draw_samples(model: BaselineModel, grid: TimeGrid, m0: int, m1: int,
                 seed: int) -> SampleGrid:
    """Draw a reproducible sample grid for the nested estimators.

    One standard normal d-vector per sample; only the inner estimator's
    first m1 rows are drawn here and held, in a single (m1, d) array.
    `SampleGrid.displacement` streams rows [m1, m0) from their Philox blocks,
    so the grid's memory does not grow with m0. The grid only fixes the
    elapsed times at which `displacement` scales a sample; it must end at
    model.horizon, so its terminal displacements have the law of X_T.

    Parameters
    ----------
    m0, m1 : outer/inner sample counts, m0 >= m1 >= 1.
    seed : nonnegative master seed (the Philox key).
    """
    if int(m0) != m0 or int(m1) != m1 or m1 < 1 or m0 < m1:
        raise ValidationError(f"need integer m0 >= m1 >= 1, got m0={m0}, m1={m1}")
    if int(seed) != seed or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    if grid.t_end != model.horizon:
        raise ValidationError(f"sample grid ends at {grid.t_end}, "
                              f"not at the model horizon {model.horizon}")
    m0, m1, seed = int(m0), int(m1), int(seed)
    return SampleGrid(model=model, grid=grid, m0=m0, m1=m1, seed=seed,
                      _w=_draw(seed, 0, np.empty((m1, model.dim))))
