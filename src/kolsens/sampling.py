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
the nested estimator's m1 inner rows, reused at every time node, as one
(m1, d) array: the drawn W(j), overwritten in place with sigma W(j) when the
grid is built. `SampleGrid.displacement` scales and shifts it into node i's
inner pool. Every other read draws its rows again, held ones included, so
memory stays bounded however large m0 gets.

All rows are drawn by one reader, `_read`. It opens each Philox block once
and draws it from its start in sub-blocks of at most TILE doubles into one
reused buffer; rows before the first one asked for are drawn a sub-block at
a time and dropped. `SampleGrid.tiles` reads displacements through it a
sub-block at a time, mixing in that buffer, and `_mix` gives a row the bits
of a whole-array mix whatever rows it is mixed with, so every row read
there has the bits of the same held row. `SampleGrid.projection` reads a
ridge's scalar projection a.(x + displacement) = a.x + tau a.b + sqrt(tau)
W(j).(sigma^T a) the same way, without building any sigma W(j): one dot
product per row of each sub-block, into one reused buffer of at most a
sub-block's values. So no read but the inner pool holds more than a few
TILE-sized arrays, whatever d and m0 are: at d = 100 a value stage peaks at
about 1.4 MB of arrays with a ridge and 2.2 MB without one.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, array, count, real
from .model import BaselineModel

Array = np.ndarray

BLOCK = 1 << 14          # samples per Philox block; fixed, part of the stream contract
TILE = 1 << 17           # doubles (1 MB) per row sub-block; the engine's pairwise tile too


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
    t_start = real(t_start, "t_start")
    t_end = real(t_end, "t_end", low=t_start, above=True)
    n_steps = count(n_steps, "n_steps")
    dt = (t_end - t_start) / n_steps
    elapsed = dt * np.arange(n_steps + 1)
    elapsed[-1] = t_end - t_start
    elapsed.setflags(write=False)
    return TimeGrid(t_start=t_start, t_end=t_end, n_steps=n_steps, dt=dt, elapsed=elapsed)


def _sub_block(d: int) -> int:
    """Rows per sub-block of `_read`: the largest power of two <= BLOCK with rows*d <= TILE.

    Sub-blocks start at multiples of this, which are multiples of the BLAS
    kernel's row unroll, so a ridge-built value's `pts @ a` over one
    sub-block gives each row the bits of one whole-block product.
    """
    return min(BLOCK, 1 << max(0, (TILE // d).bit_length() - 1))


def _buffer(d: int, rows: int) -> Array:
    """A `_read` buffer that serves any range of rows below `rows`."""
    return np.empty((min(_sub_block(d), rows), d))


def _read(seed: int, lo: int, hi: int, buf: Array):
    """Yield (j, W) in order: W holds the standard normal d-vectors of rows [j, j + len(W)).

    The rows [lo, hi) come one sub-block at a time. Each Philox block is
    opened once and drawn from its start in sub-blocks of _sub_block(d)
    rows into buf, row j into buf[j % _sub_block(d)]; W is the view of buf
    that holds the sub-block's rows in [lo, hi), overwritten by the next
    step. The rows of lo's block before lo are drawn and dropped. Pieces of
    a block continue one Philox stream, so every row has the bits of the
    same row of the whole block. buf needs min(_sub_block(d), hi - BLOCK *
    (lo // BLOCK)) rows; `_buffer(d, hi)` has enough.
    """
    if lo >= hi:
        return
    tile = _sub_block(buf.shape[1])
    for b in range(lo // BLOCK, -(-hi // BLOCK)):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, b, 0, 0]))
        for s in range(b * BLOCK, min(hi, (b + 1) * BLOCK), tile):
            e = min(s + tile, hi)
            gen.standard_normal(out=buf[:e - s])
            if e > lo:
                yield max(s, lo), buf[max(s, lo) - s:e - s]


def _mix(rows: Array, vol: Array) -> Array:
    """Overwrite rows W(j) with sigma W(j), one sub-block of rows at a time.

    einsum with optimize=False stays off BLAS, whose threaded reductions are
    not bit-stable across worker counts, and gives each row the bits of a
    whole-array einsum, whatever rows it is mixed with. Its temporary holds
    at most TILE doubles.
    """
    step = _sub_block(rows.shape[1])
    for lo in range(0, rows.shape[0], step):
        part = rows[lo:lo + step]
        part[...] = np.einsum("jk,lk->jl", part, vol, optimize=False)
    return rows


@dataclass
class SampleGrid:
    """The m1 inner sample rows plus the model/grid that turn samples into displacements.

    `_w` holds sigma W(j) of rows [0, m1), mixed in place when the grid is
    built; `displacement` reads it as a node's inner pool. `tiles` and, for a
    ridge, `projection` draw any rows of the m0 again. Every read keeps its
    buffers to itself, so `_w` is the only array a grid holds.
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
        if count(i, "node index i", low=0) > self.grid.n_steps:
            raise ValidationError(f"node index {i} outside 0..{self.grid.n_steps}")
        stop = self.m0 if stop is None else count(stop, "row range stop", low=0)
        if not count(start, "row range start", low=0) <= stop <= self.m0:
            raise ValidationError(f"row range [{start}, {stop}) outside [0, {self.m0}]")
        return stop

    def tiles(self, i: int):
        """The reader `read(start, stop)` of node i's displacement samples, one tile at a time.

        `read` yields (j, rows) in order, as `projection` does: rows holds
        the samples [j, j + len(rows)) of [start, stop), 0 <= start <= stop
        <= m0. The tiles are `_read`'s sub-blocks, of at most _sub_block(d)
        rows (at most TILE doubles), and rows is a view of one buffer,
        reused by every step and every call. Every row, held ones included,
        is drawn again through `_read` and mixed, scaled and shifted in that
        buffer by the ops that made `displacement`'s rows, so it has their
        bits.
        """
        self._check_rows(i, 0, None)
        tau = self.grid.elapsed[i]
        buf = _buffer(self.model.dim, self.m0)

        def read(start: int, stop: int):
            stop = self._check_rows(i, start, stop)
            for j, rows in _read(self.seed, start, stop, buf):
                _mix(rows, self.model.vol)
                rows *= np.sqrt(tau)
                rows += tau * self.model.drift      # the bits of tau*b + sqrt(tau)*row
                yield j, rows

        return read

    def displacement(self, i: int) -> Array:
        """The inner pool at grid node i: b*tau_i + sqrt(tau_i) sigma W(j) for rows [0, m1).

        One fresh (m1, d) array, scaled and shifted from the held rows with
        the ops of `tiles`, so it has the bits of rows [0, m1) of
        `tiles(i)`, through which any range of the m0 rows is read.
        """
        self._check_rows(i, 0, None)
        tau = self.grid.elapsed[i]
        out = self._w * np.sqrt(tau)
        out += tau * self.model.drift
        return out

    def projection(self, i: int, direction: Array, x: Array):
        """The reader `project(start, stop)` of a.(x + displacement) at node i, a = direction.

        `project` yields (j, p) in order, as `tiles` does: p holds rows [j, j
        + len(p)) of [start, stop) of ((sqrt(tau_i) q) + tau_i a.b) + a.x,
        q = W(j).(sigma^T a), the order of `tiles` + x, whose bits it has
        for d = 1 and a = 1. The tiles are `_read`'s sub-blocks, and p is
        a view of one buffer of at most _sub_block(d) values, reused by
        every step and every call. Every row, held ones included, is drawn
        again through `_read` and never mixed. All products are einsums off
        BLAS, so a row's bits do not depend on the rows it is read with.
        `direction` and `x` must be finite vectors of length d.
        """
        self._check_rows(i, 0, None)
        d = self.model.dim
        a, x = array(direction, "direction", (d,)), array(x, "x", (d,))
        tau = self.grid.elapsed[i]
        sig_a = np.einsum("lk,l->k", self.model.vol, a, optimize=False)
        shift_b = tau * np.einsum("k,k->", a, self.model.drift, optimize=False)
        shift_x = np.einsum("k,k->", a, x, optimize=False)
        buf = _buffer(d, self.m0)
        out = np.empty(len(buf))

        def project(start: int, stop: int):
            stop = self._check_rows(i, start, stop)
            for j, w in _read(self.seed, start, stop, buf):
                p = np.einsum("jk,k->j", w, sig_a, optimize=False, out=out[:len(w)])
                p *= np.sqrt(tau)
                p += shift_b
                p += shift_x
                yield j, p

        return project


def draw_samples(model: BaselineModel, grid: TimeGrid, m0: int, m1: int,
                 seed: int) -> SampleGrid:
    """Draw a reproducible sample grid for the nested estimators.

    One standard normal d-vector per sample; only the inner estimator's
    first m1 rows are drawn here and held, in a single (m1, d) array, which
    `SampleGrid.displacement` reads. `SampleGrid.tiles` draws every row it
    reads from its Philox block, so the grid's memory does not grow with m0.
    The grid only fixes the elapsed times at which a read scales a sample; it
    must end at model.horizon, so its terminal displacements have the law of
    X_T.

    Parameters
    ----------
    m0, m1 : outer/inner sample counts, m0 >= m1 >= 1.
    seed : nonnegative master seed (the Philox key).
    """
    m1 = count(m1, "m1")
    m0, seed = count(m0, "m0", low=m1), count(seed, "seed", low=0)
    if grid.t_end != model.horizon:
        raise ValidationError(f"sample grid ends at {grid.t_end}, "
                              f"not at the model horizon {model.horizon}")
    w = np.empty((m1, model.dim))
    for j, rows in _read(seed, 0, m1, _buffer(model.dim, m1)):
        w[j:j + len(rows)] = rows
    return SampleGrid(model=model, grid=grid, m0=m0, m1=m1, seed=seed, _w=w)
