import threading
import tracemalloc

import numpy as np
import pytest

from kolsens import BaselineModel, ValidationError, build_time_grid, draw_samples
from kolsens.sampling import BLOCK, TILE, _read, _sub_block


def _philox_normals(seed, m, d):
    """The documented stream: block b of BLOCK rows is Philox(key=seed, counter word 1 = b)."""
    blocks = [np.random.Generator(np.random.Philox(key=seed, counter=[0, b, 0, 0]))
              .standard_normal((BLOCK, d)) for b in range(-(-m // BLOCK))]
    return np.concatenate(blocks)[:m]


def _centered_model(d, seed):
    # zero drift and horizon 1: displacement at the last node is sigma W exactly
    vol = np.eye(d) + 0.3 * np.random.default_rng(seed).standard_normal((d, d))
    return BaselineModel(drift=np.zeros(d), vol=vol, horizon=1.0)


def _tiled(s, i, start=0, stop=None):
    """Rows [start, stop) of node i's `tiles` reader, copied in order into one array."""
    parts = []
    for j, rows in s.tiles(i)(start, stop):
        assert j == start + sum(map(len, parts))
        parts.append(rows.copy())
    return np.concatenate(parts) if parts else np.empty((0, s.model.dim))


@pytest.fixture
def model2():
    return BaselineModel(drift=np.array([0.3, -0.2]),
                         vol=np.array([[1.0, 0.2], [0.0, 0.8]]), horizon=1.0)


def test_time_grid_basics():
    g = build_time_grid(0.25, 1.25, 4)
    assert g.dt == pytest.approx(0.25)
    assert g.n_steps == 4
    assert np.allclose(g.elapsed, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.elapsed[0] == 0.0
    assert g.elapsed[-1] == pytest.approx(g.t_end - g.t_start)


@pytest.mark.parametrize("args", [
    (0.0, 0.0, 4), (1.0, 0.5, 4), (0.0, 1.0, 0), (0.0, 1.0, -3),
    (0.0, np.inf, 4), (np.nan, 1.0, 4),
])
def test_time_grid_validation(args):
    with pytest.raises(ValidationError):
        build_time_grid(*args)


def test_draw_samples_validation(model2):
    g = build_time_grid(0.0, 1.0, 3)
    with pytest.raises(ValidationError):
        draw_samples(model2, g, 10, 20, 0)        # m1 > m0
    with pytest.raises(ValidationError):
        draw_samples(model2, g, 10, 0, 0)         # m1 < 1
    with pytest.raises(ValidationError):
        draw_samples(model2, g, 10, 5, -1)        # negative seed


def test_same_seed_reproduces_bitwise(model2):
    g = build_time_grid(0.0, 1.0, 5)
    a = draw_samples(model2, g, 2048, 256, seed=9)
    b = draw_samples(model2, g, 2048, 256, seed=9)
    for i in (1, 3, 5):
        assert np.array_equal(a.displacement(i), b.displacement(i))
        assert np.array_equal(_tiled(a, i), _tiled(b, i))
    c = draw_samples(model2, g, 2048, 256, seed=10)
    assert not np.array_equal(a.displacement(5), c.displacement(5))
    assert not np.array_equal(_tiled(a, 5)[256:], _tiled(c, 5)[256:])


def test_prefix_property_across_sample_counts(model2):
    # enlarging the pool must keep the first rows identical (monotone reuse)
    g = build_time_grid(0.0, 1.0, 4)
    small = draw_samples(model2, g, 1000, 100, seed=3)
    large = draw_samples(model2, g, 50_000, 100, seed=3)
    for i in (1, 2, 4):
        assert np.array_equal(_tiled(small, i), _tiled(large, i, 0, 1000))


def test_displacement_slices_match_full(model2):
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model2, g, 5000, 500, seed=5)
    full = _tiled(s, 3)
    assert np.array_equal(_tiled(s, 3, 1200, 3400), full[1200:3400])


def test_scaled_displacement_closed_form(model2):
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model2, g, 4000, 400, seed=1)
    mixed = _philox_normals(1, 4000, 2) @ model2.vol.T
    for i in (0, 1, 4):
        tau = g.elapsed[i]
        expect = tau * model2.drift + np.sqrt(tau) * mixed
        assert np.allclose(_tiled(s, i), expect, atol=1e-12)
    assert np.array_equal(_tiled(s, 0), np.zeros((4000, 2)))


def test_scaled_mode_is_comonotone_in_time(model2):
    # one driving normal per sample: displacements at different nodes are
    # perfectly rank-correlated along any fixed mixed direction
    g = build_time_grid(0.0, 1.0, 8)
    s = draw_samples(model2, g, 512, 64, seed=2)
    for read in (s.displacement, lambda i: _tiled(s, i)):
        a = (read(3) - g.elapsed[3] * model2.drift)[:, 0]
        b = (read(7) - g.elapsed[7] * model2.drift)[:, 0]
        assert np.array_equal(np.argsort(a), np.argsort(b))


def test_displacement_moments(model2):
    g = build_time_grid(0.0, 1.0, 2)
    s = draw_samples(model2, g, 400_000, 1, seed=8)
    for i in (1, 2):
        tau = g.elapsed[i]
        disp = _tiled(s, i)
        assert np.allclose(disp.mean(axis=0), tau * model2.drift, atol=4e-3)
        cov = np.cov(disp.T)
        assert np.allclose(cov, tau * model2.vol @ model2.vol.T, atol=6e-3)


def test_node_index_bounds(model2):
    g = build_time_grid(0.0, 1.0, 3)
    s = draw_samples(model2, g, 100, 10, seed=0)
    with pytest.raises(ValidationError):
        s.displacement(4)
    with pytest.raises(ValidationError):
        s.displacement(-1)
    with pytest.raises(ValidationError):
        s.tiles(4)


def test_scheduling_independence_of_block_layout(model2):
    # drawing a pool dwarfing one internal block and a pool inside one block
    # must agree on the shared prefix, whatever the block boundaries are
    g = build_time_grid(0.0, 1.0, 2)
    tiny = draw_samples(model2, g, 17, 3, seed=21)
    big = draw_samples(model2, g, BLOCK * 2 + 5, 3, seed=21)
    for i in (1, 2):
        assert np.array_equal(_tiled(tiny, i), _tiled(big, i, 0, 17))


def test_grid_holds_one_sample_array():
    # only the m1 inner rows are held; reading every row keeps it that way
    d, m0, m1 = 7, BLOCK * 2 + 11, 50
    s = draw_samples(_centered_model(d, 0), build_time_grid(0.0, 1.0, 3), m0, m1, seed=4)
    s.ensure_mixed()
    s.displacement(2)
    _tiled(s, 2)
    held = sum(v.nbytes for v in vars(s).values() if isinstance(v, np.ndarray))
    assert held == m1 * d * 8


@pytest.mark.parametrize("rows", [
    {"start": -2}, {"stop": 101}, {"stop": 500}, {"start": 7, "stop": 6},
    {"start": 101}, {"stop": -1},
])
def test_displacement_refuses_bad_row_ranges(model2, rows):
    s = draw_samples(model2, build_time_grid(0.0, 1.0, 3), 100, 10, seed=0)
    with pytest.raises(ValidationError, match="row range"):
        _tiled(s, 3, **rows)


def test_displacement_edge_row_ranges(model2):
    s = draw_samples(model2, build_time_grid(0.0, 1.0, 3), 100, 10, seed=0)
    full = _tiled(s, 3)
    assert full.shape == (100, 2)
    assert _tiled(s, 3, start=100).shape == (0, 2)
    assert _tiled(s, 3, start=4, stop=4).shape == (0, 2)
    for start, stop in ((0, 10), (3, 10), (10, 100), (9, 11), (99, 100)):
        assert np.array_equal(_tiled(s, 3, start, stop), full[start:stop])


def _projected(project, start, stop):
    """Rows [start, stop) of a projection reader: its tiles, copied in order into one array."""
    parts = []
    for j, p in project(start, stop):
        assert j == start + sum(map(len, parts))
        parts.append(p.copy())
    return np.concatenate(parts) if parts else np.empty(0)


def test_projection_reads_any_rows_with_the_same_bits():
    model = _centered_model(3, 5)
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model, g, BLOCK * 2 + 40, 30, seed=8)
    a, x = np.array([1.0, -0.5, 2.0]), np.array([0.1, 0.2, -0.3])
    project = s.projection(3, a, x)
    whole = _projected(project, 0, s.m0)
    for start, stop in ((0, 30), (29, 31), (BLOCK - 5, BLOCK + 7), (BLOCK, 2 * BLOCK),
                        (2 * BLOCK + 39, 2 * BLOCK + 40), (7, 7)):
        assert np.array_equal(_projected(project, start, stop), whole[start:stop])
    with pytest.raises(ValidationError, match="row range"):
        _projected(project, 0, s.m0 + 1)


def test_projection_tiles_are_sub_blocks_of_one_buffer():
    # like `tiles`, the reader yields `_read`'s sub-blocks, each a view of one
    # buffer of at most _sub_block(d) values that every step and call reuses
    d = 50
    s = draw_samples(_centered_model(d, 2), build_time_grid(0.0, 1.0, 2), 2 * BLOCK + 9, 4,
                     seed=1)
    project, sub = s.projection(2, np.ones(d), np.zeros(d)), _sub_block(d)
    seen = []
    for start, stop in ((3, 3 * sub + 5), (BLOCK - 2, s.m0)):
        for j, p in project(start, stop):
            assert 0 < len(p) <= sub and (j == start or j % sub == 0)
            seen.append(p)
    assert len(seen) > 4 and all(np.shares_memory(p, seen[0]) for p in seen)


def test_projection_of_one_dimension_has_the_displacement_bits():
    model = BaselineModel(drift=np.array([0.7]), vol=np.array([[1.3]]), horizon=1.0)
    s = draw_samples(model, build_time_grid(0.0, 1.0, 3), BLOCK + 9, 5, seed=2)
    x = np.array([0.25])
    for i in (1, 3):
        assert np.array_equal(_projected(s.projection(i, np.ones(1), x), 0, s.m0),
                              (_tiled(s, i) + x)[:, 0])


@pytest.mark.parametrize("direction, x", [
    (np.ones(3), np.zeros(2)), (np.ones(2), np.zeros(1)), (np.ones((2, 1)), np.zeros(2)),
    (np.array([1.0, np.nan]), np.zeros(2)), (np.ones(2), np.array([0.0, np.inf])),
])
def test_projection_refuses_a_direction_or_point_that_is_not_a_finite_d_vector(model2, direction, x):
    s = draw_samples(model2, build_time_grid(0.0, 1.0, 3), 100, 10, seed=0)
    with pytest.raises(ValidationError, match="finite vector of length 2"):
        s.projection(3, direction, x)


def _read_all(seed, lo, hi, buf):
    parts, tile = [], _sub_block(buf.shape[1])
    for j, w in _read(seed, lo, hi, buf):
        assert j == lo + sum(map(len, parts)) and 0 < len(w) <= tile
        assert (j + len(w)) % tile == 0 or j + len(w) == hi     # sub-block edges
        parts.append(w.copy())
    return np.concatenate(parts) if parts else np.empty((0, buf.shape[1]))


@pytest.mark.parametrize("d", [1, 3, 50, 100])
def test_reader_has_the_bits_of_whole_block_draws(d):
    # rows read in sub-blocks, from any start inside a Philox block or a
    # sub-block, equal the rows of whole-block standard_normal draws;
    # m0 is not a multiple of BLOCK
    m0, sub = 2 * BLOCK + 77, _sub_block(d)
    want = _philox_normals(3, m0, d)
    buf = np.empty((min(sub, m0), d))
    ranges = [(0, m0), (5, sub + 3), (sub, 2 * sub), (BLOCK - 1, BLOCK + 1),
              (BLOCK + sub + 7, 2 * BLOCK + 11), (m0 - 1, m0), (9, 9)]
    for lo, hi in ranges:
        assert np.array_equal(_read_all(3, lo, hi, buf), want[lo:hi])
    # every read path has these bits: held and streamed rows, mixed or projected
    model = _centered_model(d, d)
    s = draw_samples(model, build_time_grid(0.0, 1.0, 2), m0, 40, seed=3)
    mixed = np.einsum("jk,lk->jl", want, model.vol, optimize=False)
    sig_a = np.einsum("lk,l->k", model.vol, np.ones(d), optimize=False)
    project = s.projection(2, np.ones(d), np.zeros(d))
    for lo, hi in ranges + [(39, 41)]:
        assert np.array_equal(_tiled(s, 2, lo, hi), mixed[lo:hi])
        assert np.array_equal(_projected(project, lo, hi),
                              np.einsum("jk,k->j", want[lo:hi], sig_a, optimize=False))


def test_displacement_past_a_block_start_holds_one_sub_block():
    # reading rows BLOCK - 1 and BLOCK draws the BLOCK - 1 rows before them
    # one sub-block at a time: the reader holds its buffer and the mix
    # temporary, at most TILE doubles each, not a (BLOCK - 1)-row prefix
    d = 50
    s = draw_samples(_centered_model(d, 0), build_time_grid(0.0, 1.0, 2), 2 * BLOCK, 1, seed=5)
    tracemalloc.start()
    try:
        rows = _tiled(s, 2, BLOCK - 1, BLOCK + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, _tiled(s, 2)[BLOCK - 1:BLOCK + 1])
    assert peak <= 3 * 8 * TILE < 8 * (BLOCK - 1) * d


@pytest.mark.parametrize("d", [1, 50])
def test_in_place_mix_equals_whole_array_einsum(d):
    # the block-by-block in-place mix gives every row the bits of one einsum
    # over the whole raw draw, across several Philox blocks
    model = _centered_model(d, d)
    m0 = BLOCK * 2 + 123
    g = build_time_grid(0.0, 1.0, 2)
    s = draw_samples(model, g, m0, 10, seed=6)
    expect = np.einsum("jk,lk->jl", _philox_normals(6, m0, d), model.vol, optimize=False)
    assert g.elapsed[-1] == 1.0
    assert (_tiled(s, 2) == expect).all()


@pytest.mark.parametrize("d", [1, 3, 50])
@pytest.mark.parametrize("m1", ["one", "past a sub-block", "m0"])
def test_inner_pool_has_the_bits_of_the_tiles(d, m1):
    # the held rows, scaled and shifted, equal the same rows drawn again and
    # mixed in the reader's buffer: at m1 = 1, at an m1 that ends inside a
    # sub-block and at m1 = m0
    sub = _sub_block(d)
    m0 = 2 * sub + 7
    m1 = {"one": 1, "past a sub-block": sub + 3, "m0": m0}[m1]
    vol = np.eye(d) + 0.3 * np.random.default_rng(d).standard_normal((d, d))
    model = BaselineModel(drift=np.linspace(-0.3, 0.4, d), vol=vol, horizon=1.0)
    s = draw_samples(model, build_time_grid(0.0, 1.0, 3), m0, m1, seed=7)
    for i in (0, 1, 3):
        pool = s.displacement(i)
        assert pool.shape == (m1, d)
        assert np.array_equal(pool, _tiled(s, i, 0, m1))


def test_concurrent_first_use_mixes_once():
    # a grid is mixed when it is built, so threads racing into their first
    # displacement call read an already-mixed grid and all see the serial
    # result: a second mix of any row would change its bits; each thread's
    # tiles reader streams all m0 rows beside them and sees the serial rows
    model, g = _centered_model(10, 3), build_time_grid(0.0, 1.0, 4)
    m0, n_threads = BLOCK * 4, 8
    first = draw_samples(model, g, m0, 100, seed=12)
    serial = first.displacement(3), _tiled(first, 3)
    for _ in range(3):
        s = draw_samples(model, g, m0, 100, seed=12)
        start = threading.Barrier(n_threads)
        got = [None] * n_threads

        def first_use(k):
            start.wait()
            got[k] = s.displacement(3), _tiled(s, 3)

        threads = [threading.Thread(target=first_use, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for pool, rows in got:
            assert np.array_equal(pool, serial[0])
            assert np.array_equal(rows, serial[1])
