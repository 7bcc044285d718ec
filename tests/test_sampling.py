import numpy as np
import pytest

from kolsens import (BaselineModel, ValidationError, build_time_grid, draw_samples,
                     dump_normals, load_normals, samples_from_normals)


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
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.displacement(3), b.displacement(3))
    c = draw_samples(model2, g, 2048, 256, seed=10)
    assert not np.array_equal(a.normals, c.normals)


def test_prefix_property_across_sample_counts(model2):
    # enlarging the pool must keep the first rows identical (monotone reuse)
    g = build_time_grid(0.0, 1.0, 4)
    small = draw_samples(model2, g, 1000, 100, seed=3)
    large = draw_samples(model2, g, 50_000, 100, seed=3)
    assert np.array_equal(small.normals, large.normals[:1000])
    assert np.array_equal(small.displacement(2), large.displacement(2, stop=1000))


def test_displacement_slices_match_full(model2):
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model2, g, 5000, 500, seed=5)
    full = s.displacement(3)
    assert np.array_equal(s.displacement(3, start=1200, stop=3400), full[1200:3400])


def test_scaled_displacement_closed_form(model2):
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model2, g, 4000, 400, seed=1)
    for i in (0, 1, 4):
        tau = g.elapsed[i]
        expect = tau * model2.drift + np.sqrt(tau) * (s.normals @ model2.vol.T)
        assert np.allclose(s.displacement(i), expect, atol=1e-12)
    assert np.array_equal(s.displacement(0), np.zeros((4000, 2)))


def test_scaled_mode_is_comonotone_in_time(model2):
    # one driving normal per sample: displacements at different nodes are
    # perfectly rank-correlated along any fixed mixed direction
    g = build_time_grid(0.0, 1.0, 8)
    s = draw_samples(model2, g, 512, 64, seed=2)
    a = (s.displacement(3) - g.elapsed[3] * model2.drift)[:, 0]
    b = (s.displacement(7) - g.elapsed[7] * model2.drift)[:, 0]
    assert np.array_equal(np.argsort(a), np.argsort(b))


def test_displacement_moments(model2):
    g = build_time_grid(0.0, 1.0, 2)
    s = draw_samples(model2, g, 400_000, 1, seed=8)
    for i in (1, 2):
        tau = g.elapsed[i]
        disp = s.displacement(i)
        assert np.allclose(disp.mean(axis=0), tau * model2.drift, atol=4e-3)
        cov = np.cov(disp.T)
        assert np.allclose(cov, tau * model2.vol @ model2.vol.T, atol=6e-3)


def test_independent_inner_pool_differs_and_is_seeded(model2):
    g = build_time_grid(0.0, 1.0, 3)
    s = draw_samples(model2, g, 1000, 200, seed=11, independent_inner=True)
    outer = s.displacement(2, stop=200)
    inner = s.displacement(2, stop=200, pool="inner")
    assert not np.array_equal(outer, inner)
    s2 = draw_samples(model2, g, 1000, 200, seed=11, independent_inner=True)
    assert np.array_equal(inner, s2.displacement(2, stop=200, pool="inner"))
    # without the flag the inner pool is the outer prefix
    s3 = draw_samples(model2, g, 1000, 200, seed=11)
    assert np.array_equal(s3.displacement(2, stop=200, pool="inner"),
                          s3.displacement(2, stop=200))


def test_node_index_bounds(model2):
    g = build_time_grid(0.0, 1.0, 3)
    s = draw_samples(model2, g, 100, 10, seed=0)
    with pytest.raises(ValidationError):
        s.displacement(4)
    with pytest.raises(ValidationError):
        s.displacement(-1)


def test_dump_load_roundtrip(tmp_path, model2):
    g = build_time_grid(0.0, 1.0, 4)
    s = draw_samples(model2, g, 3000, 300, seed=13)
    path = tmp_path / "normals.bin"
    dump_normals(s, path)
    arr, header = load_normals(path)
    assert header == {"version": 1, "d": 2, "m0": 3000, "seed": 13}
    assert np.array_equal(arr, s.normals)
    rebuilt = samples_from_normals(model2, g, arr, 300, seed=13)
    assert np.array_equal(rebuilt.displacement(3), s.displacement(3))


def test_load_normals_rejects_corrupt_files(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        load_normals(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(b"KS")
    with pytest.raises(ValidationError):
        load_normals(short)


def test_scheduling_independence_of_block_layout(model2):
    # drawing a pool dwarfing one internal block and a pool inside one block
    # must agree on the shared prefix, whatever the block boundaries are
    g = build_time_grid(0.0, 1.0, 2)
    tiny = draw_samples(model2, g, 17, 3, seed=21)
    big = draw_samples(model2, g, (1 << 14) * 2 + 5, 3, seed=21)
    assert np.array_equal(tiny.normals, big.normals[:17])
