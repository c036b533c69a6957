import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muse import Band, GridSpec, SpectrumGrid, total_spectrum_space, validate_system
from muse.grid import MAX_CELLS

from helpers import reference_grid, reference_params, region_link_system, traced_peak

SQRT3 = math.sqrt(3.0)


def independent_region_count(width, height, side):
    """Count lattice hexagons overlapping the region by direct enumeration."""
    total = 0
    i = 0
    while 1.5 * side * i - side <= height:
        y = 1.5 * side * i
        if y + side >= 0.0:
            off = 0.0 if i % 2 == 0 else -SQRT3 * side / 2.0
            j = math.ceil((-SQRT3 * side / 2.0 - off) / (SQRT3 * side)) - 2
            while True:
                x = off + SQRT3 * side * j
                if x - SQRT3 * side / 2.0 > width:
                    break
                if x + SQRT3 * side / 2.0 >= 0.0:
                    total += 1
                j += 1
        i += 1
    return total


def test_reference_region_count():
    grid = SpectrumGrid(reference_grid(100.0))
    assert grid.region_count == 676


def test_cell_count_product_rule():
    spec = reference_grid(100.0, horizon=2, bands=(Band(6e8, 6e6), Band(6.1e8, 6e6), Band(6.2e8, 6e6)))
    grid = SpectrumGrid(spec)
    assert grid.cell_count == 676 * 2 * 3


@pytest.mark.parametrize("side", [50.0, 100.0, 137.0, 230.0])
def test_count_matches_independent_enumeration(side):
    grid = SpectrumGrid(reference_grid(side))
    assert grid.region_count == independent_region_count(4300.0, 3700.0, side)


def test_halving_side_roughly_quadruples_count():
    a100 = SpectrumGrid(reference_grid(100.0)).region_count
    a50 = SpectrumGrid(reference_grid(50.0)).region_count
    assert abs(a50 / a100 - 4.0) < 0.4


def test_deterministic_tessellation():
    a = SpectrumGrid(reference_grid(100.0))
    b = SpectrumGrid(reference_grid(100.0))
    n = a.region_count
    assert np.array_equal(a.region_centroids(0, n), b.region_centroids(0, n))
    assert np.array_equal(a.points(0, n), b.points(0, n))
    assert all(a.cell(chi, 0, 0) == b.cell(chi, 0, 0) for chi in (0, 1, 2, n - 1))


def test_total_spectrum_space_values():
    params = reference_params()
    assert total_spectrum_space(reference_grid(100.0), params) == pytest.approx(676.0, rel=1e-12)
    spec = reference_grid(100.0, horizon=2, bands=(Band(6e8, 6e6),) * 3)
    assert total_spectrum_space(spec, params) == pytest.approx(4056.0, rel=1e-12)

    class HalfWatt:
        p_cmax = 0.5

    ten_cells = GridSpec(region_width=690.0, region_height=590.0, hex_side=100.0)
    assert SpectrumGrid(ten_cells).region_count == 25
    assert total_spectrum_space(ten_cells, HalfWatt()) == pytest.approx(12.5, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    width=st.floats(200.0, 4300.0),
    height=st.floats(200.0, 3700.0),
    side=st.floats(10.0, 60.0),
    horizon=st.integers(1, 8),
    n_bands=st.integers(1, 5),
    p_cmax=st.floats(1e-6, 1e6),
)
def test_total_spectrum_space_is_p_cmax_times_cell_count_bitwise(width, height, side, horizon, n_bands, p_cmax):
    """The one formula ``system_report`` and the CLI's percentages use too."""
    spec = GridSpec(region_width=width, region_height=height, hex_side=side, horizon=horizon,
                    bands=(Band(6e8, 6e6),) * n_bands)
    params = types.SimpleNamespace(p_cmax=p_cmax)
    assert total_spectrum_space(spec, params) == p_cmax * SpectrumGrid(spec).cell_count


def test_degenerate_region_rejected():
    with pytest.raises(ValueError, match="degenerate grid"):
        SpectrumGrid(GridSpec(region_width=150.0, region_height=150.0, hex_side=100.0))


def test_locate_and_vertices():
    grid = SpectrumGrid(reference_grid(100.0))
    centroids = grid.region_centroids(0, grid.region_count)
    for chi in (0, 137, 675):
        assert grid.locate(centroids[chi]) == chi
        v = grid.hex_vertices(chi)
        d = np.hypot(v[:, 0] - centroids[chi][0], v[:, 1] - centroids[chi][1])
        assert np.allclose(d, 100.0, rtol=1e-12)
    with pytest.raises(ValueError):
        grid.locate((1e6, 1e6))


@pytest.mark.parametrize("point", [(math.inf, 10.0), (-math.inf, 10.0), (10.0, math.inf), (math.nan, 10.0), (10.0, math.nan)])
def test_locate_rejects_non_finite_points(point):
    with pytest.raises(ValueError, match="not finite"):
        SpectrumGrid(reference_grid(100.0)).locate(point)


def test_locate_fuzz_region_and_boundaries():
    from muse.grid import _point_in_hex

    rng = np.random.default_rng(0)
    for side in (37.0, 100.0):
        grid = SpectrumGrid(reference_grid(side))
        centroids = grid.region_centroids(0, grid.region_count)
        pts = np.column_stack([rng.uniform(0, 4300, 2000), rng.uniform(0, 3700, 2000)])
        for p in pts:
            c = centroids[grid.locate(p)]
            assert _point_in_hex(p[0] - c[0], p[1] - c[1], side, 1e-9 * side)
        # vertices sit on shared corners; locate must resolve them without error
        for chi in rng.integers(0, grid.region_count, 50):
            for p in grid.hex_vertices(int(chi)):
                if 0 <= p[0] <= 4300 and 0 <= p[1] <= 3700:
                    c = centroids[grid.locate(p)]
                    assert _point_in_hex(p[0] - c[0], p[1] - c[1], side, 1e-6 * side)


def test_sample_point_policies():
    """``sample_offset`` alone picks the sample point: None is the centroid."""
    grid = SpectrumGrid(reference_grid(100.0, sample_offset=(30.0, -20.0)))
    n = grid.region_count
    assert np.allclose(grid.points(0, n) - grid.region_centroids(0, n), [30.0, -20.0])
    centroid = SpectrumGrid(reference_grid(100.0))
    assert centroid.points(0, n).tobytes() == centroid.region_centroids(0, n).tobytes()
    with pytest.raises(ValueError, match="outside the unit hexagon"):
        reference_grid(100.0, sample_offset=(100.0, 100.0))
    with pytest.raises(TypeError):
        reference_grid(100.0, sample_point_policy="centroid", sample_offset=(5.0, 5.0))


def test_neighbors_share_edges():
    grid = SpectrumGrid(reference_grid(100.0))
    interior = grid.locate((2000.0, 2000.0))
    nb = grid.neighbors(interior)
    assert len(nb) == 6
    pitch = SQRT3 * 100.0
    centroids = grid.region_centroids(0, grid.region_count)
    for other in nb:
        d = math.hypot(*(centroids[other] - centroids[interior]))
        assert d == pytest.approx(pitch, rel=1e-9)
    corner_nb = grid.neighbors(0)
    assert 2 <= len(corner_nb) <= 4


@settings(max_examples=60, deadline=None)
@given(
    side=st.floats(1.0, 200.0),
    columns=st.floats(SQRT3, 12.0),  # region width in hexagon sides
    rows=st.floats(2.0, 12.0),  # region height in hexagon sides
)
@example(side=100.0, columns=SQRT3, rows=2.0)  # the smallest region a grid accepts: three rows
@example(side=100.0, columns=6.9, rows=3.5)  # four rows
@example(side=37.0, columns=7.0 * SQRT3, rows=5.0)  # five rows, width a whole number of columns
def test_neighbors_match_brute_force(side, columns, rows):
    grid = SpectrumGrid(GridSpec(region_width=columns * side, region_height=rows * side, hex_side=side))
    c = grid.region_centroids(0, grid.region_count)
    d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    near = (d <= 1.001 * SQRT3 * side) & ~np.eye(grid.region_count, dtype=bool)
    for chi in range(grid.region_count):
        assert grid.neighbors(chi) == np.flatnonzero(near[chi]).tolist()
    for outside in (-1, grid.region_count):
        with pytest.raises(IndexError):
            grid.neighbors(outside)


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(region_width=0.0, region_height=100.0, hex_side=10.0)
    with pytest.raises(ValueError):
        reference_grid(100.0, horizon=0)
    with pytest.raises(ValueError):
        reference_grid(100.0, bands=())
    with pytest.raises(ValueError):
        reference_grid(-5.0)


def test_grid_size_cap():
    reference_grid(1.0)  # the 1 m sweep grid, 6.1M regions
    reference_grid(2.0, bands=(Band(6e8, 6e6), Band(6.1e8, 6e6), Band(6.2e8, 6e6)))
    for spec in (
        dict(hex_side=0.001),
        dict(hex_side=5e-324),
        dict(hex_side=100.0, horizon=MAX_CELLS),
        dict(hex_side=100.0, horizon=10 ** 400),
    ):
        with pytest.raises(ValueError, match="grid too large"):
            reference_grid(**spec)


def test_cell_rejects_indices_outside_the_grid():
    grid = SpectrumGrid(reference_grid(100.0, horizon=2, bands=(Band(6e8, 6e6), Band(6.1e8, 6e6))))
    assert grid.cell(675, 1, 1).sample_point == tuple(grid.points(675, 676)[0])
    for args, message in (
        ((676, 0, 0), "region index 676"),
        ((-1, 0, 0), "region index -1"),
        ((0, 2, 0), "time index 2"),
        ((0, -1, 0), "time index -1"),
        ((0, 0, 2), "band index 2"),
        ((0, 0, -1), "band index -1"),
        ((676, 2, 2), "region index 676"),  # region, then band, then time
        ((0, 2, 2), "band index 2"),
    ):
        with pytest.raises(IndexError, match=f"^{message} out of range$"):
            grid.cell(*args)


def lattice_built_whole(grid):
    """Centroids and sample points built for every region at once from the
    row tables: each row repeated over its regions, then the same elementwise
    expressions as ``SpectrumGrid.points``."""
    s = grid.spec.hex_side
    row = np.repeat(np.arange(grid.row_count), grid._row_counts)
    col = np.arange(grid.region_count) - np.repeat(grid._row_start[:-1] - grid._row_jmin, grid._row_counts)
    centroids = np.column_stack([grid._row_offset[row] + SQRT3 * s * col, 1.5 * s * row])
    if grid.spec.sample_offset is None:
        return centroids, centroids
    return centroids, centroids + np.array(grid.spec.sample_offset)


@settings(max_examples=60, deadline=None)
@given(
    side=st.floats(0.5, 200.0),
    columns=st.floats(SQRT3, 40.0),  # region width in hexagon sides
    rows=st.floats(2.0, 40.0),  # region height in hexagon sides
    offset=st.none() | st.tuples(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99)),
    data=st.data(),
)
def test_points_of_any_split_equal_the_whole_lattice_bitwise(side, columns, rows, offset, data):
    if offset is not None:  # inside the hexagon: |dx| / sqrt(3) + |dy| <= side
        offset = (offset[0] * SQRT3 / 2 * side, offset[1] * (1 - abs(offset[0]) / 2) * side)
    grid = SpectrumGrid(GridSpec(region_width=columns * side, region_height=rows * side, hex_side=side, sample_offset=offset))
    held = dict(vars(grid))
    centroids, sample_points = lattice_built_whole(grid)
    n = grid.region_count
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)) + [0, n])
    parts = [grid.points(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == sample_points.tobytes()
    parts = [grid.region_centroids(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == centroids.tobytes()
    chi = data.draw(st.integers(0, n - 1))
    cell = grid.cell(chi)
    assert np.array(cell.centroid).tobytes() == centroids[chi].tobytes()
    assert np.array(cell.sample_point).tobytes() == sample_points[chi].tobytes()
    for lo, hi in ((-1, 0), (0, n + 1), (1, 0)):
        for points in (grid.points, grid.region_centroids):
            with pytest.raises(IndexError, match="outside"):
                points(lo, hi)
    # the grid caches no lattice: its attributes are the ones it was built with, and no whole-lattice one exists
    assert vars(grid).keys() == held.keys() and all(vars(grid)[k] is v for k, v in held.items())
    assert not hasattr(grid, "centroids") and not hasattr(grid, "sample_points")


def test_grid_size_queries_read_only_the_row_tables():
    """1.53M regions at 2 m: the lattice would peak near 73 MB (six float64
    per region); the row tables and the count take a few kB."""
    spec = reference_grid(2.0)
    sys_ = dataclasses.replace(region_link_system(), grid_spec=spec)
    queries = {
        "validate_system": lambda: validate_system(sys_).ok,
        "total_spectrum_space": lambda: total_spectrum_space(spec, reference_params()) > 1.5e6,
    }
    for name, query in queries.items():
        result, peak = traced_peak(query)
        assert result and peak < 1 << 20, (name, peak)
    assert sys_.grid.region_count > 1_500_000
