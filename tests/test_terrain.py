import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offroad.terrain import (
    CLEAR,
    DRY_SLOPE_LIMIT,
    STEEP,
    WATER,
    WET_SLOPE_LIMIT,
    ElevationGrid,
    GridFormatError,
    OutOfBoundsError,
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
    euler_angles,
    euler_rates,
    load_elevation_grid,
    load_mask,
    normal_with_gradient,
    rotation_from_angles,
    slope_between,
    write_grid_csv,
)

from conftest import flat_grid, grid_from_function


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_minimal_flat_grid(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0", "0,0"])
    grid = load_elevation_grid(str(p))
    assert grid.n_rows == 2 and grid.n_cols == 2
    assert np.all(grid.heights == 0.0)
    assert grid.node_position(1, 0) == (0.0, 0.0)   # southwest corner
    assert grid.node_position(0, 1) == (1.0, 1.0)   # northeast corner


def test_load_rejects_nan_cell(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,nan", "0,0"])
    with pytest.raises(GridFormatError, match=r":5: column 1"):
        load_elevation_grid(str(p))


def test_load_rejects_row_length_mismatch(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,3", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0,0", "0,0"])
    with pytest.raises(GridFormatError, match=r":6: expected 3 values"):
        load_elevation_grid(str(p))


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "cellsize,1.0", "nrows,2", "origin,0,0",
                    "0,0", "0,0"])
    with pytest.raises(GridFormatError, match=r":2"):
        load_elevation_grid(str(p))


def test_error_line_number_counts_blank_lines(tmp_path):
    # line 5 is blank, so the second data row is line 7 of the file
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "", "0,0", "0,zz"])
    with pytest.raises(GridFormatError, match=r"g\.csv:7: column 1: not a number: 'zz'"):
        load_elevation_grid(str(p))


def test_grid_csv_round_trip(tmp_path):
    grid = grid_from_function(lambda x, y: 0.3 * x - 0.1 * y + 2.0,
                              n_cols=5, n_rows=4, cell=2.5, origin=(10.0, -3.0))
    p = tmp_path / "g.csv"
    write_grid_csv(grid, str(p))
    back = load_elevation_grid(str(p))
    assert back.n_cols == grid.n_cols and back.n_rows == grid.n_rows
    assert back.cell_size == grid.cell_size and back.origin == grid.origin
    assert np.array_equal(back.heights, grid.heights)


def test_load_large_grid_accepted(tmp_path):
    # representative of a full-size raster ingest, scaled down for test speed
    rng = np.random.default_rng(7)
    n = 120
    heights = rng.uniform(1400.0, 1500.0, size=(n, n))
    grid = ElevationGrid(n_cols=n, n_rows=n, cell_size=3.0, origin=(0.0, 0.0),
                         heights=heights)
    p = tmp_path / "big.csv"
    write_grid_csv(grid, str(p))
    assert load_elevation_grid(str(p)).heights.shape == (n, n)


def test_load_accepts_crlf_line_endings(tmp_path):
    p = tmp_path / "g.csv"
    p.write_bytes(b"ncols,2\r\nnrows,2\r\ncellsize,1.0\r\norigin,0,0\r\n"
                  b"1.5,-2\r\n0, 3e1\r\n")
    grid = load_elevation_grid(str(p))
    assert np.array_equal(grid.heights, [[1.5, -2.0], [0.0, 30.0]])


def test_load_rejects_comment_marker_in_cell(tmp_path):
    # read as a comment marker, the '#' would cut the cell to '1' silently
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0", "0,1#2"])
    with pytest.raises(GridFormatError, match=r":6: column 1: not a number: '1#2'"):
        load_elevation_grid(str(p))


@pytest.mark.parametrize("cell, ok", [("0.0", True), ("1.0", True), ("2", False)])
def test_mask_cell_values(tmp_path, cell, ok):
    p = tmp_path / "m.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0.0,0.0",
                    f"0,{cell}", "1,0"])
    grid = flat_grid(n=2)
    if ok:
        mask = load_mask(str(p), grid)
        assert mask.dtype == bool
        assert mask.tolist() == [[False, cell == "1.0"], [True, False]]
    else:
        with pytest.raises(GridFormatError, match="must be 0 or 1"):
            load_mask(str(p), grid)


small_grids = st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
    lambda shape: st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda cells: np.array(cells).reshape(shape)))


@settings(max_examples=60, deadline=None)
@given(heights=small_grids)
def test_written_grid_loads_back_bit_exactly(tmp_path_factory, heights):
    n_rows, n_cols = heights.shape
    grid = ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=0.5,
                         origin=(-3.0, 7.25), heights=heights)
    p = tmp_path_factory.mktemp("grid") / "g.csv"
    write_grid_csv(grid, str(p))
    back = load_elevation_grid(str(p)).heights
    assert back.tobytes() == heights.tobytes()


DEFECTS = ("zz", "1_0", "", "1.0.0", "nan", "inf", "-Infinity", "short", "long")


@settings(max_examples=120, deadline=None)
@given(heights=small_grids, defect=st.sampled_from(DEFECTS), data=st.data())
def test_one_defect_is_named_by_line_and_column(tmp_path_factory, heights, defect, data):
    n_rows, n_cols = heights.shape
    r = data.draw(st.integers(0, n_rows - 1), label="row")
    c = data.draw(st.integers(0, n_cols - 1), label="col")
    rows = [[repr(float(v)) for v in row] for row in heights]
    if defect == "short":
        del rows[r][c]
    elif defect == "long":
        rows[r].insert(c, "0.0")
    else:
        rows[r][c] = defect
    p = tmp_path_factory.mktemp("grid") / "g.csv"
    write_lines(p, [f"ncols,{n_cols}", f"nrows,{n_rows}", "cellsize,1.0", "origin,0,0"]
                + [",".join(row) for row in rows])
    line = 5 + r
    if defect in ("short", "long"):
        expected = rf":{line}: expected {n_cols} values, found {len(rows[r])}$"
    elif defect in ("nan", "inf", "-Infinity"):
        expected = rf":{line}: column {c}: non-finite height '{defect}'$"
    else:
        expected = rf":{line}: column {c}: not a number: '{defect}'$"
    with pytest.raises(GridFormatError, match=expected):
        load_elevation_grid(str(p))


def test_mask_shape_mismatch_rejected(tmp_path):
    grid = flat_grid(n=4)
    p = tmp_path / "m.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0", "0,1"])
    with pytest.raises(GridFormatError, match="does not match grid"):
        load_mask(str(p), grid)


# ---------------------------------------------------------------------------
# Surface evaluation
# ---------------------------------------------------------------------------

def test_flat_surface_eval(flat_surface):
    f, fx, fy, fxx, fyy, fxy = flat_surface.eval(4.3, 6.1)
    assert f == pytest.approx(0.0, abs=1e-12)
    for d in (fx, fy, fxx, fyy, fxy):
        assert abs(d) < 1e-12


def test_inclined_plane_derivatives():
    surf = SurfaceModel(grid_from_function(lambda x, y: 0.1 * x, n_cols=12, n_rows=12))
    f, fx, fy, fxx, fyy, fxy = surf.eval(5.7, 4.2)
    assert fx == pytest.approx(0.1, abs=1e-9)
    assert f == pytest.approx(0.57, abs=1e-9)
    for d in (fy, fxx, fyy, fxy):
        assert abs(d) < 1e-9


def test_quadratic_bowl_second_derivatives():
    surf = SurfaceModel(grid_from_function(lambda x, y: x ** 2 + y ** 2,
                                           n_cols=30, n_rows=30, cell=0.5))
    for (x, y) in [(4.1, 7.3), (8.25, 2.6), (11.0, 11.0)]:
        _, fx, fy, fxx, fyy, fxy = surf.eval(x, y)
        assert fx == pytest.approx(2 * x, abs=1e-6)
        assert fy == pytest.approx(2 * y, abs=1e-6)
        assert fxx == pytest.approx(2.0, abs=1e-6)
        assert fyy == pytest.approx(2.0, abs=1e-6)
        assert fxy == pytest.approx(0.0, abs=1e-6)


def test_surface_eval_out_of_bounds(flat_surface):
    with pytest.raises(OutOfBoundsError):
        flat_surface.eval(-0.5, 3.0)
    with pytest.raises(OutOfBoundsError):
        flat_surface.eval(3.0, 99.0)


def test_surface_derivatives_match_finite_differences():
    # independent oracle: central differences of the interpolant itself
    rng = np.random.default_rng(42)

    def fn(x, y):
        return 0.8 * np.sin(x / 3.0) * np.cos(y / 4.0) + 0.05 * x * y

    surf = SurfaceModel(grid_from_function(fn, n_cols=40, n_rows=40, cell=1.0))
    h = 1e-4
    for _ in range(25):
        x = rng.uniform(3.0, 36.0)
        y = rng.uniform(3.0, 36.0)
        f, fx, fy, fxx, fyy, fxy = surf.eval(x, y)
        fd_fx = (surf.height(x + h, y) - surf.height(x - h, y)) / (2 * h)
        fd_fy = (surf.height(x, y + h) - surf.height(x, y - h)) / (2 * h)
        fd_fxx = (surf.height(x + h, y) - 2 * f + surf.height(x - h, y)) / h ** 2
        fd_fyy = (surf.height(x, y + h) - 2 * f + surf.height(x, y - h)) / h ** 2
        fd_fxy = (surf.height(x + h, y + h) - surf.height(x + h, y - h)
                  - surf.height(x - h, y + h) + surf.height(x - h, y - h)) / (4 * h ** 2)
        assert fx == pytest.approx(fd_fx, abs=1e-5)
        assert fy == pytest.approx(fd_fy, abs=1e-5)
        assert fxx == pytest.approx(fd_fxx, abs=1e-4)
        assert fyy == pytest.approx(fd_fyy, abs=1e-4)
        assert fxy == pytest.approx(fd_fxy, abs=1e-4)


def test_surface_interpolates_grid_nodes():
    rng = np.random.default_rng(3)
    grid = grid_from_function(lambda x, y: rng.normal(size=x.shape),
                              n_cols=9, n_rows=7, cell=2.0)
    surf = SurfaceModel(grid)
    for row in range(grid.n_rows):
        for col in range(grid.n_cols):
            x, y = grid.node_position(row, col)
            assert surf.height(x, y) == pytest.approx(grid.node_height(row, col), abs=1e-10)


# ---------------------------------------------------------------------------
# Normals and frame angles
# ---------------------------------------------------------------------------

def normal_at(surf, x, y):
    return normal_with_gradient(surf.eval(x, y))[0]


def angle_rates_along(surf, x, y, x_dot, y_dot):
    """Roll and pitch rates while moving at (x_dot, y_dot) through (x, y)."""
    n, dn_dx, dn_dy = normal_with_gradient(surf.eval(x, y))
    return euler_rates(n, dn_dx * x_dot + dn_dy * y_dot)

def test_flat_normal(flat_surface):
    n = normal_at(flat_surface, 5.0, 5.0)
    assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-12)


def test_incline_normal(incline_x_surface):
    n = normal_at(incline_x_surface, 5.0, 5.0)
    s = math.sqrt(2) / 2
    assert np.allclose(n, [-s, 0.0, s], atol=1e-9)


def test_incline_y_normal():
    surf = SurfaceModel(grid_from_function(lambda x, y: y, n_cols=12, n_rows=12))
    n = normal_at(surf, 5.0, 5.0)
    s = math.sqrt(2) / 2
    assert np.allclose(n, [0.0, -s, s], atol=1e-9)


def test_normal_unit_and_upward_everywhere():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 2.0 * np.sin(x / 2.0) + 1.5 * np.cos(y / 3.0),
        n_cols=30, n_rows=30))
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = normal_at(surf, rng.uniform(1, 28), rng.uniform(1, 28))
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert n[2] > 0


def test_euler_angles_flat():
    assert euler_angles(np.array([0.0, 0.0, 1.0])) == (0.0, 0.0)


def test_euler_angles_pitch_only():
    s = math.sqrt(2) / 2
    phi, theta = euler_angles(np.array([-s, 0.0, s]))
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert theta == pytest.approx(-math.pi / 4, abs=1e-12)
    # reconstruction oracle: row 3 of the rebuilt rotation equals the normal
    assert np.allclose(rotation_from_angles(phi, theta)[2], [-s, 0.0, s], atol=1e-12)


def test_euler_angles_roll_only():
    n = np.array([0.0, -0.5, math.sqrt(3) / 2])
    phi, theta = euler_angles(n)
    assert phi == pytest.approx(math.asin(0.5), abs=1e-12)
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rotation_from_angles(phi, theta)[2], n, atol=1e-12)


def test_euler_angles_round_trip_random_normals():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.normal(size=3)
        v[2] = abs(v[2]) + 0.05
        n = v / np.linalg.norm(v)
        phi, theta = euler_angles(n)
        rebuilt = rotation_from_angles(phi, theta)[2]
        assert np.max(np.abs(rebuilt - n)) < 1e-12


def test_euler_angles_rejects_bad_input():
    with pytest.raises(ValueError):
        euler_angles(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        euler_angles(np.array([0.0, 0.0, -1.0]))


# ---------------------------------------------------------------------------
# Euler angle rates
# ---------------------------------------------------------------------------

def test_euler_rates_flat(flat_surface):
    assert angle_rates_along(flat_surface, 5.0, 5.0, 3.0, -2.0) == (0.0, 0.0)


def test_euler_rates_fixed_plane(incline_x_surface):
    # constant normal: angles do not change along any motion
    pd, td = angle_rates_along(incline_x_surface, 5.0, 5.0, 1.3, 0.7)
    assert abs(pd) < 1e-9 and abs(td) < 1e-9


def finite_difference_angle_rates(surf, x, y, x_dot, y_dot, h=1e-5):
    """Oracle: central difference of euler_angles along the motion direction."""
    pa = euler_angles(normal_at(surf, x - h * x_dot, y - h * y_dot))
    pb = euler_angles(normal_at(surf, x + h * x_dot, y + h * y_dot))
    return (pb[0] - pa[0]) / (2 * h), (pb[1] - pa[1]) / (2 * h)


def test_euler_rates_bowl_matches_finite_difference(bowl_surface):
    pd, td = angle_rates_along(bowl_surface, 1.0, 0.0, 1.0, 0.0)
    fd_pd, fd_td = finite_difference_angle_rates(bowl_surface, 1.0, 0.0, 1.0, 0.0)
    assert pd == pytest.approx(fd_pd, abs=1e-6)
    assert td == pytest.approx(fd_td, abs=1e-6)


def test_euler_rates_random_trajectories():
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 1.5 * np.sin(x / 4.0) * np.cos(y / 5.0),
        n_cols=40, n_rows=40))
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(4, 35)
        y = rng.uniform(4, 35)
        x_dot, y_dot = rng.normal(size=2)
        pd, td = angle_rates_along(surf, x, y, x_dot, y_dot)
        fd_pd, fd_td = finite_difference_angle_rates(surf, x, y, x_dot, y_dot)
        scale = max(abs(fd_pd), abs(fd_td), 1e-3)
        assert abs(pd - fd_pd) / scale < 1e-5
        assert abs(td - fd_td) / scale < 1e-5


# ---------------------------------------------------------------------------
# Inter-node slopes and obstacle masks
# ---------------------------------------------------------------------------

def test_neighbor_slopes_built_once_and_read_only():
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[0, 0] = 1.0
    slopes = grid.neighbor_slopes
    assert grid.neighbor_slopes is slopes
    assert not slopes.flags.writeable
    assert slopes.shape == (8, 3, 3)
    assert slopes[0, 0, 0] == pytest.approx(0.1)   # east hop off the raised corner
    assert np.isnan(slopes[1, 0, 0])               # north-east neighbor is off-grid
    with pytest.raises(ValueError):                # heights are frozen with it
        grid.heights[0, 0] = 2.0


def test_slope_between_basic():
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[0, 0] = 1.0
    assert slope_between(grid, (0, 0), (0, 1)) == pytest.approx(0.1)
    assert slope_between(grid, (1, 0), (1, 1)) == 0.0


def test_slope_between_diagonal():
    grid = flat_grid(n=3, cell=10.0)
    grid.heights[0, 0] = 1.0
    expected = 1.0 / (10.0 * math.sqrt(2))
    assert slope_between(grid, (0, 0), (1, 1)) == pytest.approx(expected)


def test_slope_between_symmetric():
    rng = np.random.default_rng(2)
    grid = grid_from_function(lambda x, y: rng.normal(size=x.shape), n_cols=6, n_rows=6)
    for (a, b) in [((0, 0), (0, 1)), ((2, 2), (3, 3)), ((4, 1), (3, 0))]:
        assert slope_between(grid, a, b) == slope_between(grid, b, a)


def test_slope_between_rejects_non_adjacent():
    grid = flat_grid(n=4)
    with pytest.raises(ValueError):
        slope_between(grid, (0, 0), (0, 2))
    with pytest.raises(ValueError):
        slope_between(grid, (1, 1), (1, 1))


def test_obstacle_mask_all_clear_on_flat():
    mask = build_obstacle_mask(flat_grid(n=5))
    assert not mask.blocked.any()
    assert np.all(mask.provenance == CLEAR)


def test_obstacle_mask_single_water_cell():
    grid = flat_grid(n=5)
    water = np.zeros((5, 5), dtype=bool)
    water[2, 3] = True
    mask = build_obstacle_mask(grid, water_mask=water)
    assert mask.blocked.sum() == 1
    assert mask.blocked[2, 3]
    assert mask.provenance[2, 3] == WATER
    assert mask.reason(2, 3) == "water"


def test_obstacle_mask_spike_blocks_only_spike():
    # 10 m cells, one node 5 m above flat neighbors: every hop off the spike
    # exceeds 0.121, while each neighbor still has flat hops available
    grid = flat_grid(n=5, cell=10.0)
    grid.heights[2, 2] = 5.0
    mask = build_obstacle_mask(grid, steep_limit=0.121)
    assert mask.blocked[2, 2]
    assert mask.provenance[2, 2] == STEEP
    assert mask.blocked.sum() == 1


def test_obstacle_mask_precedence_water_over_steep():
    grid = flat_grid(n=5, cell=10.0)
    grid.heights[2, 2] = 5.0
    water = np.zeros((5, 5), dtype=bool)
    water[2, 2] = True
    mask = build_obstacle_mask(grid, water_mask=water, steep_limit=0.121)
    assert mask.provenance[2, 2] == WATER


def test_obstacle_mask_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        build_obstacle_mask(flat_grid(n=5), water_mask=np.zeros((4, 4), dtype=bool))


# ---------------------------------------------------------------------------
# Weather
# ---------------------------------------------------------------------------

def test_weather_defaults():
    assert WeatherCondition.dry().slope_limit == pytest.approx(math.tan(math.radians(6.90)))
    assert WeatherCondition.wet().slope_limit == pytest.approx(math.tan(math.radians(2.77)))
    assert WET_SLOPE_LIMIT < DRY_SLOPE_LIMIT


def test_weather_validation():
    with pytest.raises(ValueError):
        WeatherCondition("snowy", 0.1)
    with pytest.raises(ValueError):
        WeatherCondition("dry", -0.1)
