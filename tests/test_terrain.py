import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from offroad import terrain
from offroad.terrain import (
    DRY_SLOPE_LIMIT,
    WET_SLOPE_LIMIT,
    ElevationGrid,
    OutOfBoundsError,
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
    _not_a_knot_coeffs,
    load_elevation_grid,
    load_mask,
)
from offroad.vehicle import VehicleParams, frame_and_motion

from conftest import (
    FORWARD_OFFSETS,
    euler_angles,
    euler_rates,
    flat_grid,
    grid_from_function,
    in_grid,
    normal_with_gradient,
    oracle_hop,
    rotation_from_angles,
    write_grid_csv,
)


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
    with pytest.raises(ValueError, match=r":5: column 1"):
        load_elevation_grid(str(p))


def test_load_rejects_row_length_mismatch(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,3", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0,0", "0,0"])
    with pytest.raises(ValueError, match=r":6: expected 3 values"):
        load_elevation_grid(str(p))


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "cellsize,1.0", "nrows,2", "origin,0,0",
                    "0,0", "0,0"])
    with pytest.raises(ValueError, match=r":2"):
        load_elevation_grid(str(p))


def test_error_line_number_counts_blank_lines(tmp_path):
    # line 5 is blank, so the second data row is line 7 of the file
    p = tmp_path / "g.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "", "0,0", "0,zz"])
    with pytest.raises(ValueError, match=r"g\.csv:7: column 1: not a number: 'zz'"):
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
    with pytest.raises(ValueError, match=r":6: column 1: not a number: '1#2'"):
        load_elevation_grid(str(p))


@pytest.mark.parametrize("cell, ok", [("0.0", True), ("1.0", True), ("2", False),
                                      ("nan", False), ("inf", False)])
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
        with pytest.raises(ValueError,
                           match=rf"m\.csv:5: column 1: mask cell must be 0 or 1, got '{cell}'$"):
            load_mask(str(p), grid)


def zero_grid(n_rows, n_cols):
    """A flat grid with unit cells and origin (0, 0), the layout of the mask files here."""
    return ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=1.0, origin=(0.0, 0.0),
                         heights=np.zeros((n_rows, n_cols)))


def test_mask_row_widths_are_checked_row_by_row(tmp_path):
    # the two rows hold 2 x 3 bare cells between them, 4 and 2 per row
    p = tmp_path / "m.csv"
    write_lines(p, ["ncols,3", "nrows,2", "cellsize,1.0", "origin,0,0", "0,1,1,0", "0,1"])
    with pytest.raises(ValueError, match=r"m\.csv:5: expected 3 values, found 4$"):
        load_mask(str(p), zero_grid(2, 3))


def test_bare_mask_is_not_parsed_as_floats(tmp_path, monkeypatch):
    # rows of bare 0/1 cells are decoded from their bytes: the float parser
    # is for the other spellings only
    def no_float_parser(*args, **kwargs):
        raise AssertionError("bare 0/1 mask cells went through the float parser")

    p = tmp_path / "m.csv"
    write_lines(p, ["ncols,3", "nrows,3", "cellsize,1.0", "origin,0,0",
                    "0,1,1", "1,0,0", "0,0,1"])
    monkeypatch.setattr(terrain, "_loadtxt", no_float_parser)
    mask = load_mask(str(p), flat_grid(n=3))
    assert mask.dtype == bool
    assert mask.tolist() == [[False, True, True], [True, False, False], [False, False, True]]


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
    if math.isinf(float(heights.max()) - float(heights.min())):
        # finite heights whose range is not: rejected, naming the file
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: height range .* "
                                             "overflows float64$"):
            load_elevation_grid(str(p))
        return
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
    with pytest.raises(ValueError, match=expected):
        load_elevation_grid(str(p))


def test_mask_shape_mismatch_rejected(tmp_path):
    grid = flat_grid(n=4)
    p = tmp_path / "m.csv"
    write_lines(p, ["ncols,2", "nrows,2", "cellsize,1.0", "origin,0,0",
                    "0,0", "0,1"])
    with pytest.raises(ValueError, match="does not match grid"):
        load_mask(str(p), grid)


small_masks = st.tuples(st.integers(2, 8), st.integers(2, 8)).flatmap(
    lambda shape: st.lists(st.booleans(), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1])
    .map(lambda cells: np.array(cells).reshape(shape)))
# how a mask file may spell the same cells; the bare spelling is all False
spellings = st.fixed_dictionaries({"floats": st.booleans(), "pad": st.booleans(),
                                   "crlf": st.booleans(), "blank": st.booleans()})
MASK_DEFECTS = ("short", "merged", "long", "missing", "extra", "2", "nan", "zz", "01", "")


def write_mask(path, rows, n_cols, n_rows, floats=False, pad=False, crlf=False, blank=False):
    """Write mask rows, lists of bools or of raw tokens.  ``floats`` spells
    True/False as 1.0/0.0 instead of 1/0, ``pad`` puts a space on each side
    of every token, ``crlf`` ends lines with CRLF and ``blank`` adds a blank
    line after every data row.  Returns each row's line number."""
    eol = "\r\n" if crlf else "\n"
    cells = {True: "1.0" if floats else "1", False: "0.0" if floats else "0"}
    text = eol.join([f"ncols,{n_cols}", f"nrows,{n_rows}", "cellsize,1.0", "origin,0,0"]) + eol
    for row in rows:
        tokens = [cells[v] if isinstance(v, (bool, np.bool_)) else v for v in row]
        text += ",".join(f" {t} " if pad else t for t in tokens) + eol + (eol if blank else "")
    path.write_bytes(text.encode())
    return [5 + r * (2 if blank else 1) for r in range(len(rows))]


def load_outcome(path, grid):
    """The cells load_mask reads from path as a list, or its error message."""
    try:
        return load_mask(str(path), grid).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(cells=small_masks, spelling=spellings)
def test_mask_spellings_load_alike(tmp_path_factory, cells, spelling):
    n_rows, n_cols = cells.shape
    grid = zero_grid(n_rows, n_cols)
    bare, spelled = (tmp_path_factory.mktemp("mask") / "m.csv" for _ in range(2))
    write_mask(bare, cells.tolist(), n_cols, n_rows)
    write_mask(spelled, cells.tolist(), n_cols, n_rows, **spelling)
    mask = load_mask(str(bare), grid)
    assert mask.dtype == bool and np.array_equal(mask, cells)
    assert np.array_equal(load_mask(str(spelled), grid), cells)


@settings(max_examples=150, deadline=None)
@given(cells=small_masks, spelling=spellings, defect=st.sampled_from(MASK_DEFECTS),
       data=st.data())
def test_mask_defect_is_reported_alike_in_every_spelling(tmp_path_factory, cells, spelling,
                                                         defect, data):
    # the byte decoding of bare 0/1 rows accepts no file that the float
    # parser rejects: one defect reads the same in the bare spelling and in
    # any other, up to the line numbers blank lines shift
    n_rows, n_cols = cells.shape
    r = data.draw(st.integers(0, n_rows - 1), label="row")
    c = data.draw(st.integers(0, n_cols - 1), label="col")
    grid = zero_grid(n_rows, n_cols)
    rows = cells.tolist()
    if defect == "short":
        del rows[r][c]
    elif defect == "merged":
        # a short row as long as a whole one: a decimal point for a comma
        k = min(c, n_cols - 2)
        rows[r][k:k + 2] = [f"{int(rows[r][k])}.{int(rows[r][k + 1])}"]
    elif defect == "long":
        rows[r].insert(c, False)
    elif defect == "missing":
        del rows[r]
    elif defect == "extra":
        rows.insert(r, list(rows[r]))
    else:
        rows[r][c] = defect
    for style in ({}, spelling):
        p = tmp_path_factory.mktemp("mask") / "m.csv"
        numbers = write_mask(p, rows, n_cols, n_rows, **style)
        if defect in ("short", "merged", "long"):
            expected = f"{p}:{numbers[r]}: expected {n_cols} values, found {len(rows[r])}"
        elif defect in ("missing", "extra"):
            expected = f"{p}: header declares {n_rows} data rows, found {len(rows)}"
        elif defect in ("2", "nan"):
            expected = f"{p}:{numbers[r]}: column {c}: mask cell must be 0 or 1, got '{defect}'"
        elif defect == "01":
            # a number, and 1: only the byte decoding could misread it
            expected = cells.tolist()
            expected[r][c] = True
        else:
            expected = f"{p}:{numbers[r]}: column {c}: not a number: '{defect}'"
        assert load_outcome(p, grid) == expected


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


def cubic_jet(x, y):
    # an analytic bicubic surface and its exact jet (f, f_x, f_y, f_xx, f_yy, f_xy)
    f = (1.0 + 0.2 * x * y + 0.01 * x ** 3 - 0.02 * x ** 2 * y
         + 0.003 * x * y ** 2 + 0.5 * y - 0.001 * y ** 3 + 1e-4 * x ** 3 * y ** 3)
    f_x = 0.2 * y + 0.03 * x ** 2 - 0.04 * x * y + 0.003 * y ** 2 + 3e-4 * x ** 2 * y ** 3
    f_y = 0.2 * x - 0.02 * x ** 2 + 0.006 * x * y + 0.5 - 0.003 * y ** 2 + 3e-4 * x ** 3 * y ** 2
    f_xx = 0.06 * x - 0.04 * y + 6e-4 * x * y ** 3
    f_yy = 0.006 * x - 0.006 * y + 6e-4 * x ** 3 * y
    f_xy = 0.2 - 0.04 * x + 0.006 * y + 9e-4 * x ** 2 * y ** 2
    return f, f_x, f_y, f_xx, f_yy, f_xy


def test_eval_on_arrays_reproduces_cubic_jet():
    # a tensor-product cubic spline reproduces a bicubic exactly
    surf = SurfaceModel(grid_from_function(lambda x, y: cubic_jet(x, y)[0],
                                           n_cols=12, n_rows=10, cell=1.5, origin=(-3.0, 2.0)))
    rng = np.random.default_rng(8)
    x_min, x_max, y_min, y_max = surf.grid.bounds
    xs = np.concatenate([[x_min, x_max, 1.5], rng.uniform(x_min, x_max, 200)])
    ys = np.concatenate([[y_min, y_max, 6.5], rng.uniform(y_min, y_max, 200)])
    jet = surf.eval(xs, ys)
    for got, want in zip(jet, cubic_jet(xs, ys)):
        assert got.shape == xs.shape
        assert np.max(np.abs(got - want)) < 1e-9
    # each entry is the scalar call's value, and a 2-D array keeps its shape
    for k in range(0, len(xs), 17):
        assert surf.eval(float(xs[k]), float(ys[k])) == tuple(float(d[k]) for d in jet)
    grid_jet = surf.eval(xs[:200].reshape(10, 20), ys[:200].reshape(10, 20))
    assert all(np.array_equal(g, d[:200].reshape(10, 20)) for g, d in zip(grid_jet, jet))


def test_eval_array_with_one_point_outside_raises(flat_surface):
    xs = np.array([1.0, 2.0, 3.0, -0.5, 4.0])
    ys = np.array([1.0, 2.0, 3.0, 3.0, 4.0])
    with pytest.raises(OutOfBoundsError, match=r"query \(-0\.500, 3\.000\)"):
        flat_surface.eval(xs, ys)
    with pytest.raises(OutOfBoundsError):
        flat_surface.eval(np.array([1.0, 2.0]), np.array([3.0, np.nan]))


def test_eval_a_rounding_error_past_an_edge_is_on_the_edge_cell():
    # a query 1e-12 m past an edge, as a rounded integration stage makes, is
    # evaluated on the edge cell; 1e-6 cell sizes past the edge is off the grid
    surf = SurfaceModel(grid_from_function(lambda x, y: np.sin(x) * np.cos(0.7 * y),
                                           n_cols=12, n_rows=10, cell=1.5, origin=(-3.0, 2.0)))
    x_min, x_max, y_min, y_max = surf.grid.bounds
    edges = [(x_min, 5.0, -1, 0), (x_max, 5.0, 1, 0), (0.5, y_min, 0, -1), (0.5, y_max, 0, 1)]
    for x, y, sx, sy in edges:
        on_edge = surf.eval(x, y)
        past = (x + sx * 1e-12, y + sy * 1e-12)
        jet = surf.eval(*past)
        assert jet == pytest.approx(on_edge, rel=1e-9, abs=1e-9)
        arrays = surf.eval(np.array([past[0]]), np.array([past[1]]))
        assert jet == tuple(float(d[0]) for d in arrays)
        beyond = (x + sx * 1e-6 * 1.5, y + sy * 1e-6 * 1.5)
        with pytest.raises(OutOfBoundsError):
            surf.eval(*beyond)
        with pytest.raises(OutOfBoundsError):
            surf.eval(np.array([beyond[0]]), np.array([beyond[1]]))


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
        fd_fx = (surf.eval(x + h, y)[0] - surf.eval(x - h, y)[0]) / (2 * h)
        fd_fy = (surf.eval(x, y + h)[0] - surf.eval(x, y - h)[0]) / (2 * h)
        fd_fxx = (surf.eval(x + h, y)[0] - 2 * f + surf.eval(x - h, y)[0]) / h ** 2
        fd_fyy = (surf.eval(x, y + h)[0] - 2 * f + surf.eval(x, y - h)[0]) / h ** 2
        fd_fxy = (surf.eval(x + h, y + h)[0] - surf.eval(x + h, y - h)[0]
                  - surf.eval(x - h, y + h)[0] + surf.eval(x - h, y - h)[0]) / (4 * h ** 2)
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
            assert surf.eval(x, y)[0] == pytest.approx(grid.heights[row, col], abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 41, 250])
@pytest.mark.parametrize("tail", [(), (3,), (4, 5)])
def test_not_a_knot_coeffs_match_cubic_spline_bit_for_bit(n, tail):
    # scipy's CubicSpline is the oracle here only; tobytes() tells -0.0 from 0.0
    rng = np.random.default_rng([n, len(tail)])
    uniform = 37.5 + 2.5 * np.arange(n)
    uneven = -410.0 + np.cumsum(rng.uniform(0.2, 3.0, n))
    values = [rng.normal(size=(n,) + tail),
              np.round(rng.normal(size=(n,) + tail)),
              np.where(rng.random((n,) + tail) < 0.5, 0.0, -0.0)]
    for x in (uniform, uneven):
        for y in values:
            got = _not_a_knot_coeffs(x, y)
            want = CubicSpline(x, y, axis=0, bc_type="not-a-knot").c
            assert got.shape == want.shape == (4, n - 1) + tail
            assert got.tobytes() == want.tobytes()


def random_grid(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    return ElevationGrid(n_cols=n_cols, n_rows=n_rows, cell_size=1.5,
                         origin=(812.25, -36.0), heights=rng.normal(size=(n_rows, n_cols)))


def cell_centres(grid, columns):
    """Planar centres of every cell of the given x-cell columns, column by column."""
    half = 0.5 * grid.cell_size
    xs = np.repeat(grid.x_axis[columns] + half, grid.n_rows - 1)
    ys = np.tile(grid.y_axis[:-1] + half, len(columns))
    return xs, ys


SURFACE_SHAPES = [(2, 2), (3, 7), (41, 41), (2, 9), (9, 2), (3, 3), (4, 60), (120, 5)]


@pytest.mark.parametrize("n_rows, n_cols", SURFACE_SHAPES)
def test_surface_coefficients_match_the_cubic_spline_tensor(n_rows, n_cols):
    grid = random_grid(n_rows, n_cols, [n_rows, n_cols])
    # the tensor two CubicSpline calls build: along x, then the x-coefficients along y
    values = np.flipud(grid.heights).T
    sx = CubicSpline(grid.x_axis, values, axis=0, bc_type="not-a-knot")
    sy = CubicSpline(grid.y_axis, np.moveaxis(sx.c, 2, 0), axis=0, bc_type="not-a-knot")
    want = np.ascontiguousarray(np.transpose(sy.c[::-1, :, ::-1, :], (3, 1, 2, 0)))
    surf = SurfaceModel(grid)
    # columns are built by the first query in them: touch every cell, the
    # columns in random order, alternating float and array queries
    order = np.random.default_rng(n_rows * n_cols).permutation(n_cols - 1)
    for k, col in enumerate(order):
        xs, ys = cell_centres(grid, [col])
        if k % 2:
            surf.eval(xs, ys)
        else:
            for x, y in zip(xs.tolist(), ys.tolist()):
                surf.eval(x, y)
    # every column holds records of its own, kept in the order it was built
    assert list(surf._columns) == order.tolist()
    got = np.stack([surf._columns[i] for i in range(n_cols - 1)])
    got = got[:, :, :16].reshape(n_cols - 1, n_rows - 1, 4, 4)
    assert got.shape == want.shape == (n_cols - 1, n_rows - 1, 4, 4)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_rows, n_cols", [(3, 7), (41, 41), (9, 2), (6, 90)])
def test_partly_built_surface_gives_the_fully_built_jets(n_rows, n_cols):
    grid = random_grid(n_rows, n_cols, [n_cols, n_rows])
    full = SurfaceModel(grid)
    full.eval(*cell_centres(grid, np.arange(n_cols - 1)))
    rng = np.random.default_rng([n_cols, n_rows, 1])
    x_min, x_max, y_min, y_max = full.grid.bounds
    xs = np.concatenate([[x_min, x_max, x_min], rng.uniform(x_min, x_max, 300)])
    ys = np.concatenate([[y_min, y_max, y_max], rng.uniform(y_min, y_max, 300)])
    want = np.array(full.eval(xs, ys))
    for path in ("float", "array"):
        partial = SurfaceModel(grid)
        # a random half of the columns is built before the probes
        some = rng.permutation(n_cols - 1)[:(n_cols - 1) // 2]
        partial.eval(*cell_centres(grid, some))
        assert sorted(partial._columns) == sorted(some.tolist())
        if path == "array":
            got = np.array(partial.eval(xs, ys))
        else:
            got = np.array([partial.eval(x, y) for x, y in zip(xs.tolist(), ys.tolist())]).T
        assert got.tobytes() == want.tobytes()


def test_surface_keeps_records_only_for_the_columns_it_builds():
    # a whole-grid record tensor of 200^2 nodes takes 199 * 199 * 28 floats
    # (8.9 MB); one query builds one column of 199 records.  1.5 m cells
    # from x = 812.25: x = 1000 lies in x-cell column 125
    grid = random_grid(200, 200, [200, 200])
    tracemalloc.start()
    try:
        surf = SurfaceModel(grid)
        surf.eval(1000.0, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 199 * 199 * 28 * 8
    assert list(surf._columns) == [125]


@pytest.mark.parametrize("n_rows, n_cols", [(2, 2), (2, 6), (6, 2)])
def test_two_nodes_along_an_axis_reproduce_a_plane(n_rows, n_cols):
    def plane(x, y):
        return 3.0 + 0.25 * x - 0.125 * y

    surf = SurfaceModel(grid_from_function(plane, n_cols=n_cols, n_rows=n_rows,
                                           cell=2.0, origin=(10.0, -4.0)))
    rng = np.random.default_rng([n_rows, n_cols])
    x_min, x_max, y_min, y_max = surf.grid.bounds
    xs = rng.uniform(x_min, x_max, 50)
    ys = rng.uniform(y_min, y_max, 50)
    f, fx, fy, fxx, fyy, fxy = surf.eval(xs, ys)
    assert np.max(np.abs(f - plane(xs, ys))) < 1e-12
    assert np.max(np.abs(fx - 0.25)) < 1e-12
    assert np.max(np.abs(fy + 0.125)) < 1e-12
    for d in (fxx, fyy, fxy):
        assert np.max(np.abs(d)) < 1e-12


@pytest.mark.parametrize("axis", ["x", "y"])
def test_three_nodes_along_an_axis_reproduce_a_quadratic(axis):
    # three nodes fit the parabola through them; the other axis has five,
    # along which the surface is linear
    def q(t):
        return 0.3 * t ** 2 - 0.7 * t + 2.0

    if axis == "x":
        fn, n_cols, n_rows = (lambda x, y: q(x) + 0.1 * y), 3, 5
    else:
        fn, n_cols, n_rows = (lambda x, y: q(y) + 0.1 * x), 5, 3
    surf = SurfaceModel(grid_from_function(fn, n_cols=n_cols, n_rows=n_rows,
                                           cell=1.5, origin=(-2.0, 4.0)))
    rng = np.random.default_rng(5)
    x_min, x_max, y_min, y_max = surf.grid.bounds
    # off-node points: nodes sit on multiples of 1.5 from the origin
    xs = x_min + 1.5 * (rng.integers(0, n_cols - 1, 40) + rng.uniform(0.05, 0.95, 40))
    ys = y_min + 1.5 * (rng.integers(0, n_rows - 1, 40) + rng.uniform(0.05, 0.95, 40))
    f, fx, fy, fxx, fyy, _ = surf.eval(xs, ys)
    t = xs if axis == "x" else ys
    f_t, f_tt = (fx, fxx) if axis == "x" else (fy, fyy)
    assert np.max(np.abs(f - fn(xs, ys))) < 1e-12
    assert np.max(np.abs(f_t - (0.6 * t - 0.7))) < 1e-12
    assert np.max(np.abs(f_tt - 0.6)) < 1e-12


# ---------------------------------------------------------------------------
# Normals and frame angles
# ---------------------------------------------------------------------------

def normal_at(surf, x, y):
    """The body normal k_b of vehicle.frame_and_motion, which is the surface
    normal at any pose."""
    return np.array(frame_and_motion(surf, x, y, 0.3, 1.0, 0.1, VehicleParams())[12:15])


def angle_rates_along(surf, x, y, x_dot, y_dot):
    """Roll and pitch rates of the angle oracle (conftest) while moving at
    (x_dot, y_dot) through (x, y)."""
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
    assert slopes.shape == (4, 3, 3)              # one plane per forward offset
    assert slopes[0, 0, 0] == pytest.approx(0.1)   # east hop off the raised corner
    assert np.isnan(slopes[1, 0, 0])               # north-east neighbor is off-grid
    for k, (dr, dc) in enumerate(FORWARD_OFFSETS):
        for a in np.ndindex(3, 3):
            b = (a[0] + dr, a[1] + dc)
            if in_grid(grid, b):
                assert slopes[k][a] == oracle_hop(grid, a, b)[0]
            else:
                assert np.isnan(slopes[k][a])
    with pytest.raises(ValueError):                # heights are frozen with it
        grid.heights[0, 0] = 2.0


def test_obstacle_mask_all_clear_on_flat():
    mask = build_obstacle_mask(flat_grid(n=5), DRY_SLOPE_LIMIT)
    assert not mask.blocked.any()


def test_obstacle_mask_single_water_cell():
    grid = flat_grid(n=5)
    water = np.zeros((5, 5), dtype=bool)
    water[2, 3] = True
    mask = build_obstacle_mask(grid, DRY_SLOPE_LIMIT, water_mask=water)
    assert mask.blocked.sum() == 1
    assert mask.blocked[2, 3]


def test_obstacle_mask_spike_blocks_only_spike():
    # 10 m cells, one node 5 m above flat neighbors: every hop off the spike
    # exceeds 0.121, while each neighbor still has flat hops available
    grid = flat_grid(n=5, cell=10.0)
    grid.heights[2, 2] = 5.0
    mask = build_obstacle_mask(grid, steep_limit=0.121)
    assert mask.blocked[2, 2]
    assert mask.blocked.sum() == 1


def test_obstacle_mask_water_on_steep_node_blocks_it_once():
    grid = flat_grid(n=5, cell=10.0)
    grid.heights[2, 2] = 5.0
    water = np.zeros((5, 5), dtype=bool)
    water[2, 2] = True
    mask = build_obstacle_mask(grid, water_mask=water, steep_limit=0.121)
    assert mask.blocked[2, 2]
    assert mask.blocked.sum() == 1


def test_obstacle_mask_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        build_obstacle_mask(flat_grid(n=5), DRY_SLOPE_LIMIT,
                            water_mask=np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError, match=r"^foliage mask shape \(5, 4\) != grid shape \(5, 5\)$"):
        build_obstacle_mask(flat_grid(n=5), DRY_SLOPE_LIMIT,
                            foliage_mask=np.zeros((5, 4), dtype=bool))


# ---------------------------------------------------------------------------
# Weather
# ---------------------------------------------------------------------------

def test_weather_defaults():
    assert DRY_SLOPE_LIMIT == pytest.approx(math.tan(math.radians(6.90)))
    assert WET_SLOPE_LIMIT == pytest.approx(math.tan(math.radians(2.77)))
    assert WET_SLOPE_LIMIT < DRY_SLOPE_LIMIT


def test_weather_validation():
    with pytest.raises(ValueError):
        WeatherCondition("snowy", 0.1)
    with pytest.raises(ValueError):
        WeatherCondition("dry", -0.1)
