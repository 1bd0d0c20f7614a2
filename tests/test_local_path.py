import math

import numpy as np
import pytest

from offroad.local_path import (
    ArcSegment,
    DesiredTrajectory,
    LineSegment,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.terrain import SurfaceModel

from conftest import flat_grid, grid_from_function, path_point, path_tangent, time_at_arc_length

# the turn-back fixture used throughout: southeast leg, 90 degree right turn,
# southwest leg, radius 4
TURN_WPTS = [(885.0, 418.5), (892.5, 411.0), (885.0, 403.5)]
TURN_RHO = 4.0


def turn_surface():
    return SurfaceModel(flat_grid(n=12, cell=10.0, origin=(850.0, 380.0)))


def base_config(**kw):
    defaults = dict(nominal_speed=2.0, turn_radius=4.0, max_yaw_rate=1.0,
                    accel=1.0, decel=1.0, initial_speed=2.0)
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


# ---------------------------------------------------------------------------
# Geometry planning
# ---------------------------------------------------------------------------

def test_collinear_points_merge_to_single_line():
    geom = plan_geometry([(0.0, 0.0), (3.0, 3.0), (7.0, 7.0)], rho=2.0)
    assert len(geom.segments) == 1
    assert isinstance(geom.segments[0], LineSegment)
    assert geom.total_length == pytest.approx(7.0 * math.sqrt(2))


def test_turn_fixture_geometry():
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    kinds = [type(s).__name__ for s in geom.segments]
    assert kinds == ["LineSegment", "ArcSegment", "LineSegment"]
    leg = 7.5 * math.sqrt(2)            # 10.6066 m
    offset = TURN_RHO * math.tan(math.pi / 4)   # 4 m for the 90 degree corner
    assert geom.segments[0].length == pytest.approx(leg - offset, abs=1e-9)
    assert geom.segments[2].length == pytest.approx(leg - offset, abs=1e-9)
    assert geom.segments[1].length == pytest.approx(TURN_RHO * math.pi / 2, abs=1e-9)
    assert geom.total_length == pytest.approx(2 * (leg - offset) + TURN_RHO * math.pi / 2,
                                              abs=1e-9)
    assert geom.total_length == pytest.approx(19.4964, abs=1e-4)


def test_turn_fixture_tangency_oracle():
    # geometric oracle: compute the tangency points explicitly and verify the
    # arc meets both legs there with matching tangents
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    line_in, arc, line_out = geom.segments
    corner = np.array(TURN_WPTS[1])
    d_in = np.array([1.0, -1.0]) / math.sqrt(2)
    d_out = np.array([-1.0, -1.0]) / math.sqrt(2)
    entry_expected = corner - d_in * 4.0
    exit_expected = corner + d_out * 4.0
    assert np.allclose(line_in.end, entry_expected, atol=1e-9)
    assert np.allclose(line_out.start, exit_expected, atol=1e-9)
    assert np.allclose(arc.point_at(0.0), entry_expected, atol=1e-9)
    assert np.allclose(arc.point_at(arc.length), exit_expected, atol=1e-9)
    # tangent continuity at both joins
    assert np.allclose(arc.tangent_at(0.0), d_in, atol=1e-9)
    assert np.allclose(arc.tangent_at(arc.length), d_out, atol=1e-9)
    # right turn: clockwise sweep
    assert arc.sweep == pytest.approx(-math.pi / 2, abs=1e-12)


def test_oversized_fillet_rejected():
    with pytest.raises(ValueError, match="fillet offset"):
        plan_geometry([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0)], rho=5.0)


def test_reversal_rejected():
    with pytest.raises(ValueError, match="reversal"):
        plan_geometry([(0.0, 0.0), (5.0, 0.0), (1.0, 0.0)], rho=1.0)


def test_adjacent_corners_share_leg():
    # two corners on one middle leg: offsets must both fit
    geom = plan_geometry([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (20.0, 10.0)],
                         rho=2.0)
    assert sum(isinstance(s, ArcSegment) for s in geom.segments) == 2
    with pytest.raises(ValueError, match="fillet offset 6.0000 m at waypoint 1 exceeds"):
        plan_geometry([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (20.0, 10.0)], rho=6.0)


def test_random_corners_tangent_continuity_and_length():
    # the geometry oracle run over many random corners
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.uniform(-50, 50, size=2)
        b = rng.uniform(-50, 50, size=2)
        c = rng.uniform(-50, 50, size=2)
        d_in = b - a
        d_out = c - b
        if min(np.linalg.norm(d_in), np.linalg.norm(d_out)) < 5.0:
            continue
        cross = d_in[0] * d_out[1] - d_in[1] * d_out[0]
        dot = d_in @ d_out
        turn = abs(math.atan2(cross, dot))
        if turn < 0.05 or turn > 2.6:
            continue
        rho = rng.uniform(0.5, 3.0)
        offset = rho * math.tan(turn / 2)
        if offset > min(np.linalg.norm(d_in), np.linalg.norm(d_out)) - 0.1:
            continue
        geom = plan_geometry([a, b, c], rho=rho)
        # tangent mismatch at each join below 1e-9 rad
        for s_join in geom.breakpoints[1:-1]:
            t_minus = path_tangent(geom, s_join - 1e-12)
            t_plus = path_tangent(geom, s_join + 1e-12)
            ang = math.atan2(abs(t_minus[0] * t_plus[1] - t_minus[1] * t_plus[0]),
                             t_minus @ t_plus)
            assert ang < 1e-9
        # integrated arc length matches the segment sum
        n_quad = 2000
        ss = np.linspace(0, geom.total_length, n_quad + 1)
        pts = np.array([path_point(geom, s) for s in ss])
        integrated = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        # chord-sum underestimates arcs by O(h^2); compare loosely here, the
        # derivative-based check below is the tight one
        assert integrated == pytest.approx(geom.total_length, rel=1e-4)
        # |d point / ds| == 1 everywhere (arc-length parametrization)
        for s in rng.uniform(0, geom.total_length, size=10):
            h = 1e-6
            lo, hi = max(s - h, 0.0), min(s + h, geom.total_length)
            d = (path_point(geom, hi) - path_point(geom, lo)) / (hi - lo)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-6)


def test_line_points_stay_between_the_endpoints():
    # a path that ends on a grid node ends there exactly: the cumulative
    # length overshoots the last segment by an ulp, and start + length *
    # direction misses the end by one, which puts a corner-node end outside
    # a grid whose extent begins at 0
    wpts = [(6.0, 8.0), (6.0, 26.0), (4.0, 28.0), (2.0, 30.0), (2.0, 36.0), (0.0, 38.0)]
    geom = plan_geometry(wpts, rho=3.0)
    (idx,), (local,) = geom.locate(np.array([geom.total_length]))
    assert idx == len(geom.segments) - 1 and local <= geom.segments[-1].length
    assert path_point(geom, geom.total_length).tolist() == [0.0, 38.0]
    # no point of a line between grid nodes rounds past either endpoint
    rng = np.random.default_rng(12)
    nodes = np.round(rng.uniform(-30, 30, size=(200, 2, 2)) / 0.7) * 0.7 + 0.1
    for start, end in nodes:
        if np.linalg.norm(end - start) < 1e-9:
            continue
        line = LineSegment(start=start, end=end)
        pts = line.point_at(line.length * np.array([0.0, 0.5, 1 - 1e-16, 1.0]))
        assert pts[0].tolist() == start.tolist()
        assert (pts >= np.minimum(start, end)).all() and (pts <= np.maximum(start, end)).all()
        assert pts[-1] == pytest.approx(end, abs=1e-12)


def test_lateral_accel_option_tightens_turn_speed():
    cfg = base_config(nominal_speed=6.0, max_lateral_accel=1.0)
    # yaw bound allows 4, lateral bound allows sqrt(1 * 4) = 2
    assert cfg.turn_speed(4.0) == pytest.approx(2.0)
    # the default lateral bound is infinite and leaves the yaw bound's 4
    assert base_config(nominal_speed=6.0).turn_speed(4.0) == 4.0


@pytest.mark.parametrize("field, value", [
    ("initial_speed", -1.0), ("initial_speed", math.nan), ("initial_speed", math.inf),
    ("max_lateral_accel", 0.0), ("max_lateral_accel", -1.0), ("max_lateral_accel", math.nan),
])
def test_config_rejects_a_bad_initial_speed_or_lateral_bound(field, value):
    with pytest.raises(ValueError, match=field):
        base_config(**{field: value})


# ---------------------------------------------------------------------------
# Speed profile
# ---------------------------------------------------------------------------

def test_profile_all_line_ramps_from_rest():
    geom = plan_geometry([(0.0, 0.0), (40.0, 0.0)], rho=4.0)
    cfg = base_config(initial_speed=0.0)
    prof = build_speed_profile(geom, cfg)
    # ramp 0 -> 2 over v^2/(2a) = 2 m, then constant
    t_ramp = 2.0 / 1.0
    s, v, a = prof.sample(np.array([0.0, t_ramp + 1.0]))
    assert (s[0], v[0]) == (0.0, 0.0)
    assert a[0] == pytest.approx(1.0)
    assert v[1] == pytest.approx(2.0)
    assert a[1] == 0.0


def test_profile_case_study_constant_speed():
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    cfg = base_config()  # v0 = 2, turn command min(2, 4) = 2
    prof = build_speed_profile(geom, cfg)
    assert prof.duration == pytest.approx(geom.total_length / 2.0, abs=1e-9)
    _, v, a = prof.sample(np.linspace(0, prof.duration, 50))
    assert v == pytest.approx(np.full(50, 2.0), abs=1e-12)
    assert (a == 0.0).all()


def test_profile_slows_for_infeasible_turn():
    geom = plan_geometry([(0.0, 0.0), (40.0, 0.0), (40.0, 40.0)], rho=4.0)
    cfg = base_config(nominal_speed=6.0, initial_speed=6.0)
    prof = build_speed_profile(geom, cfg)
    arc_start = geom.breakpoints[1]
    arc_end = geom.breakpoints[2]
    t_entry = time_at_arc_length(prof, arc_start)
    t_exit = time_at_arc_length(prof, arc_end)
    _, v, a = prof.sample(np.array([t_entry, t_entry - 0.05, t_exit + 0.05]))
    assert v[0] == pytest.approx(4.0, abs=1e-9)   # rho * max_yaw_rate
    # decelerating immediately before the arc, accelerating after it
    assert a[1] == pytest.approx(-1.0)
    assert a[2] == pytest.approx(1.0)
    # within the arc the yaw-rate bound holds
    s, v, _ = prof.sample(np.linspace(t_entry, t_exit, 25))
    inside = (arc_start + 1e-6 < s) & (s < arc_end - 1e-6)
    assert (v[inside] / 4.0 <= 1.0 + 1e-12).all()


def test_profile_piece_times_match_root_finding():
    # the closed-form piece start times t_pts against a root-finding
    # inversion of the sampled arc length
    geom = plan_geometry([(0.0, 0.0), (30.0, 0.0), (30.0, 30.0)], rho=3.0)
    prof = build_speed_profile(geom, base_config(nominal_speed=5.0, initial_speed=0.0))
    assert len(prof.t_pts) > 4
    for s, t in zip(prof.s_pts, prof.t_pts):
        assert time_at_arc_length(prof, s) == pytest.approx(t, abs=1e-9)


def test_profile_infeasible_deceleration_raises():
    geom = plan_geometry([(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)], rho=2.0)
    cfg = base_config(nominal_speed=8.0, initial_speed=8.0, decel=1.0)
    with pytest.raises(ValueError, match="reduce the nominal"):
        build_speed_profile(geom, cfg)


# ---------------------------------------------------------------------------
# Trajectory sampling
# ---------------------------------------------------------------------------

def case_study_trajectory():
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    prof = build_speed_profile(geom, base_config())
    return DesiredTrajectory(geom, prof, turn_surface())


def test_sample_at_zero_is_first_waypoint():
    traj = case_study_trajectory()
    sample = traj.sample(np.zeros(1))
    pos, vel = sample.position[0], sample.velocity[0]
    assert np.allclose(pos[:2], TURN_WPTS[0], atol=1e-12)
    assert np.linalg.norm(vel[:2]) == pytest.approx(2.0, abs=1e-12)


def test_sample_mid_line_zero_planar_accel():
    traj = case_study_trajectory()
    acc = traj.sample(np.array([1.0])).acceleration[0]  # s = 2 m, inside the first leg
    assert np.linalg.norm(acc[:2]) < 1e-12


def test_sample_mid_arc_centripetal():
    traj = case_study_trajectory()
    arc_mid_s = (traj.geometry.breakpoints[1] + traj.geometry.breakpoints[2]) / 2
    t = time_at_arc_length(traj.profile, arc_mid_s)
    sample = traj.sample(np.array([t]))
    acc_planar = sample.acceleration[0, :2]
    assert np.linalg.norm(acc_planar) == pytest.approx(2.0 ** 2 / 4.0, abs=1e-9)
    # directed toward the arc center
    arc = traj.geometry.segments[1]
    to_center = arc.center - sample.position[0, :2]
    to_center /= np.linalg.norm(to_center)
    assert np.allclose(acc_planar / np.linalg.norm(acc_planar), to_center, atol=1e-9)


def test_sample_velocity_magnitude_tracks_profile():
    traj = case_study_trajectory()
    for t in np.linspace(0, traj.duration, 29):
        s = traj.sample(np.array([t]))
        _, v, _ = traj.profile.sample(np.array([t]))
        assert np.linalg.norm(s.velocity[0, :2]) == pytest.approx(v[0], abs=1e-9)


def test_sample_derivatives_match_finite_differences():
    # oracle: central differences of the sampled position/velocity in time,
    # away from profile breakpoints and segment joins
    geom = plan_geometry([(0.0, 0.0), (30.0, 0.0), (30.0, 30.0)], rho=5.0)
    cfg = base_config(nominal_speed=4.0, initial_speed=0.0)
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.02 * x + 0.3 * np.sin(y / 9.0),
        n_cols=25, n_rows=25, cell=2.0, origin=(-5.0, -5.0)))
    prof = build_speed_profile(geom, cfg)
    traj = DesiredTrajectory(geom, prof, surf)
    h = 1e-5
    joins_t = [time_at_arc_length(prof, s) for s in geom.breakpoints[1:-1]]
    break_ts = list(prof.t_pts) + joins_t
    rng = np.random.default_rng(4)
    checked = 0
    for t in rng.uniform(0.05, traj.duration - 0.05, size=60):
        if min(abs(t - b) for b in break_ts) < 5e-3:
            continue
        minus, plus, mid = (traj.sample(np.array([u])) for u in (t - h, t + h, t))
        p_minus, v_minus = minus.position[0], minus.velocity[0]
        p_plus, v_plus = plus.position[0], plus.velocity[0]
        vel, acc = mid.velocity[0], mid.acceleration[0]
        fd_vel = (p_plus - p_minus) / (2 * h)
        fd_acc = (v_plus - v_minus) / (2 * h)
        assert np.max(np.abs(vel - fd_vel)) < 1e-5
        assert np.max(np.abs(acc - fd_acc)) < 1e-5
        checked += 1
    assert checked > 30


def test_sample_z_on_surface():
    traj = case_study_trajectory()
    for t in np.linspace(0, traj.duration, 13):
        (pos,) = traj.sample(np.array([t])).position
        assert pos[2] == pytest.approx(traj.surface.eval(pos[0], pos[1])[0], abs=1e-12)


def test_sample_out_of_range():
    traj = case_study_trajectory()
    with pytest.raises(ValueError, match="time -0.5"):
        traj.sample(np.array([-0.5]))
    with pytest.raises(ValueError, match="outside"):
        traj.sample(np.array([traj.duration + 1.0]))


def test_sample_rejects_a_0d_time():
    # the reference is sampled on arrays only; a bare time is a caller error
    traj = case_study_trajectory()
    for t in (0.0, np.float64(1.0), np.array(1.0)):
        with pytest.raises(ValueError, match="1-D array"):
            traj.sample(t)


def test_trajectory_csv_export(tmp_path):
    traj = case_study_trajectory()
    p = tmp_path / "traj.csv"
    from offroad.local_path import write_trajectory_csv
    write_trajectory_csv(traj, 0.5, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("t_s,xd_m,yd_m,zd_m")
    assert len(lines) == 2 + int(traj.duration / 0.5)
    assert lines[1].endswith(",0,CV")


def zigzag_trajectory():
    # a left and a right fillet, accelerating from rest then cruising, on a
    # surface curved in both axes
    geom = plan_geometry([(0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (60.0, 30.0)], rho=5.0)
    prof = build_speed_profile(geom, base_config(nominal_speed=4.0, initial_speed=0.0))
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.02 * x + 0.3 * np.sin(y / 9.0) * np.cos(x / 13.0),
        n_cols=40, n_rows=25, cell=2.0, origin=(-5.0, -5.0)))
    return DesiredTrajectory(geom, prof, surf)


def test_batch_sample_rows_equal_scalar_samples_bit_for_bit():
    traj = zigzag_trajectory()
    joins = [time_at_arc_length(traj.profile, s) for s in traj.geometry.breakpoints]
    rng = np.random.default_rng(11)
    ts = np.concatenate([[0.0, traj.duration], joins, traj.profile.t_pts,
                         rng.uniform(0.0, traj.duration, size=40)])
    batch = traj.sample(ts)
    assert batch.position.shape == batch.velocity.shape == batch.acceleration.shape == (len(ts), 3)
    for k, t in enumerate(ts):
        one = traj.sample(np.array([t]))
        for name in ("position", "velocity", "acceleration"):
            assert getattr(batch, name)[k].tobytes() == getattr(one, name)[0].tobytes(), (t, name)
        assert batch.segment_index[k] == one.segment_index[0]
        assert batch.phase[k] == one.phase[0]
    assert set(batch.phase) == {"ACC", "CV"}
    assert set(batch.segment_index) == set(range(len(traj.geometry.segments)))


def test_batch_sample_derivatives_match_central_differences():
    # independent oracle: central differences over a fine time grid of the
    # batch positions and velocities, away from profile breakpoints and joins
    traj = zigzag_trajectory()
    h = 1e-4
    ts = np.arange(0.0, traj.duration, h)
    batch = traj.sample(ts)
    fd_vel = (batch.position[2:] - batch.position[:-2]) / (2 * h)
    fd_acc = (batch.velocity[2:] - batch.velocity[:-2]) / (2 * h)
    breaks = np.concatenate([traj.profile.t_pts, [time_at_arc_length(traj.profile, s)
                                                  for s in traj.geometry.breakpoints]])
    mid = ts[1:-1]
    away = np.min(np.abs(mid[:, None] - breaks[None, :]), axis=1) > 2 * h
    assert away.sum() > 0.9 * len(mid)
    assert np.max(np.abs(batch.velocity[1:-1][away] - fd_vel[away])) < 1e-5
    assert np.max(np.abs(batch.acceleration[1:-1][away] - fd_acc[away])) < 1e-5


def test_batch_sample_out_of_range_time_rejected():
    traj = case_study_trajectory()
    with pytest.raises(ValueError, match="time -0.5"):
        traj.sample(np.array([0.0, 1.0, -0.5, 2.0]))
