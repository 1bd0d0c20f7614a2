import math

import numpy as np
import pytest

from offroad.local_path import (
    ArcSegment,
    DesiredTrajectory,
    GeometryError,
    LineSegment,
    ProfileError,
    SpeedInputs,
    SpeedState,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
    run_speed_machine,
    segment_slope,
    step_speed_machine,
)
from offroad.terrain import SurfaceModel

from conftest import flat_grid, grid_from_function

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
# Segment slope
# ---------------------------------------------------------------------------

def test_segment_slope_turn_fixture():
    assert segment_slope(TURN_WPTS[0], TURN_WPTS[1]) == pytest.approx(-1.0)
    assert segment_slope(TURN_WPTS[1], TURN_WPTS[2]) == pytest.approx(1.0)


def test_segment_slope_vertical():
    assert math.isinf(segment_slope((0.0, 0.0), (0.0, 5.0)))


def test_segment_slope_coincident_points():
    with pytest.raises(ValueError):
        segment_slope((1.0, 2.0), (1.0, 2.0))


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
    with pytest.raises(GeometryError, match="fillet offset"):
        plan_geometry([(0.0, 0.0), (3.0, 0.0), (3.0, 3.0)], rho=5.0)


def test_reversal_rejected():
    with pytest.raises(GeometryError, match="reversal"):
        plan_geometry([(0.0, 0.0), (5.0, 0.0), (1.0, 0.0)], rho=1.0)


def test_adjacent_corners_share_leg():
    # two corners on one middle leg: offsets must both fit
    geom = plan_geometry([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (20.0, 10.0)],
                         rho=2.0)
    assert sum(isinstance(s, ArcSegment) for s in geom.segments) == 2
    with pytest.raises(GeometryError):
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
            t_minus = geom.tangent_at(s_join - 1e-12)
            t_plus = geom.tangent_at(s_join + 1e-12)
            ang = math.atan2(abs(t_minus[0] * t_plus[1] - t_minus[1] * t_plus[0]),
                             t_minus @ t_plus)
            assert ang < 1e-9
        # integrated arc length matches the segment sum
        n_quad = 2000
        ss = np.linspace(0, geom.total_length, n_quad + 1)
        pts = np.array([geom.point_at(s) for s in ss])
        integrated = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        # chord-sum underestimates arcs by O(h^2); compare loosely here, the
        # derivative-based check below is the tight one
        assert integrated == pytest.approx(geom.total_length, rel=1e-4)
        # |d point / ds| == 1 everywhere (arc-length parametrization)
        for s in rng.uniform(0, geom.total_length, size=10):
            h = 1e-6
            lo, hi = max(s - h, 0.0), min(s + h, geom.total_length)
            d = (geom.point_at(hi) - geom.point_at(lo)) / (hi - lo)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Speed state machine
# ---------------------------------------------------------------------------

def test_machine_straight_below_nominal_accelerates():
    cfg = base_config()
    term, cmd, _ = run_speed_machine(SpeedInputs(1.0, -1.0, -1.0), cfg)
    assert term is SpeedState.ACC
    assert cmd == 2.0


def test_machine_straight_at_nominal_holds():
    cfg = base_config()
    term, cmd, _ = run_speed_machine(SpeedInputs(2.0, -1.0, -1.0), cfg)
    assert term is SpeedState.CV
    assert cmd == 2.0


def test_machine_straight_above_nominal_decelerates():
    cfg = base_config()
    term, _, _ = run_speed_machine(SpeedInputs(3.0, 0.5, 0.5), cfg)
    assert term is SpeedState.DEC


def test_machine_infeasible_turn_decelerates_to_turn_speed():
    cfg = base_config(nominal_speed=6.0)
    term, cmd, _ = run_speed_machine(SpeedInputs(6.0, -1.0, 1.0), cfg)
    assert term is SpeedState.DEC
    assert cmd == pytest.approx(4.0)  # turn_radius * max_yaw_rate


def test_machine_feasible_turn_at_nominal_holds():
    cfg = base_config()  # 2/4 <= 1: feasible at nominal
    term, cmd, _ = run_speed_machine(SpeedInputs(2.0, -1.0, 1.0), cfg)
    assert term is SpeedState.CV
    assert cmd == 2.0


def test_machine_contact_loss_decelerates():
    cfg = base_config()
    term, _, _ = run_speed_machine(SpeedInputs(2.0, -1.0, -1.0, contact_ok=False), cfg)
    assert term is SpeedState.DEC


def test_machine_deterministic():
    cfg = base_config()
    seq = [SpeedInputs(1.0, -1.0, -1.0), SpeedInputs(2.0, -1.0, 1.0),
           SpeedInputs(3.0, 0.0, 0.0)]
    runs = [[run_speed_machine(i, cfg)[2] for i in seq] for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_machine_step_is_single_transition():
    cfg = base_config()
    inputs = SpeedInputs(1.0, -1.0, -1.0)
    s = step_speed_machine(SpeedState.CHECK_CONTACT, inputs, cfg)
    assert s is SpeedState.CHECK_STRAIGHT
    assert step_speed_machine(SpeedState.ACC, inputs, cfg) is SpeedState.ACC


def test_machine_vertical_slopes_count_as_straight():
    cfg = base_config()
    term, _, _ = run_speed_machine(SpeedInputs(2.0, math.inf, math.inf), cfg)
    assert term is SpeedState.CV


def test_lateral_accel_option_tightens_turn_speed():
    cfg = base_config(nominal_speed=6.0, max_lateral_accel=1.0)
    # yaw bound allows 4, lateral bound allows sqrt(1 * 4) = 2
    assert cfg.turn_speed() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Speed profile
# ---------------------------------------------------------------------------

def test_profile_all_line_ramps_from_rest():
    geom = plan_geometry([(0.0, 0.0), (40.0, 0.0)], rho=4.0)
    cfg = base_config(initial_speed=None)
    prof = build_speed_profile(geom, cfg)
    # ramp 0 -> 2 over v^2/(2a) = 2 m, then constant
    s, v, a = prof.sample(0.0)
    assert (s, v) == (0.0, 0.0)
    assert a == pytest.approx(1.0)
    t_ramp = 2.0 / 1.0
    s, v, a = prof.sample(t_ramp + 1.0)
    assert v == pytest.approx(2.0)
    assert a == 0.0


def test_profile_case_study_constant_speed():
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    cfg = base_config()  # v0 = 2, turn command min(2, 4) = 2
    prof = build_speed_profile(geom, cfg)
    assert prof.duration == pytest.approx(geom.total_length / 2.0, abs=1e-9)
    for t in np.linspace(0, prof.duration, 50):
        _, v, a = prof.sample(t)
        assert v == pytest.approx(2.0, abs=1e-12)
        assert a == 0.0


def test_profile_slows_for_infeasible_turn():
    geom = plan_geometry([(0.0, 0.0), (40.0, 0.0), (40.0, 40.0)], rho=4.0)
    cfg = base_config(nominal_speed=6.0, initial_speed=6.0)
    prof = build_speed_profile(geom, cfg)
    arc_start = geom.breakpoints[1]
    arc_end = geom.breakpoints[2]
    t_entry = prof.time_at_s(arc_start)
    _, v_entry, _ = prof.sample(t_entry)
    assert v_entry == pytest.approx(4.0, abs=1e-9)   # rho * max_yaw_rate
    # decelerating immediately before the arc, accelerating after it
    _, _, a_before = prof.sample(t_entry - 0.05)
    assert a_before == pytest.approx(-1.0)
    t_exit = prof.time_at_s(arc_end)
    _, _, a_after = prof.sample(t_exit + 0.05)
    assert a_after == pytest.approx(1.0)
    # within the arc the yaw-rate bound holds
    for t in np.linspace(t_entry, t_exit, 25):
        s, v, _ = prof.sample(t)
        if arc_start + 1e-6 < s < arc_end - 1e-6:
            assert v / 4.0 <= 1.0 + 1e-12


def test_profile_infeasible_deceleration_raises():
    geom = plan_geometry([(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)], rho=2.0)
    cfg = base_config(nominal_speed=8.0, initial_speed=8.0, decel=1.0)
    with pytest.raises(ProfileError, match="reduce the nominal"):
        build_speed_profile(geom, cfg)


def test_profile_time_and_arc_length_consistent():
    geom = plan_geometry([(0.0, 0.0), (30.0, 0.0), (30.0, 30.0)], rho=3.0)
    cfg = base_config(nominal_speed=5.0, initial_speed=0.0)
    prof = build_speed_profile(geom, cfg)
    for s in np.linspace(0.0, prof.total_length, 17):
        t = prof.time_at_s(s)
        s_back, _, _ = prof.sample(t)
        assert s_back == pytest.approx(s, abs=1e-9)


# ---------------------------------------------------------------------------
# Trajectory sampling
# ---------------------------------------------------------------------------

def case_study_trajectory():
    geom = plan_geometry(TURN_WPTS, rho=TURN_RHO)
    prof = build_speed_profile(geom, base_config())
    return DesiredTrajectory(geom, prof, turn_surface())


def test_sample_at_zero_is_first_waypoint():
    traj = case_study_trajectory()
    sample = traj.sample(0.0)
    pos, vel = sample.position, sample.velocity
    assert np.allclose(pos[:2], TURN_WPTS[0], atol=1e-12)
    assert np.linalg.norm(vel[:2]) == pytest.approx(2.0, abs=1e-12)


def test_sample_mid_line_zero_planar_accel():
    traj = case_study_trajectory()
    acc = traj.sample(1.0).acceleration  # s = 2 m, inside the first leg
    assert np.linalg.norm(acc[:2]) < 1e-12


def test_sample_mid_arc_centripetal():
    traj = case_study_trajectory()
    arc_mid_s = (traj.geometry.breakpoints[1] + traj.geometry.breakpoints[2]) / 2
    t = traj.profile.time_at_s(arc_mid_s)
    sample = traj.sample(t)
    acc_planar = sample.acceleration[:2]
    assert np.linalg.norm(acc_planar) == pytest.approx(2.0 ** 2 / 4.0, abs=1e-9)
    # directed toward the arc center
    arc = traj.geometry.segments[1]
    to_center = arc.center - sample.position[:2]
    to_center /= np.linalg.norm(to_center)
    assert np.allclose(acc_planar / np.linalg.norm(acc_planar), to_center, atol=1e-9)


def test_sample_velocity_magnitude_tracks_profile():
    traj = case_study_trajectory()
    for t in np.linspace(0, traj.duration, 29):
        s = traj.sample(t)
        _, v, _ = traj.profile.sample(t)
        assert np.linalg.norm(s.velocity[:2]) == pytest.approx(v, abs=1e-9)


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
    joins_t = [prof.time_at_s(s) for s in geom.breakpoints[1:-1]]
    break_ts = list(prof.t_pts) + joins_t
    rng = np.random.default_rng(4)
    checked = 0
    for t in rng.uniform(0.05, traj.duration - 0.05, size=60):
        if min(abs(t - b) for b in break_ts) < 5e-3:
            continue
        minus, plus, mid = traj.sample(t - h), traj.sample(t + h), traj.sample(t)
        p_minus, v_minus = minus.position, minus.velocity
        p_plus, v_plus = plus.position, plus.velocity
        vel, acc = mid.velocity, mid.acceleration
        fd_vel = (p_plus - p_minus) / (2 * h)
        fd_acc = (v_plus - v_minus) / (2 * h)
        assert np.max(np.abs(vel - fd_vel)) < 1e-5
        assert np.max(np.abs(acc - fd_acc)) < 1e-5
        checked += 1
    assert checked > 30


def test_sample_z_on_surface():
    traj = case_study_trajectory()
    for t in np.linspace(0, traj.duration, 13):
        s = traj.sample(t)
        assert s.position[2] == pytest.approx(
            traj.surface.height(s.position[0], s.position[1]), abs=1e-12)


def test_sample_out_of_range():
    traj = case_study_trajectory()
    with pytest.raises(ValueError):
        traj.sample(-0.5)
    with pytest.raises(ValueError):
        traj.sample(traj.duration + 1.0)


def test_trajectory_csv_export(tmp_path):
    traj = case_study_trajectory()
    p = tmp_path / "traj.csv"
    from offroad.local_path import write_trajectory_csv
    write_trajectory_csv(traj, 0.5, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("t_s,xd_m,yd_m,zd_m")
    assert len(lines) == 2 + int(traj.duration / 0.5)
    assert lines[1].endswith(",0,CV")
