"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line with its headline numbers (run with -s to see them inline).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from offroad.cli import EXIT_OK, EXIT_UNREACHABLE, main
from offroad.control import GainConfig
from offroad.global_route import (
    build_dp_problem,
    extract_route,
    value_iteration,
)
from offroad.local_path import (
    ArcSegment,
    DesiredTrajectory,
    TrajectoryConfig,
    build_speed_profile,
    plan_geometry,
)
from offroad.simulate import (
    STATUS_COMPLETED,
    Scenario,
    run_simulation,
    tracking_metrics,
)
from offroad.terrain import (
    SurfaceModel,
    WeatherCondition,
    build_obstacle_mask,
    euler_angles,
    euler_rates,
    normal_with_gradient,
    rotation_from_angles,
    write_grid_csv,
)
from offroad.vehicle import (
    VehicleParams,
    VehicleState,
    accel_to_controls,
    frame_and_motion,
    realized_acceleration,
)

from conftest import (
    dijkstra_costs_to_goal,
    flat_grid,
    grid_from_function,
    random_problem,
)

DRY = WeatherCondition.dry()
WET = WeatherCondition.wet()
FREE = VehicleParams(wheelbase=2.0, mass=1000.0, max_steer=None, max_steer_rate=None)
GAINS = GainConfig(k1=10.0, k2=20.0)
SLOW_POLE = 5.0 - math.sqrt(5.0)      # magnitude of the slow closed-loop mode

CASE_WPTS = [(885.0, 418.5), (892.5, 411.0), (885.0, 403.5)]


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def case_study():
    surface = SurfaceModel(grid_from_function(
        lambda x, y: 0.05 * np.sin(x / 30.0) * np.cos(y / 25.0),
        n_cols=41, n_rows=41, cell=2.0, origin=(850.0, 370.0)))
    geometry = plan_geometry(CASE_WPTS, rho=4.0)
    config = TrajectoryConfig(nominal_speed=2.0, turn_radius=4.0, max_yaw_rate=1.0,
                              initial_speed=2.0)
    trajectory = DesiredTrajectory(geometry, build_speed_profile(geometry, config),
                                   surface)
    return surface, trajectory


def ridge_grid():
    grid = flat_grid(n=7, cell=10.0)
    grid.heights[3, :] = 1.0
    return grid


def test_criterion_1_value_iteration_matches_dijkstra():
    """100 seeded random grids, random masks, both slope limits, <10 s."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 65))
        grid, mask, goal = random_problem(rng, n=n, cell=10.0,
                                          obstacle_p=0.12, rough=8.0)
        weather = DRY if trial % 2 == 0 else WET
        problem = build_dp_problem(grid, mask, weather, goal=goal,
                                   alpha=(0.9, 0.1))
        vf = value_iteration(problem)
        assert vf.converged
        oracle = dijkstra_costs_to_goal(grid, mask.blocked, weather.slope_limit,
                                        goal, 0.9, 0.1)
        for (r, c), expect in oracle.items():
            diff = abs(vf.values[r, c] - expect)
            worst = max(worst, diff)
            assert diff < 1e-9
        # unreachable agreement: oracle misses exactly the +inf states
        finite = np.isfinite(vf.values)
        assert finite.sum() == len(oracle)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"100 grids, worst |V - dijkstra| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_weather_reachability_flip(tmp_path):
    """Ridge fixture: routable dry at tan(6.90deg), unreachable wet at
    tan(2.77deg); each run under 1 s."""
    grid_path = tmp_path / "ridge.csv"
    write_grid_csv(ridge_grid(), str(grid_path))
    out = tmp_path / "route.csv"

    t0 = time.perf_counter()
    code_dry = main(["route", "--grid", str(grid_path), "--start", "6,3",
                     "--goal", "0,3", "--weather", "dry", "--out", str(out)])
    t_dry = time.perf_counter() - t0
    t0 = time.perf_counter()
    code_wet = main(["route", "--grid", str(grid_path), "--start", "6,3",
                     "--goal", "0,3", "--weather", "wet", "--out",
                     str(tmp_path / "route_wet.csv")])
    t_wet = time.perf_counter() - t0

    assert code_dry == EXIT_OK
    assert code_wet == EXIT_UNREACHABLE
    assert t_dry < 1.0 and t_wet < 1.0
    report(2, f"dry exit {code_dry} in {t_dry * 1e3:.0f} ms, "
              f"wet exit {code_wet} in {t_wet * 1e3:.0f} ms")


def test_criterion_3_route_slope_compliance():
    """Every hop of every generated route respects the active slope limit."""
    rng = np.random.default_rng(7)
    routes_checked = 0
    for trial in range(20):
        n = int(rng.integers(10, 25))
        grid, mask, goal = random_problem(rng, n=n, cell=10.0,
                                          obstacle_p=0.1, rough=6.0)
        weather = DRY if trial % 2 == 0 else WET
        problem = build_dp_problem(grid, mask, weather, goal=goal, alpha=(0.9, 0.1))
        vf = value_iteration(problem)
        limit_deg = math.degrees(math.atan(weather.slope_limit))
        for _ in range(6):
            start = (int(rng.integers(0, n)), int(rng.integers(0, n)))
            if mask.blocked[start]:
                continue
            route = extract_route(vf, problem, start)
            if not route.reachable or len(route.waypoints) < 2:
                continue
            assert route.max_slope_deg <= limit_deg + 1e-9
            for a, b in zip(route.waypoints, route.waypoints[1:]):
                run = grid.cell_size * math.hypot(b[0] - a[0], b[1] - a[1])
                slope = abs(grid.heights[b] - grid.heights[a]) / run
                assert slope <= weather.slope_limit + 1e-12
            routes_checked += 1
    assert routes_checked >= 30
    report(3, f"{routes_checked} routes, all hops within the active limit")


def test_criterion_4_frame_and_kinematics_suite():
    """Normals, angle round trips, and derivative checks on 1000+ samples
    over three synthetic surfaces in under 5 s."""
    surfaces = [
        SurfaceModel(grid_from_function(
            lambda x, y: 1.2 * np.sin(x / 4.0) * np.cos(y / 5.0),
            n_cols=40, n_rows=40)),
        SurfaceModel(grid_from_function(
            lambda x, y: 0.05 * (x - 20.0) ** 2 + 0.03 * (y - 20.0) ** 2,
            n_cols=40, n_rows=40)),
        SurfaceModel(grid_from_function(
            lambda x, y: 0.4 * x - 0.25 * y + 2.0, n_cols=40, n_rows=40)),
    ]
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    n_samples = 0
    h = 1e-4
    for surf in surfaces:
        for _ in range(400):
            x = rng.uniform(3.0, 36.0)
            y = rng.uniform(3.0, 36.0)
            n, dn_dx, dn_dy = normal_with_gradient(surf.eval(x, y))
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert n[2] > 0
            phi, theta = euler_angles(n)
            assert np.max(np.abs(rotation_from_angles(phi, theta)[2] - n)) < 1e-12

            f, fx, fy, fxx, fyy, fxy = surf.eval(x, y)
            fd_fx = (surf.height(x + h, y) - surf.height(x - h, y)) / (2 * h)
            fd_fy = (surf.height(x, y + h) - surf.height(x, y - h)) / (2 * h)
            assert abs(fx - fd_fx) < 1e-5
            assert abs(fy - fd_fy) < 1e-5

            x_dot, y_dot = rng.normal(size=2)
            pd, td = euler_rates(n, dn_dx * x_dot + dn_dy * y_dot)
            ang_a = euler_angles(normal_with_gradient(surf.eval(x - h * x_dot, y - h * y_dot))[0])
            ang_b = euler_angles(normal_with_gradient(surf.eval(x + h * x_dot, y + h * y_dot))[0])
            fd_pd = (ang_b[0] - ang_a[0]) / (2 * h)
            fd_td = (ang_b[1] - ang_a[1]) / (2 * h)
            scale = max(abs(fd_pd), abs(fd_td), 1e-3)
            assert abs(pd - fd_pd) / scale < 1e-5
            assert abs(td - fd_td) / scale < 1e-5
            n_samples += 1
    elapsed = time.perf_counter() - t0
    assert n_samples >= 1000
    assert elapsed < 5.0
    report(4, f"{n_samples} samples over {len(surfaces)} surfaces, {elapsed:.2f}s")


def test_criterion_5_control_inversion_round_trip():
    """1000 random states: inversion then reconstruction matches the in-plane
    commanded acceleration to 1e-9, in under 1 s."""
    surf = SurfaceModel(grid_from_function(
        lambda x, y: 0.8 * np.sin(x / 4.0) * np.cos(y / 5.0),
        n_cols=30, n_rows=30))
    rng = np.random.default_rng(5150)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state = VehicleState(x=rng.uniform(3, 26), y=rng.uniform(3, 26),
                             psi=rng.uniform(-math.pi, math.pi),
                             speed=rng.uniform(0.2, 8.0),
                             steer=rng.uniform(-1.2, 1.2))
        ctx = frame_and_motion(surf, state, FREE)
        frame, omega_b = ctx.frame, ctx.omega_b
        r_ddot = rng.normal(scale=3.0, size=3)
        control = accel_to_controls(state, frame, omega_b, r_ddot, FREE)
        rebuilt = realized_acceleration(state, control, frame, omega_b)
        for basis in (frame.i_b, frame.j_b):
            worst = max(worst, abs(float((rebuilt - r_ddot) @ basis)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(5, f"1000 states, worst in-plane residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_tracking_reproduction():
    """Case-study scenario: bounded error with its peak at the turn, positive
    contact force, straight-segment decay at the slow closed-loop pole."""
    surface, trajectory = case_study()
    t0 = time.perf_counter()
    log = run_simulation(Scenario(surface=surface, trajectory=trajectory,
                                  gains=GAINS, params=FREE, dt=0.01))
    elapsed = time.perf_counter() - t0
    assert log.status == STATUS_COMPLETED
    assert elapsed < 5.0

    metrics = tracking_metrics(log)
    assert metrics.max_err <= 0.15
    assert metrics.min_normal_force > 0.0

    t_entry = trajectory.profile.time_at_s(trajectory.geometry.breakpoints[1])
    t_exit = trajectory.profile.time_at_s(trajectory.geometry.breakpoints[2])
    assert t_entry - 0.5 <= metrics.t_max_err <= t_exit + 0.5

    # the arc-exit transient decays along the final straight at the slow pole
    sel = (log.t > t_exit + 0.4) & (log.t < t_exit + 2.2) & (log.err > 1e-12)
    fit = np.vstack([log.t[sel], np.ones(int(sel.sum()))]).T
    slope = np.linalg.lstsq(fit, np.log(log.err[sel]), rcond=None)[0][0]
    assert abs(slope + SLOW_POLE) / SLOW_POLE < 0.05
    report(6, f"max err {metrics.max_err:.2e} m at t={metrics.t_max_err:.2f}s "
              f"(arc {t_entry:.2f}..{t_exit:.2f}s), min F_N "
              f"{metrics.min_normal_force:.0f} N, decay {slope:.3f} vs "
              f"{-SLOW_POLE:.3f}, {elapsed:.2f}s")


def error_dynamics_residuals(log, k1, k2, exclude_times=(), stencil=2.5):
    """Relative residual of the finite-differenced error dynamics identity."""
    E = np.stack([log.x - log.xd, log.y - log.yd], axis=1)
    dt = log.dt
    Edd = (E[2:] - 2 * E[1:-1] + E[:-2]) / dt ** 2
    Ed = (E[2:] - E[:-2]) / (2 * dt)
    res = Edd + k1 * Ed + k2 * E[1:-1]
    scale = np.maximum.reduce([
        np.linalg.norm(Edd, axis=1), k1 * np.linalg.norm(Ed, axis=1),
        k2 * np.linalg.norm(E[1:-1], axis=1),
        np.full(len(E) - 2, k2 * 1e-6),
    ])
    keep = ~log.clamped[1:-1]
    t_mid = log.t[1:-1]
    for tx in exclude_times:
        keep &= np.abs(t_mid - tx) > stencil * dt
    return np.linalg.norm(res, axis=1)[keep] / scale[keep]


def test_criterion_7_error_dynamics_identity():
    """Finite-differenced error dynamics residual below 1e-2 of term scale on
    unclamped intervals."""
    # run with a macroscopic initial error so the identity is exercised far
    # above the numerical noise floor
    surf = SurfaceModel(flat_grid(n=40, cell=2.0))
    geometry = plan_geometry([(5.0, 40.0), (70.0, 40.0)], rho=4.0)
    config = TrajectoryConfig(nominal_speed=3.0, turn_radius=4.0, max_yaw_rate=1.0,
                              initial_speed=3.0)
    trajectory = DesiredTrajectory(geometry, build_speed_profile(geometry, config), surf)
    init = VehicleState(x=5.0, y=40.4, psi=0.0, speed=3.0, steer=0.0)
    log = run_simulation(Scenario(surface=surf, trajectory=trajectory, gains=GAINS,
                                  params=FREE, dt=0.01, initial_state=init))
    assert log.status == STATUS_COMPLETED
    rel = error_dynamics_residuals(log, GAINS.k1, GAINS.k2)
    assert rel.max() < 1e-2

    # and on the case-study run, away from the reference-acceleration jumps
    # at the arc junctions where the identity holds only one-sidedly
    surface, trajectory = case_study()
    log2 = run_simulation(Scenario(surface=surface, trajectory=trajectory,
                                   gains=GAINS, params=FREE, dt=0.01))
    junctions = [trajectory.profile.time_at_s(s)
                 for s in trajectory.geometry.breakpoints[1:-1]]
    rel2 = error_dynamics_residuals(log2, GAINS.k1, GAINS.k2,
                                    exclude_times=junctions)
    assert rel2.max() < 1e-2
    report(7, f"offset run max residual {rel.max():.2e}, "
              f"case-study run {rel2.max():.2e} (limit 1e-2)")


def test_criterion_8_geometry_oracle():
    """50 random corners: fillet tangency to 1e-9 rad, profile yaw rate within
    the bound, quadrature length within 1e-6 relative."""
    rng = np.random.default_rng(31337)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    built = 0
    while built < 50:
        a = rng.uniform(-60, 60, size=2)
        b = rng.uniform(-60, 60, size=2)
        c = rng.uniform(-60, 60, size=2)
        d_in, d_out = b - a, c - b
        if min(np.linalg.norm(d_in), np.linalg.norm(d_out)) < 8.0:
            continue
        turn = abs(math.atan2(d_in[0] * d_out[1] - d_in[1] * d_out[0], d_in @ d_out))
        if turn < 0.05 or turn > 2.5:
            continue
        rho = float(rng.uniform(0.8, 4.0))
        if rho * math.tan(turn / 2) > min(np.linalg.norm(d_in),
                                          np.linalg.norm(d_out)) - 0.5:
            continue
        geometry = plan_geometry([a, b, c], rho=rho)

        # tangent continuity at the joins
        for s_join in geometry.breakpoints[1:-1]:
            t_minus = geometry.tangent_at(s_join - 1e-12)
            t_plus = geometry.tangent_at(s_join + 1e-12)
            mismatch = math.atan2(
                abs(t_minus[0] * t_plus[1] - t_minus[1] * t_plus[0]),
                float(t_minus @ t_plus))
            assert mismatch < 1e-9

        # profile speed on the arc never exceeds the yaw-rate bound
        config = TrajectoryConfig(
            nominal_speed=float(rng.uniform(1.0, 6.0)), turn_radius=rho,
            max_yaw_rate=float(rng.uniform(0.4, 1.5)),
            accel=1.0, decel=1.0, initial_speed=0.0)
        profile = build_speed_profile(geometry, config)
        for seg_idx, seg in enumerate(geometry.segments):
            if not isinstance(seg, ArcSegment):
                continue
            s_lo = geometry.breakpoints[seg_idx]
            s_hi = geometry.breakpoints[seg_idx + 1]
            span = (profile.s_pts >= s_lo - 1e-9) & (profile.s_pts <= s_hi + 1e-9)
            v_max = max(profile.v_pts[span].max(initial=0.0),
                        abs(profile.sample(profile.time_at_s(s_lo))[1]),
                        abs(profile.sample(profile.time_at_s(s_hi))[1]))
            assert v_max / seg.radius <= config.max_yaw_rate + 1e-12

        # Gauss quadrature of the finite-difference speed reproduces length
        h = 1e-6
        for seg_idx in range(len(geometry.segments)):
            s_lo = geometry.breakpoints[seg_idx]
            s_hi = geometry.breakpoints[seg_idx + 1]
            half = (s_hi - s_lo) / 2.0
            mid = (s_hi + s_lo) / 2.0
            total = 0.0
            for node, weight in zip(nodes, weights):
                s = mid + half * node
                lo = max(s - h, 0.0)
                hi = min(s + h, geometry.total_length)
                d = (geometry.point_at(hi) - geometry.point_at(lo)) / (hi - lo)
                total += weight * float(np.linalg.norm(d))
            integrated = total * half
            seg_len = s_hi - s_lo
            assert abs(integrated - seg_len) / seg_len < 1e-6
        built += 1
    report(8, f"{built} corners: tangency <1e-9 rad, yaw bound held, "
              "quadrature length within 1e-6")


def test_criterion_9_deterministic_outputs(tmp_path):
    """Repeated identical route and simulate runs produce byte-identical CSVs."""
    grid_path = tmp_path / "ridge.csv"
    write_grid_csv(ridge_grid(), str(grid_path))
    route_bytes = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["route", "--grid", str(grid_path), "--start", "6,3",
                     "--goal", "0,3", "--weather", "dry", "--out", str(out)]) == EXIT_OK
        route_bytes.append(out.read_bytes())
    assert route_bytes[0] == route_bytes[1]

    case_grid = grid_from_function(
        lambda x, y: 0.05 * np.sin(x / 30.0) * np.cos(y / 25.0),
        n_cols=41, n_rows=41, cell=2.0, origin=(850.0, 370.0))
    write_grid_csv(case_grid, str(tmp_path / "case.csv"))
    (tmp_path / "run.cfg").write_text(
        "[terrain]\ngrid = case.csv\n\n"
        "[path]\nwaypoints = 885.0,418.5; 892.5,411.0; 885.0,403.5\n"
        "turn_radius = 4.0\nnominal_speed = 2.0\nmax_yaw_rate = 1.0\n"
        "initial_speed = 2.0\n\n"
        "[vehicle]\nmax_steer = none\nmax_steer_rate = none\n\n"
        "[controller]\nk1 = 10.0\nk2 = 20.0\n\n"
        "[simulation]\ndt = 0.01\n")
    sim_bytes = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                     "--out-dir", str(out_dir)]) == EXIT_OK
        sim_bytes.append(((out_dir / "trajectory.csv").read_bytes(),
                          (out_dir / "log.csv").read_bytes()))
    assert sim_bytes[0] == sim_bytes[1]
    report(9, "route and simulate outputs byte-identical across reruns")


def rolling_grid(rng, n, cell):
    """Seeded sum of three long-wavelength sinusoids, roughly 10 m high."""
    terms = [(rng.uniform(4.0, 8.0), rng.uniform(300.0, 900.0), rng.uniform(0.0, 2 * np.pi),
              rng.uniform(0.0, np.pi)) for _ in range(3)]

    def height(x, y):
        z = np.zeros_like(x)
        for amp, wavelength, phase, heading in terms:
            along = x * np.cos(heading) + y * np.sin(heading)
            z += amp * np.sin(2 * np.pi * along / wavelength + phase)
        return z

    return grid_from_function(height, n_cols=n, n_rows=n, cell=cell)


def test_criterion_10_route_800_squared_under_5_s():
    """Tables, exact solve and route extraction on a seeded rolling 800x800
    grid in under 5 s; every hop respects the slope limit."""
    n = 800
    grid = rolling_grid(np.random.default_rng(800), n, cell=5.0)
    mask = build_obstacle_mask(grid, steep_limit=DRY.slope_limit)
    start, goal = (n - 1 - n // 10, n - 1 - n // 10), (n // 10, n // 10)
    t0 = time.perf_counter()
    problem = build_dp_problem(grid, mask, DRY, goal=goal)
    vf = value_iteration(problem)
    route = extract_route(vf, problem, start)
    elapsed = time.perf_counter() - t0
    assert vf.converged
    assert route.reachable and route.waypoints[0] == start and route.waypoints[-1] == goal
    for a, b in zip(route.waypoints, route.waypoints[1:]):
        assert max(abs(b[0] - a[0]), abs(b[1] - a[1])) == 1
        assert not mask.blocked[b]
        run = grid.cell_size * math.hypot(b[0] - a[0], b[1] - a[1])
        assert abs(grid.heights[b] - grid.heights[a]) / run <= DRY.slope_limit
    assert elapsed < 5.0
    report(10, f"{n}x{n}: {len(route.waypoints)} waypoints, max slope "
               f"{route.max_slope_deg:.2f} deg, {elapsed:.2f}s")
