"""Self-tests of the benchmark: deterministic generators, an oracle that
agrees with the test suite's reference Dijkstra, and checks that reject
corrupted results.  Run with `python -m pytest perfbench`."""

import filecmp
import importlib.util
import math
import os
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from offroad.cli import main as cli_main  # noqa: E402
from offroad.global_route import compute_scaling_factors  # noqa: E402
from offroad.terrain import ElevationGrid, WeatherCondition, build_obstacle_mask  # noqa: E402

from perfbench import checks, inputs  # noqa: E402
from perfbench.reference import NOMINAL_S, HostSampler  # noqa: E402
from perfbench.workloads import Op, scaled_rate  # noqa: E402
from perfbench.oracle import DRY_LIMIT, WET_LIMIT, RouteOracle  # noqa: E402


def _reference_dijkstra():
    spec = importlib.util.spec_from_file_location(
        "offroad_tests_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dijkstra_costs_to_goal


def _same_tree(a: Path, b: Path) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


GENERATORS = {
    "route-batch": lambda seed, d: inputs.route_batch(seed, str(d), size=40, terrains=2),
    "track-case-study": lambda seed, d: inputs.track_case_study(seed, str(d)),
    "plan-and-track": lambda seed, d: inputs.plan_and_track(seed, str(d), size=80, scenarios=2),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic(tmp_path, name):
    dirs = [tmp_path / k for k in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    gen = GENERATORS[name]
    first = gen(7, dirs[0])
    second = gen(7, dirs[1])
    gen(8, dirs[2])
    assert _same_tree(dirs[0], dirs[1])
    assert [getattr(q, "start", None) for q in np.atleast_1d(first)] == \
        [getattr(q, "start", None) for q in np.atleast_1d(second)]
    if name != "track-case-study":  # the case study is fixed by design
        assert not _same_tree(dirs[0], dirs[2])


def test_oracle_matches_reference_dijkstra():
    reference = _reference_dijkstra()
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(6, 20))
        heights = 0.4 * rng.normal(size=(n, n)).cumsum(axis=0)
        water = rng.random((n, n)) < 0.15
        limit = DRY_LIMIT if trial % 2 else WET_LIMIT
        goal = (int(rng.integers(0, n)), int(rng.integers(0, n)))
        water[goal] = False
        oracle = RouteOracle(heights, 5.0, water, limit)
        if oracle.blocked[goal]:
            continue
        ours = oracle.costs_to_goal(goal)
        grid = SimpleNamespace(heights=heights, cell_size=5.0)
        ref = reference(grid, oracle.blocked, limit, goal, oracle.alpha_m, oracle.alpha_d)
        finite = {tuple(int(i) for i in node) for node in np.argwhere(np.isfinite(ours))}
        assert finite == set(ref)
        for node, cost in ref.items():
            assert ours[node] == pytest.approx(cost, rel=1e-12, abs=1e-12)

        # the oracle reads the definitions the way the program does
        program_grid = ElevationGrid(n, n, 5.0, (0.0, 0.0), heights)
        kind = "dry" if limit == DRY_LIMIT else "wet"
        mask = build_obstacle_mask(program_grid, water_mask=water, steep_limit=limit)
        assert np.array_equal(mask.blocked, oracle.blocked)
        alpha = compute_scaling_factors(program_grid, mask, WeatherCondition(kind, limit))
        assert alpha == pytest.approx((oracle.alpha_m, oracle.alpha_d), rel=1e-12)


@pytest.fixture
def routed(tmp_path):
    """A small dry query the program answers, with its oracle and output."""
    query = inputs.route_batch(3, str(tmp_path), size=30, terrains=1)[0]
    out = str(tmp_path / "route.csv")
    assert cli_main(query.argv(out)) == 0
    oracle = RouteOracle.from_files(query.grid, (query.water, query.foliage), query.weather)
    cost = float(oracle.costs_to_goal(query.goal)[query.start])
    assert math.isfinite(cost)
    return query, oracle, cost, out


def _rewrite(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def test_true_route_passes(routed):
    query, oracle, cost, out = routed
    assert checks.check_route(oracle, cost, query.start, query.goal, 0, out).ok


def test_corrupted_cost_fails(routed):
    query, oracle, cost, out = routed
    total, _ = checks.read_route(out)
    _rewrite(out, lambda lines: [lines[0].replace(repr(total), repr(total * (1 + 1e-6)))]
             + lines[1:])
    verdict = checks.check_route(oracle, cost, query.start, query.goal, 0, out)
    assert not verdict.ok and verdict.wrong_output


def test_corrupted_hop_fails(routed):
    query, oracle, cost, out = routed

    def drop_node(lines):
        return lines[:3] + lines[4:]   # skip the second waypoint

    _rewrite(out, drop_node)
    verdict = checks.check_route(oracle, cost, query.start, query.goal, 0, out)
    assert not verdict.ok and verdict.wrong_output


def test_wrong_exit_code_fails(routed):
    query, oracle, cost, out = routed
    verdict = checks.check_route(oracle, cost, query.start, query.goal, 2, out)
    assert not verdict.ok and not verdict.wrong_output
    verdict = checks.check_route(oracle, math.inf, query.start, query.goal, 0, out)
    assert not verdict.ok and verdict.wrong_output


def test_maze_is_longer_than_the_sweep_cap(tmp_path):
    maze = inputs.route_batch(0, str(tmp_path), size=30, terrains=1)[-1]
    oracle = RouteOracle.from_files(maze.grid, (maze.water,), maze.weather)
    cost = oracle.costs_to_goal(maze.goal)[maze.start]
    hops_lower_bound = cost / (oracle.alpha_d * 5.0 * math.sqrt(2))
    n = inputs.MAZE_SIZE
    assert hops_lower_bound > 4 * (n + n)


def _sim_op(name, seconds, snippet_s, steps):
    op = Op(None, name, cycle=0, index=0, steps=steps, snippet_s={"simulate": snippet_s})
    op.calls["simulate"] = (3, seconds, "")
    return op


def test_scaled_rate_follows_the_host_not_the_wall_clock():
    # the same calls on a host running at the nominal speed and at half of it
    fast = [_sim_op("a", 1.0, NOMINAL_S, 1000), _sim_op("b", 3.0, NOMINAL_S, 2000)]
    slow = [_sim_op("a", 2.0, 2 * NOMINAL_S, 1000), _sim_op("b", 6.0, 2 * NOMINAL_S, 2000)]
    assert scaled_rate(fast, "simulate", lambda op: op.steps)[0] == pytest.approx(750.0)
    assert scaled_rate(slow, "simulate", lambda op: op.steps)[0] == pytest.approx(750.0)
    # per query, the median call counts: one slow outlier does not move it
    mixed = fast + [_sim_op("a", 1.0, NOMINAL_S, 1000), _sim_op("a", 9.0, NOMINAL_S, 1000)]
    assert scaled_rate(mixed, "simulate", lambda op: op.steps)[0] == pytest.approx(750.0)


def test_host_sampler_runs_inside_the_call_and_stops():
    with HostSampler(interval=0.01) as sampler:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    scalar, sweeps = sampler.times
    assert len(scalar) + len(sweeps) > 4 and scalar and sweeps
    assert 0.0 < sampler.inside_s < 0.2 and sampler.mean_s > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
