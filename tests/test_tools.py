"""tools/route_scaling.py times `offroad route` by patching the CLI's layers
by name (`cli.load_elevation_grid`, `cli.build_obstacle_mask`,
`global_route._hop_graph`, `global_route.dijkstra`, ...) with perfbench's
span tracer.  Its timed route and its cold run, through the tools' one CLI
runner, run here on a small grid, so a renamed layer or a broken runner
fails a test instead of a scaling run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import route_scaling  # noqa: E402


@pytest.fixture(scope="module")
def route_argv(tmp_path_factory):
    """The route argv, without --out, of the tool's 40² site."""
    return route_scaling.site_argv(40, 1, tmp_path_factory.mktemp("site"))["route"]


def test_timed_route_times_every_layer(route_argv, tmp_path):
    argv = route_argv + ["--out", str(tmp_path / "route.csv")]
    call = f"route_scaling.timed_route({str(ROOT / 'src')!r}, {argv!r})"
    proc = subprocess.run([sys.executable, "-c", route_scaling.tool_code(call)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    assert list(result["layers_s"]) == list(route_scaling.LAYERS)
    assert all(seconds > 0 for seconds in result["layers_s"].values()), result


def test_cold_run_runs_the_route(route_argv, tmp_path):
    result = route_scaling.cold_run(ROOT, route_argv, tmp_path / "cold.out")
    assert result["rc"] == 0, result["stdout"]
    assert (tmp_path / "cold.csv").read_text().startswith("# total_cost=")
    assert result["peak_rss_mb"] > 0
