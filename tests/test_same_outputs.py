"""tools/same_outputs.py runs every command in fresh processes in two trees
and reports each artifact that differs.  Here the working tree is both
sides on a reduced input set, and two hand-made output trees check the
report."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402
from perfbench import inputs  # noqa: E402


def test_the_working_tree_is_identical_to_itself(tmp_path, capsys):
    (tmp_path / "inputs").mkdir()
    jobs = same_outputs.route_jobs(
        "route", inputs.route_batch(1, str(tmp_path / "inputs"), terrains=0))
    jobs["case-study"] = same_outputs.simulate_job(
        inputs.track_case_study(1, str(tmp_path / "inputs")),
        str(tmp_path / "inputs" / "case.csv"))
    src = ROOT / "src"
    assert same_outputs.compare(src, src, jobs, tmp_path) == 0
    assert capsys.readouterr().out == "identical\n"
    # every command ran and wrote its files
    assert sorted(p.name for p in (tmp_path / "change" / "case-study").iterdir()) == [
        "0-simulate.exit", "0-simulate.stderr", "0-simulate.stdout",
        "1-render.exit", "1-render.stderr", "1-render.stdout",
        "log.csv", "scene.svg", "trajectory.csv"]
    assert (tmp_path / "change" / "route-maze-dry" / "route.svg").is_file()


def test_a_changed_byte_and_exit_code_are_both_reported(tmp_path):
    for side in ("base", "change"):
        job = tmp_path / side / "job"
        job.mkdir(parents=True)
        (job / "0-route.exit").write_text("0\n")
        (job / "route.csv").write_bytes(b"row,col\n1,2\n")
    (tmp_path / "change" / "job" / "0-route.exit").write_text("2\n")
    (tmp_path / "change" / "job" / "route.csv").write_bytes(b"row,col\n1,3\n")
    assert same_outputs.differences(tmp_path / "base", tmp_path / "change") == [
        "job/0-route.exit: exit code 0 -> 2",
        "job/route.csv: differs from byte 10, line 2",
    ]


def test_the_plan_variants_grow_the_window_and_give_up(tmp_path, capsys):
    # seed 1's plan0 with its goal ringed by water exits 2 with the
    # UNREACHABLE line, and its wet variant is a config of wet weather
    directory = tmp_path / "plan-1"
    directory.mkdir()
    scenario = inputs.plan_and_track(1, str(directory), scenarios=1)[0]
    jobs = same_outputs.plan_variant_jobs(directory, scenario)
    assert sorted(jobs) == ["plan-1-plan0-walled", "plan-1-plan0-wet"]
    assert "kind = wet" in (directory / "plan0-wet.cfg").read_text()
    walled = {"plan-1-plan0-walled": jobs["plan-1-plan0-walled"]}
    src = ROOT / "src"
    assert same_outputs.compare(src, src, walled, tmp_path) == 0
    assert capsys.readouterr().out == "identical\n"
    out = tmp_path / "change" / "plan-1-plan0-walled"
    assert (out / "0-simulate.exit").read_text() == "2\n"
    assert (out / "0-simulate.stdout").read_text().startswith("UNREACHABLE: no admissible path")
