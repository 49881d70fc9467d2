from __future__ import annotations

import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gridnav import (
    AGENTS,
    CONTROLLER_STATES,
    ExecutorError,
    ExperimentSpec,
    actions_to_text,
    experiment_instances,
    fixture_map,
    generate_behaviours,
    generate_maze,
    instantiate_actions,
    learn_controller,
    map_fixture_names,
    observation_matrices,
    run_experiment,
    run_single,
    serialize_map,
    solve,
    zero_map,
)
from gridnav import cli, workbench
from gridnav.cli import main as cli_main
from gridnav.workbench import REPORT_HEADER, controller_examples

from test_executors import count_calls
from test_fsc import tuple_universe
from test_grid import adjacency_edges, connected_component

MAZE_A_CONTROLLER = str(Path(__file__).resolve().parent.parent / "src/gridnav/controllers/maze_a.fsc")

# sha256 of pipeline_lines: any change to a learned program, a behaviour, an
# action listing, a plan, an executor run or a desk lake row shows here.
PIPELINE_DIGEST = "9d76330b932af0e1066d87d7450e25f615e544d7901f371923c4ad03c792f9e9"

# sha256 of the per-instance CSVs of the five desk maze rows at seed 0, in
# AGENTS order.  tests/full_rows.py pins the --full rows.
DESK_MAZE_ROWS_DIGEST = "21e8f20de8ad91c590147496ff4e5f64bb2cb5324bf44eca65cc35143ead3752"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gridnav.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


class TestExperiments:
    def test_instances_are_agent_independent_and_deterministic(self):
        a = experiment_instances(ExperimentSpec("solver", "maze", 9, 9, 3, seed=5))
        b = experiment_instances(ExperimentSpec("fsc-bt", "maze", 9, 9, 3, seed=5))
        assert [(n, g) for n, g in a] == [(n, g) for n, g in b]

    def test_lake_instances_reroll_endpoints(self):
        spec = ExperimentSpec("solver", "lake", 20, 20, 6, seed=1)
        instances = experiment_instances(spec)
        endpoints = {(g.start, g.end) for _, g in instances}
        assert len(endpoints) > 1

    def test_lake_spec_must_match_fixture_dimensions(self):
        with pytest.raises(ValueError, match="not 50x50"):
            experiment_instances(ExperimentSpec("solver", "lake", 50, 50, 5))
        with pytest.raises(ValueError, match="not 50x50"):
            run_experiment(ExperimentSpec("solver", "lake", 50, 50, 5))

    def test_instances_are_built_as_they_are_iterated(self, monkeypatch):
        built = count_calls(monkeypatch, workbench, "generate_maze")
        instances = experiment_instances(ExperimentSpec("solver", "maze", 9, 9, 3, seed=5))
        assert built == []
        for count in (1, 2, 3):
            next(instances)
            assert len(built) == count
        assert next(instances, None) is None

    def test_an_even_maze_size_raises_at_the_call(self, monkeypatch):
        built = count_calls(monkeypatch, workbench, "generate_maze")
        with pytest.raises(ValueError, match="^maze dimensions must be odd, got 10x9$"):
            experiment_instances(ExperimentSpec("solver", "maze", 10, 9, 3))
        assert built == []

    @pytest.mark.parametrize("spec, digest", [
        (ExperimentSpec.desk_lake("solver"),
         "8c692ab99608e9d9841fcda17af3c4329d480221d8dab5eb6f7775e4b75c75bc"),
        (ExperimentSpec.desk_maze("solver"),
         "0cb40462e4988b2fdeeb155e1bf4b3b0285f71b6c769db06ea81532128f23035"),
    ], ids=["desk-lake", "desk-maze"])
    def test_seed_zero_instance_sets_are_pinned(self, spec, digest):
        h = hashlib.sha256()
        for name, grid in experiment_instances(spec):
            h.update(f"{name}\n{serialize_map(grid)}".encode())
        assert h.hexdigest() == digest

    def test_seed_zero_desk_maze_rows_are_pinned(self, solver_hypothesis, learned_controller):
        h = hashlib.sha256()
        for agent in AGENTS:
            report = run_experiment(ExperimentSpec.desk_maze(agent), solver=solver_hypothesis,
                                    controller=learned_controller)
            h.update(report.to_csv().encode())
        assert h.hexdigest() == DESK_MAZE_ROWS_DIGEST

    @pytest.mark.parametrize("spec, message", [
        (ExperimentSpec("nobody", "maze", 11, 11, 2), "unknown agent 'nobody'"),
        (ExperimentSpec("fsc-bt", "swamp", 11, 11, 2), "unknown environment 'swamp'"),
        (ExperimentSpec("solver", "maze", 11, 11, 0), "at least one instance, got 0"),
        (ExperimentSpec("fsc-re", "lake", 20, 20, -1), "at least one instance, got -1"),
        (ExperimentSpec("solver", "maze"), "maze dimensions must be odd, got 50x50"),
        (ExperimentSpec("fsc-bt", "maze", 3, 5, 2), "maze dimensions must be at least 5x5, got 3x5"),
    ], ids=["agent", "environment", "no-instances", "negative-instances", "even-maze",
            "small-maze"])
    def test_bad_spec_is_rejected_before_learning(self, monkeypatch, spec, message):
        def learning(*args, **kwargs):
            raise AssertionError("learned before the spec was checked")

        monkeypatch.setattr(workbench, "learn_solver", learning)
        monkeypatch.setattr(workbench, "learn_controller", learning)
        with pytest.raises(ValueError, match=message):
            run_experiment(spec)

    @pytest.mark.parametrize("spec, error, message", [
        (ExperimentSpec("fsc-bt", "lake", 20, 20, 50, step_budget=-3), ExecutorError,
         "step_budget must be non-negative, got -3"),
        (ExperimentSpec("solver", "lake", 20, 20, 50, step_budget=5), ValueError,
         "step_budget applies to controller agents only"),
    ], ids=["negative", "solver"])
    def test_bad_step_budget_is_rejected_before_any_work(self, monkeypatch, spec, error,
                                                         message):
        def working(*args, **kwargs):
            raise AssertionError("built instances or learned before the budget was checked")

        # Instances are built lazily, as the runs take them, so the guard
        # replaces what builds them: the fixtures, mazes and endpoint copies.
        for name in ("experiment_instances", "fixture_map", "generate_maze", "with_endpoints",
                     "learn_solver", "learn_controller"):
            monkeypatch.setattr(workbench, name, working)
        with pytest.raises(error, match=f"^{message}$"):
            run_experiment(spec)

    def test_report_determinism(self, solver_hypothesis):
        spec = ExperimentSpec("solver", "maze", 9, 9, 4, seed=2)
        first = run_experiment(spec, solver=solver_hypothesis)
        second = run_experiment(spec, solver=solver_hypothesis)
        assert first.records == second.records

    def test_solver_report(self, solver_hypothesis):
        spec = ExperimentSpec("solver", "maze", 9, 9, 4, seed=2)
        report = run_experiment(spec, solver=solver_hypothesis)
        assert report.solved_fraction == 1.0
        assert report.mean_steps > 0
        assert len(report.table_row().split()) >= 6
        assert REPORT_HEADER.split() == ["Agent", "Env", "Dims", "Instances", "Solved", "Steps"]

    def test_csv_records(self, solver_hypothesis):
        spec = ExperimentSpec("solver", "maze", 9, 9, 2, seed=2)
        report = run_experiment(spec, solver=solver_hypothesis)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "instance,agent,outcome,steps"
        assert len(lines) == 3
        assert lines[1].startswith("maze-000,solver,solved,")

    def test_solved_traces_replay(self, solver_hypothesis, learned_controller):
        from gridnav import playback

        spec = ExperimentSpec("fsc-re", "maze", 9, 9, 3, seed=7)
        report = run_experiment(spec, solver=solver_hypothesis, controller=learned_controller)
        instances = list(experiment_instances(spec))
        assert [record.instance for record in report.records] == [name for name, _ in instances]
        for record, (_, grid) in zip(report.records, instances):
            run = run_single(spec.agent, grid, controller=learned_controller)
            assert record.outcome == run.outcome == "solved"
            assert record.steps == run.steps
            assert playback(grid, run.labels)[0]

    def test_unknown_agent(self, maze_a):
        with pytest.raises(ValueError):
            run_single("teleport", maze_a)

    def test_solver_agent_needs_a_hypothesis(self, learned_controller, maze_a):
        with pytest.raises(ValueError, match="^solver agent needs a hypothesis$"):
            run_single("solver", maze_a, controller=learned_controller)

    def test_controller_agent_needs_a_controller(self, solver_hypothesis, maze_a):
        with pytest.raises(ValueError, match="^agent 'fsc-bt' needs a controller$"):
            run_single("fsc-bt", maze_a, solver=solver_hypothesis)

    def test_solver_rejects_a_step_budget(self, solver_hypothesis, maze_a):
        with pytest.raises(ValueError, match="controller agents only"):
            run_single("solver", maze_a, solver=solver_hypothesis, step_budget=100)

    def test_fewer_matrices_fewer_tuples(self, solver_hypothesis, learned_controller):
        reduced = learn_controller(solver_hypothesis, observation_matrices()[:-1])
        assert len(reduced.tuples) < len(learned_controller.tuples)

    def test_controller_examples_rebase_each_behaviour(self, solver_hypothesis):
        # The examples are each behaviour's goal once per incoming controller
        # state: the whole behaviour as a suffix of (q, o, a, q') labels, its
        # first controller state replaced, to the empty suffix.
        behaviours = generate_behaviours(observation_matrices(), solver_hypothesis)
        assert len(behaviours) == 32
        expected = []
        for behaviour in behaviours:
            for q in CONTROLLER_STATES:
                initial = tuple((q if i == 0 else t.q, t.o, t.a, t.q_next)
                                for i, t in enumerate(behaviour))
                expected.append((initial, ()))
        assert controller_examples(behaviours) == expected

    def test_an_empty_behaviour_has_no_controller_example(self):
        with pytest.raises(ValueError, match="^behaviour must contain at least one tuple$"):
            controller_examples([()])


def pipeline_lines(solver, controller):
    """Text forms of the pipeline's outputs: the learned programs, the
    behaviours, every action listing, plans, executor runs and desk lake
    rows."""
    yield solver.to_text()
    yield controller.to_text()
    for behaviour in generate_behaviours(observation_matrices(), solver):
        yield ",".join(t.as_line() for t in behaviour)
    for grid in [zero_map()] + [fixture_map(name) for name in map_fixture_names()]:
        yield actions_to_text(instantiate_actions(grid))
    for size in (51, 101):
        for seed in range(4):
            plan = solve(generate_maze(size, size, seed), solver)
            yield f"maze {size} {seed}: {plan.to_labels_line()}"
    for agent in AGENTS[1:]:
        for seed in range(4):
            run = run_single(agent, generate_maze(51, 51, seed), controller=controller)
            path = " ".join(map(repr, run.result.path))
            yield f"{agent} {seed}: {run.outcome} {run.steps} {','.join(run.labels)} {path}"
    for agent in AGENTS:
        report = run_experiment(ExperimentSpec.desk_lake(agent), solver=solver,
                                controller=controller)
        yield report.table_row()
        yield report.to_csv()


def test_pipeline_outputs_are_pinned(solver_hypothesis, learned_controller):
    h = hashlib.sha256()
    for line in pipeline_lines(solver_hypothesis, learned_controller):
        h.update(f"{line}\n".encode())
    assert h.hexdigest() == PIPELINE_DIGEST


# Prints the learned programs and each controller agent's labels on two
# fixtures; string hashes, and so set and dict order, vary with the hash seed.
HASH_SEED_SCRIPT = """
from gridnav import fixture_map, learn_controller, learn_solver, run_single
solver = learn_solver()
controller = learn_controller(solver)
print(solver.to_text() + controller.to_text(), end="")
for name in ("maze_a", "lake_01"):
    for agent in ("fsc-bt", "fsc-re", "fsc-bt-slam", "fsc-re-slam"):
        run = run_single(agent, fixture_map(name), controller=controller)
        print(name, agent, ",".join(run.labels))
"""


def test_learned_outputs_do_not_depend_on_the_hash_seed():
    outputs = [
        subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "99")
    ]
    assert len(outputs[0].splitlines()) == 8 + 128 + 8
    assert outputs[0] == outputs[1]


class TestCli:
    def test_gen_maze_writes_perfect_maze(self, tmp_path):
        out = tmp_path / "m.map"
        result = run_cli("gen", "maze", "21", "21", "--seed", "7", "--out", str(out))
        assert result.returncode == 0
        from gridnav import parse_map

        maze = parse_map(out.read_text(), "m")
        cells = maze.passable_cells()
        assert len(adjacency_edges(maze)) == len(cells) - 1
        assert connected_component(maze, cells[0]) == set(cells)

    def test_gen_lake_connected(self, tmp_path):
        out = tmp_path / "l.map"
        result = run_cli("gen", "lake", "20", "20", "--seed", "7", "--out", str(out))
        assert result.returncode == 0
        from gridnav import parse_map

        lake = parse_map(out.read_text(), "l")
        cells = lake.passable_cells()
        assert connected_component(lake, cells[0]) == set(cells)

    @pytest.mark.parametrize("command", ["gen", "learn-solver", "learn-fsc"])
    def test_writing_commands_print_the_text_or_one_line(self, tmp_path, capsys, command,
                                                          solver_hypothesis, learned_controller):
        """Without --out a command prints its text; with it, the file holds
        the text and the command prints one line saying what it wrote."""
        solver = tmp_path / "solver.pl"
        solver.write_text(solver_hypothesis.to_text())
        argv, text, wrote = {
            "gen": (["gen", "maze", "21", "21", "--seed", "7"],
                    serialize_map(generate_maze(21, 21, 7)), "maze map 21x21"),
            "learn-solver": (["learn-solver"], solver_hypothesis.to_text(), "8-clause solver"),
            "learn-fsc": (["learn-fsc", str(solver)], learned_controller.to_text(),
                          "128-tuple controller"),
        }[command]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "out.txt"
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {wrote} to {out}\n"
        assert out.read_text() == text

    def test_gen_even_width_usage_error(self):
        result = run_cli("gen", "maze", "20", "21")
        assert result.returncode != 0
        assert "odd" in result.stderr

    @pytest.mark.parametrize("kind", ["maze", "lake"])
    def test_gen_beyond_the_index_range_is_an_error(self, capsys, kind):
        width = 10**19 + 1
        tracemalloc.start()
        try:
            status = cli_main(["gen", kind, str(width), "5"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 2 and peak < 1 << 20
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {kind} dimensions {width}x5 exceed {sys.maxsize} cells\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS and ru_maxrss in KiB")
    @pytest.mark.parametrize("kind", ["maze", "lake"])
    def test_gen_beyond_memory_fails_at_once(self, kind):
        """A tall map whose cells can be indexed but not held fails before
        any row is built: a child capped at 1 GB of address space exits 2
        with one line, well under the cap."""
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "from gridnav.cli import main\n"
                 "status = main(sys.argv[1:])\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
                 "sys.exit(status)\n")
        result = subprocess.run([sys.executable, "-c", child, "gen", kind, "5", str(10**14 + 1)],
                                capture_output=True, text=True, timeout=30)
        assert (result.returncode, result.stderr) == (2, "error: out of memory\n")
        assert int(result.stdout) < 200 * 1024

    def test_out_of_memory_is_an_error_line(self, capsys, monkeypatch):
        def exhausted(width, height, seed):
            raise MemoryError

        monkeypatch.setattr(cli, "generate_maze", exhausted)
        assert cli_main(["gen", "maze", "99999999999", "5"]) == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    def test_learn_solver_deterministic_file(self, tmp_path):
        first = tmp_path / "a.pl"
        second = tmp_path / "b.pl"
        assert run_cli("learn-solver", "--out", str(first)).returncode == 0
        assert run_cli("learn-solver", "--out", str(second)).returncode == 0
        assert first.read_text() == second.read_text()
        assert len(first.read_text().strip().splitlines()) == 8

    def test_learn_solver_bad_path(self, tmp_path):
        result = run_cli("learn-solver", "--out", str(tmp_path / "no" / "dir" / "x.pl"))
        assert result.returncode != 0
        assert "error" in result.stderr

    def test_learn_fsc_pipeline(self, tmp_path):
        solver = tmp_path / "solver.pl"
        ctrl = tmp_path / "ctrl.fsc"
        assert run_cli("learn-solver", "--out", str(solver)).returncode == 0
        assert run_cli("learn-fsc", str(solver), "--out", str(ctrl)).returncode == 0
        from gridnav import FSC

        fsc = FSC.from_text(ctrl.read_text())
        assert len(fsc.tuples) == 128
        assert fsc.tuples <= tuple_universe()

    def test_run_solver_renders_path(self, tmp_path):
        solver = tmp_path / "solver.pl"
        run_cli("learn-solver", "--out", str(solver))
        result = run_cli("run", "solver", "maze_a", str(solver), "--render")
        assert result.returncode == 0
        assert "outcome: solved" in result.stdout
        render = result.stdout.split("steps:")[1]
        assert ">>" in render  # heads right from the start corner

    def test_run_backtracking_exhausts_on_wrong_maze(self, tmp_path):
        ctrl = tmp_path / "a.fsc"
        from gridnav import fixture_controller

        ctrl.write_text(fixture_controller("maze_a").to_text())
        result = run_cli("run", "fsc-bt", "maze_b", str(ctrl))
        assert result.returncode == 0
        assert "outcome: exhausted" in result.stdout

    def test_run_slam_renders_unknown_cells(self, tmp_path):
        solver = tmp_path / "solver.pl"
        ctrl = tmp_path / "ctrl.fsc"
        run_cli("learn-solver", "--out", str(solver))
        run_cli("learn-fsc", str(solver), "--out", str(ctrl))
        result = run_cli("run", "fsc-re-slam", "lake_01", str(ctrl), "--render")
        assert result.returncode == 0
        assert "outcome: solved" in result.stdout
        assert "?" in result.stdout

    def test_experiment_row_and_csv(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        result = run_cli(
            "experiment", "--agent", "solver", "--env", "lake",
            "--seed", "3", "--csv", str(csv_path),
        )
        assert result.returncode == 0
        assert "solver" in result.stdout
        assert csv_path.read_text().startswith("instance,agent,outcome,steps")

    def test_experiment_with_an_unwritable_csv_path_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch):
        runs = count_calls(monkeypatch, cli, "run_experiment")
        csv_path = tmp_path / "no" / "dir" / "rows.csv"
        argv = ["experiment", "--agent", "solver", "--env", "lake", "--csv", str(csv_path)]
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, runs) == ("", [])
        assert err.startswith("error:") and "rows.csv" in err

    @pytest.mark.parametrize("agent, budget, error", [
        ("solver", "5", "error: step_budget applies to controller agents only\n"),
        ("fsc-bt", "-1", "error: step_budget must be non-negative, got -1\n"),
    ])
    def test_experiment_with_a_rejected_spec_writes_no_csv(
            self, tmp_path, capsys, monkeypatch, agent, budget, error):
        runs = count_calls(monkeypatch, cli, "run_experiment")
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"kept\r\n")
        for path in (new, old):
            argv = ["experiment", "--agent", agent, "--env", "maze", "--budget", budget,
                    "--csv", str(path)]
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", error)
        assert runs == []
        assert not new.exists()
        assert old.read_bytes() == b"kept\r\n"

    def test_experiment_csv_replaces_an_existing_file_with_the_report(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text("stale\n" * 1000)
        argv = ["experiment", "--agent", "solver", "--env", "lake", "--csv", str(csv_path)]
        assert cli_main(argv) == 0
        report = run_experiment(ExperimentSpec.desk_lake("solver"))
        assert csv_path.read_bytes() == report.to_csv().encode()
        assert capsys.readouterr().out.splitlines()[1] == report.table_row()

    def test_experiment_applies_the_budget(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        result = run_cli("experiment", "--agent", "fsc-bt", "--env", "lake",
                         "--budget", "3", "--csv", str(csv_path))
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert len(rows) == 50
        outcomes = [row["outcome"] for row in rows]
        assert set(outcomes) <= {"solved", "budget_exceeded"}
        assert outcomes.count("budget_exceeded") > 40
        assert all(int(row["steps"]) <= 3 for row in rows)

    def test_learn_fsc_incomplete_solver_is_an_error(self, tmp_path):
        solver = tmp_path / "solver.pl"
        solver.write_text("s(A,B) :- step_up(A,B).\n")
        result = run_cli("learn-fsc", str(solver))
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", [
        ("run", "fsc-bt", "maze_a", MAZE_A_CONTROLLER),
        ("experiment", "--agent", "fsc-bt", "--env", "lake"),
    ])
    def test_negative_budget_is_an_error(self, command):
        result = run_cli(*command, "--budget", "-3")
        assert result.returncode == 2
        assert result.stderr.startswith("error: step_budget must be non-negative")
        assert "budget_exceeded" not in result.stdout

    @pytest.mark.parametrize("budget", ["-3", "50"])
    @pytest.mark.parametrize("command", ["run", "experiment"])
    def test_solver_budget_is_an_error(self, tmp_path, solver_hypothesis, command, budget):
        if command == "run":
            solver = tmp_path / "solver.pl"
            solver.write_text(solver_hypothesis.to_text())
            args = ("run", "solver", "maze_a", str(solver))
        else:
            args = ("experiment", "--agent", "solver", "--env", "lake")
        result = run_cli(*args, "--budget", budget)
        assert result.returncode == 2
        assert result.stderr == "error: step_budget applies to controller agents only\n"
        assert result.stdout == ""

    def test_zero_budget_runs(self):
        result = run_cli("run", "fsc-bt", "maze_a", MAZE_A_CONTROLLER, "--budget", "0")
        assert result.returncode == 0
        assert "outcome: budget_exceeded" in result.stdout

    def test_run_bom_crlf_map_file(self, tmp_path):
        solver = tmp_path / "solver.pl"
        run_cli("learn-solver", "--out", str(solver))
        grid = tmp_path / "bom.map"
        grid.write_bytes("\ufeffsff\r\nwwf\r\neff\r\n".encode("utf-8"))
        result = run_cli("run", "solver", str(grid), str(solver))
        assert result.returncode == 0, result.stderr
        assert "outcome: solved" in result.stdout

    def test_run_solver_bom_file(self, tmp_path):
        solver = tmp_path / "solver.pl"
        run_cli("learn-solver", "--out", str(solver))
        solver.write_bytes(b"\xef\xbb\xbf" + solver.read_bytes())
        result = run_cli("run", "solver", "maze_a", str(solver))
        assert result.returncode == 0, result.stderr
        assert "outcome: solved" in result.stdout

    def test_learn_fsc_bom_file(self, tmp_path):
        solver = tmp_path / "solver.pl"
        run_cli("learn-solver", "--out", str(solver))
        solver.write_bytes(b"\xef\xbb\xbf" + solver.read_bytes())
        result = run_cli("learn-fsc", str(solver))
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.strip().splitlines()) == 128

    def test_run_fsc_bt_bom_file(self, tmp_path):
        from gridnav import fixture_controller

        ctrl = tmp_path / "a.fsc"
        ctrl.write_bytes(b"\xef\xbb\xbf" + fixture_controller("maze_a").to_text().encode())
        result = run_cli("run", "fsc-bt", "maze_a", str(ctrl))
        assert result.returncode == 0, result.stderr
        assert "outcome: solved" in result.stdout

    def test_missing_map(self, tmp_path):
        solver = tmp_path / "solver.pl"
        run_cli("learn-solver", "--out", str(solver))
        result = run_cli("run", "solver", "no_such_map", str(solver))
        assert result.returncode != 0
