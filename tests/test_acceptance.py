"""Acceptance suite: one test per ship criterion, at its stated tolerance.

The conftest hook prints a PASS/FAIL line per test here, so running
``pytest tests/test_acceptance.py -v`` doubles as the acceptance report.
"""

from __future__ import annotations

import time

import pytest

from gridnav import (
    BACKTRACKING,
    BasicEnvironment,
    ExecutorConfig,
    ExperimentSpec,
    FSC,
    Hypothesis,
    REVERSING,
    SOLVED,
    STATE_FOR_ACTION,
    actions_to_text,
    execute,
    fixture_map,
    generate_behaviours,
    generate_maze,
    instantiate_actions,
    lake_fixture_names,
    observation_matrices,
    parse_map,
    playback,
    run_experiment,
    serialize_map,
    zero_map,
)
from gridnav.cli import main as cli_main

from test_fsc import is_chained, tuple_universe
from test_grid import adjacency_edges, connected_component
from test_mil import SOLVER_TEXT
from test_model import ZERO_ACTIONS

MAZE_SEED = 0
LAKE_SEED = 0


@pytest.fixture(scope="module")
def solver(tmp_path_factory):
    path = tmp_path_factory.mktemp("learned") / "solver.pl"
    started = time.monotonic()
    assert cli_main(["learn-solver", "--out", str(path)]) == 0
    elapsed = time.monotonic() - started
    return path, elapsed


@pytest.fixture(scope="module")
def controller(solver, tmp_path_factory):
    solver_path, _ = solver
    path = tmp_path_factory.mktemp("learned") / "controller.fsc"
    started = time.monotonic()
    assert cli_main(["learn-fsc", str(solver_path), "--out", str(path)]) == 0
    elapsed = time.monotonic() - started
    return path, elapsed


@pytest.fixture(scope="module")
def maze_reports(solver, controller):
    hypothesis = Hypothesis.from_text(solver[0].read_text())
    fsc = FSC.from_text(controller[0].read_text())
    reports = {}
    timings = {}
    for agent in ("solver", "fsc-bt", "fsc-re"):
        spec = ExperimentSpec.desk_maze(agent, seed=MAZE_SEED)
        started = time.monotonic()
        reports[agent] = run_experiment(spec, solver=hypothesis, controller=fsc)
        timings[agent] = time.monotonic() - started
    return reports, timings


@pytest.fixture(scope="module")
def lake_reports(solver, controller):
    hypothesis = Hypothesis.from_text(solver[0].read_text())
    fsc = FSC.from_text(controller[0].read_text())
    reports = {}
    started = time.monotonic()
    for agent in ("fsc-re-slam", "fsc-bt-slam"):
        spec = ExperimentSpec.desk_lake(agent, seed=LAKE_SEED)
        reports[agent] = run_experiment(spec, solver=hypothesis, controller=fsc)
    return reports, time.monotonic() - started


def test_criterion_1_solver_learning_golden(solver):
    path, elapsed = solver
    assert path.read_text() == SOLVER_TEXT
    assert elapsed < 1.0, f"solver learning took {elapsed:.2f}s (limit 1s)"


def test_criterion_2_action_generation_golden():
    assert actions_to_text(instantiate_actions(zero_map())) == ZERO_ACTIONS
    assert len(instantiate_actions(fixture_map("maze_a"))) == 60


def test_criterion_3_controller_size(controller):
    path, elapsed = controller
    fsc = FSC.from_text(path.read_text())
    assert len(fsc.tuples) == 128
    pairs = {(t.o, t.a) for t in fsc.tuples}
    assert len(pairs) == 32
    for o, a in pairs:
        states = {t.q for t in fsc.tuples if (t.o, t.a) == (o, a)}
        assert states == {"q0", "q1", "q2", "q3"}
        nexts = {t.q_next for t in fsc.tuples if (t.o, t.a) == (o, a)}
        assert nexts == {STATE_FOR_ACTION[a]}
    assert fsc.tuples <= tuple_universe()
    assert elapsed < 5.0, f"controller learning took {elapsed:.2f}s (limit 5s)"


def test_criterion_4_solver_solves_all_desk_mazes(maze_reports):
    reports, timings = maze_reports
    report = reports["solver"]
    assert len(report.records) == 20
    assert report.solved_fraction == 1.0
    assert timings["solver"] < 60.0, f"took {timings['solver']:.1f}s (limit 60s)"


def test_criterion_5_executor_equivalence_on_mazes(maze_reports):
    reports, _ = maze_reports
    by_instance = {
        agent: {r.instance: r for r in reports[agent].records}
        for agent in ("solver", "fsc-bt", "fsc-re")
    }
    assert reports["fsc-bt"].solved_fraction == 1.0
    assert reports["fsc-re"].solved_fraction == 1.0
    for instance, solver_record in by_instance["solver"].items():
        bt = by_instance["fsc-bt"][instance]
        re = by_instance["fsc-re"][instance]
        assert bt.steps == solver_record.steps, f"{instance}: bt {bt.steps} != plan {solver_record.steps}"
        assert re.steps >= bt.steps, f"{instance}: re {re.steps} < bt {bt.steps}"


def test_criterion_6_lake_slam_executors(lake_reports):
    reports, elapsed = lake_reports
    assert len(reports["fsc-re-slam"].records) == 5 * 10
    assert reports["fsc-re-slam"].solved_fraction == 1.0
    assert reports["fsc-bt-slam"].solved_fraction >= 0.80
    assert elapsed < 120.0, f"lake runs took {elapsed:.1f}s (limit 120s)"


def test_criterion_7_ambiguity(controller):
    from gridnav import fixture_controller

    learned = FSC.from_text(controller[0].read_text())
    deterministic = fixture_controller("maze_a")
    maze_a = fixture_map("maze_a")
    maze_b = fixture_map("maze_b")
    configs = [
        ExecutorConfig(BACKTRACKING, slam=False),
        ExecutorConfig(BACKTRACKING, slam=True),
        ExecutorConfig(REVERSING, slam=False),
        ExecutorConfig(REVERSING, slam=True),
    ]
    for cfg in configs:
        assert execute(deterministic, BasicEnvironment(maze_a), cfg).outcome == SOLVED
        assert execute(deterministic, BasicEnvironment(maze_b), cfg).outcome != SOLVED
    for cfg in (ExecutorConfig(BACKTRACKING), ExecutorConfig(REVERSING)):
        assert execute(learned, BasicEnvironment(maze_a), cfg).outcome == SOLVED
        assert execute(learned, BasicEnvironment(maze_b), cfg).outcome == SOLVED


def test_criterion_8_maze_perfection_over_100_seeds():
    for seed in range(100):
        maze = generate_maze(9, 9, seed)
        cells = maze.passable_cells()
        assert len(adjacency_edges(maze)) == len(cells) - 1
        assert connected_component(maze, cells[0]) == set(cells)


def test_criterion_8_map_round_trip():
    for name in ("maze_a", "maze_b", *lake_fixture_names()):
        grid = fixture_map(name)
        assert parse_map(serialize_map(grid), name) == grid
    for seed in range(10):
        maze = generate_maze(11, 11, seed)
        assert parse_map(serialize_map(maze), maze.id) == maze


def test_criterion_8_behaviour_and_trace_chaining(solver, controller):
    hypothesis = Hypothesis.from_text(solver[0].read_text())
    fsc = FSC.from_text(controller[0].read_text())
    for behaviour in generate_behaviours(observation_matrices(), hypothesis):
        assert is_chained(behaviour)
    for grid_name in ("maze_a", "maze_b", "lake_01"):
        grid = fixture_map(grid_name)
        for cfg in (ExecutorConfig(BACKTRACKING), ExecutorConfig(REVERSING, slam=True)):
            result = execute(fsc, BasicEnvironment(grid), cfg)
            assert is_chained(result.trace)


def test_criterion_8_reverse_pair_involution():
    from gridnav import ACTION_LABELS, reverse_pair

    for action in ACTION_LABELS:
        pair = (action, STATE_FOR_ACTION[action])
        assert reverse_pair(*reverse_pair(*pair)) == pair


def test_criterion_8_slam_forward_visits(controller):
    from test_executors import forward_entries_per_cell

    fsc = FSC.from_text(controller[0].read_text())
    plaza = parse_map("sffff\nfffff\nfffff\nfffff\nffffe", "plaza")
    grids = [plaza] + [fixture_map(n) for n in lake_fixture_names()]
    for grid in grids:
        env = BasicEnvironment(grid)
        result = execute(fsc, env, ExecutorConfig(REVERSING, slam=True))
        counts = forward_entries_per_cell(env.trail, result.trace)
        assert all(v <= 1 for v in counts.values()), f"revisit on {grid.id}"


def test_criterion_8_solved_traces_replay(controller):
    fsc = FSC.from_text(controller[0].read_text())
    for name in ("maze_a", "maze_b", "lake_01", "lake_02"):
        grid = fixture_map(name)
        for cfg in (
            ExecutorConfig(BACKTRACKING),
            ExecutorConfig(REVERSING),
            ExecutorConfig(BACKTRACKING, slam=True),
            ExecutorConfig(REVERSING, slam=True),
        ):
            result = execute(fsc, BasicEnvironment(grid), cfg)
            if result.outcome == SOLVED:
                assert playback(grid, [t.a for t in result.trace])[0]


def test_criterion_8_model_freedom_audit(controller):
    from test_executors import SpyEnvironment
    from gridnav import DIRECTIONS, OBSERVATION_LABELS

    fsc = FSC.from_text(controller[0].read_text())
    grid = fixture_map("maze_a")
    for kind, slam in (
        (BACKTRACKING, False), (BACKTRACKING, True),
        (REVERSING, False), (REVERSING, True),
    ):
        env = SpyEnvironment(BasicEnvironment(grid))
        execute(fsc, env, ExecutorConfig(kind, slam=slam, step_budget=4900))
        for tag, value in env.exchanged:
            assert tag in ("action", "obs", "at_goal", "token", "rejected")
            if tag == "action":
                assert value in DIRECTIONS
            elif tag == "obs":
                assert value in OBSERVATION_LABELS
            elif tag == "at_goal":
                assert isinstance(value, bool)
            elif tag == "token":
                assert isinstance(value, int)
