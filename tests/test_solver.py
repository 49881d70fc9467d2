from __future__ import annotations

import tracemalloc

import pytest

from gridnav import (
    Coord,
    PlanningError,
    PlanningProblem,
    StateTerm,
    UNKNOWN,
    UnsolvableError,
    generate_behaviours,
    generate_lake,
    generate_maze,
    instantiate_actions,
    observation_matrices,
    observe,
    parse_map,
    playback,
    problem_from_map,
    solve,
)

from test_fsc import is_chained


def trace_positions(grid, labels):
    positions = [grid.start]
    for label in labels:
        positions.append(positions[-1].shifted(label))
    return positions


class TestSolve:
    def test_minimal_map_one_step(self, solver_hypothesis):
        grid = parse_map("se", "pair")
        plan = solve(grid, solver_hypothesis)
        assert plan.labels == ("right",)
        assert plan.to_labels_line() == "right"

    def test_maze_a_starts_rightward(self, solver_hypothesis, maze_a):
        plan = solve(maze_a, solver_hypothesis)
        first = plan.actions[0]
        assert first.name == "step_right"
        assert first.input == StateTerm("maze_a", Coord(0, 6), "s")
        assert len(plan) == 10

    def test_plan_chains_and_replays(self, solver_hypothesis, maze_a):
        plan = solve(maze_a, solver_hypothesis)
        for a, b in zip(plan.actions, plan.actions[1:]):
            assert a.output == b.input
        ok, final = playback(maze_a, plan.labels)
        assert ok and final == maze_a.end

    def test_plan_actions_are_listed_actions(self, solver_hypothesis, maze_a):
        listing = set(instantiate_actions(maze_a))
        problem = problem_from_map(maze_a)
        unbound_tile = StateTerm(maze_a.id, maze_a.start, UNKNOWN)
        for initial in (problem.initial, unbound_tile):
            plan = solve(maze_a, solver_hypothesis, PlanningProblem(maze_a.id, initial, problem.goal))
            assert plan.actions[0].input == problem.initial
            assert set(plan.actions) <= listing

    def test_deterministic(self, solver_hypothesis, maze_b):
        first = solve(maze_b, solver_hypothesis)
        second = solve(maze_b, solver_hypothesis)
        assert first.labels == second.labels

    def test_partitioned_map_unsolvable(self, solver_hypothesis):
        grid = parse_map("swf\nfwe", "split")
        with pytest.raises(UnsolvableError):
            solve(grid, solver_hypothesis)

    def test_isolated_start_is_unsolvable(self, solver_hypothesis):
        # The map has no step action at all.
        with pytest.raises(UnsolvableError):
            solve(parse_map("swe", "apart"), solver_hypothesis)

    def test_start_equals_goal_rejected(self, solver_hypothesis):
        grid = parse_map("se", "pair")
        state = StateTerm("pair", Coord(0, 0), "s")
        with pytest.raises(PlanningError, match="at least one action"):
            solve(grid, solver_hypothesis, PlanningProblem("pair", state, state))

    def test_wrong_map_rejected(self, solver_hypothesis, maze_a):
        problem = problem_from_map(parse_map("se", "pair"))
        with pytest.raises(PlanningError):
            solve(maze_a, solver_hypothesis, problem)

    def test_terminates_on_cyclic_maps(self, solver_hypothesis):
        lake = generate_lake(20, 20, seed=3)
        plan = solve(lake, solver_hypothesis)
        ok, _ = playback(lake, plan.labels)
        assert ok

    def test_plaza_terminates(self, solver_hypothesis):
        plaza = parse_map("sffff\nfffff\nfffff\nfffff\nffffe", "plaza")
        plan = solve(plaza, solver_hypothesis)
        assert playback(plaza, plan.labels)[0]

    def test_401_maze_within_memory_bound(self, solver_hypothesis):
        maze = generate_maze(401, 401, seed=2)
        tracemalloc.start()
        try:
            plan = solve(maze, solver_hypothesis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert playback(maze, plan.labels) == (True, maze.end)
        # Building every action of the map first peaked near 96 MB.
        assert peak < 48 * 2**20


class TestPlayback:
    def test_empty_labels_fail_when_apart(self, maze_a):
        ok, final = playback(maze_a, [])
        assert not ok
        assert final == maze_a.start

    def test_wall_step_fails_immediately(self, maze_a):
        ok, final = playback(maze_a, ["up"])
        assert not ok
        assert final == maze_a.start

    def test_unknown_label_rejected(self, maze_a):
        with pytest.raises(ValueError):
            playback(maze_a, ["sideways"])


class TestObservationMatrices:
    def test_fifteen_matrices(self):
        assert len(observation_matrices()) == 15

    def test_all_neighbors_passable_matrix(self):
        matrix = next(m for m in observation_matrices() if m.id == "obs_pppp")
        center = Coord(1, 1)
        assert all(matrix.passable(center.shifted(d)) for d in ("up", "right", "down", "left"))

    def test_only_right_passable_matrix(self):
        matrix = next(m for m in observation_matrices() if m.id == "obs_upuu")
        center = Coord(1, 1)
        assert matrix.passable(center.shifted("right"))
        for d in ("up", "down", "left"):
            assert not matrix.passable(center.shifted(d))

    def test_centers_passable_and_labels_realized(self):
        for matrix in observation_matrices():
            assert matrix.passable(Coord(1, 1))
            assert observe(matrix, Coord(1, 1)) == matrix.id.removeprefix("obs_")


class TestGenerateBehaviours:
    def test_one_behaviour_per_passable_direction(self, solver_hypothesis):
        matrices = observation_matrices()
        behaviours = generate_behaviours(matrices, solver_hypothesis)
        expected = sum(m.id.removeprefix("obs_").count("p") for m in matrices)
        assert len(behaviours) == expected == 32

    def test_pppp_matrix_gives_four(self, solver_hypothesis):
        matrix = [m for m in observation_matrices() if m.id == "obs_pppp"]
        behaviours = generate_behaviours(matrix, solver_hypothesis)
        assert [b[0].a for b in behaviours] == ["up", "right", "down", "left"]

    def test_upuu_matrix_gives_one_rightward(self, solver_hypothesis):
        matrix = [m for m in observation_matrices() if m.id == "obs_upuu"]
        behaviours = generate_behaviours(matrix, solver_hypothesis)
        assert len(behaviours) == 1
        assert behaviours[0][0].a == "right"
        assert behaviours[0][0].o == "upuu"

    def test_distinct_observation_action_pairs(self, solver_hypothesis):
        behaviours = generate_behaviours(observation_matrices(), solver_hypothesis)
        pairs = {(t.o, t.a) for b in behaviours for t in b}
        # independent count: one pair per p-character over all labels
        expected = sum(label.count("p") for label in
                       (m.id.removeprefix("obs_") for m in observation_matrices()))
        assert len(pairs) == expected == 32

    def test_tuples_follow_state_conventions(self, solver_hypothesis):
        from gridnav import STATE_FOR_ACTION

        for behaviour in generate_behaviours(observation_matrices(), solver_hypothesis):
            assert behaviour[0].q == "q0"
            for t in behaviour:
                assert t.q_next == STATE_FOR_ACTION[t.a]
            assert is_chained(behaviour)

    def test_missing_step_right_names_matrix_and_direction(self, solver_hypothesis):
        from gridnav import Hypothesis

        clauses = [c for c in solver_hypothesis.clauses if c.body_symbol != "step_right"]
        matrix = [m for m in observation_matrices() if m.id == "obs_pppp"]
        with pytest.raises(UnsolvableError, match=r"obs_pppp.*right"):
            generate_behaviours(matrix, Hypothesis.of(clauses, "s"))

    def test_deterministic(self, solver_hypothesis):
        first = generate_behaviours(observation_matrices(), solver_hypothesis)
        second = generate_behaviours(observation_matrices(), solver_hypothesis)
        assert first == second
