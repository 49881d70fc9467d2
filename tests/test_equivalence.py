"""The paper's claim as a property of every small instance: an agent solves
exactly the instances whose end is reachable from the start.

Every wall/floor map with sides 1 to 3 is taken with every ordered pair of
distinct passable cells as its start and end, and a BFS over the tiles is the
oracle.  The solver, fsc-bt, fsc-bt-slam and fsc-re-slam end ``solved``
exactly on the reachable instances.  fsc-re has no map of where it has been,
so where the start's component has a cycle it can circle until its step
budget runs out, and it never ends ``exhausted`` there: of the small
instances, 566 reachable and 80 unreachable ones end ``budget_exceeded``.
On a component without a cycle it ends ``solved`` exactly when the end is
reachable and ``exhausted`` otherwise.  ``hypothesis`` checks the same on
random wall-density grids of sides 2 to 16 and on generated mazes and
lakes of random sizes and seeds, where the solver's plan on a perfect maze
is also as long as the BFS distance.

The planner is pinned against a literal reading of the learned program: on
every small instance the solver's plan is the first SLD refutation of a
recursive interpreter.  On perfect mazes fsc-bt's labels equal the solver's.

The model-freedom audit holds for random controllers too: a random subset
of the 960 well-formed tuples, run by each executor kind with a step budget
on a random grid, exchanges only labels, flags and tokens with the
environment.  The one label outside the controller's alphabet that crosses
is ``uuuu``, observed at a start with no passable neighbour.
"""

from __future__ import annotations

import random
from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnav import (
    BACKTRACKING,
    BUDGET_EXCEEDED,
    DIRECTIONS,
    EXHAUSTED,
    FSC,
    REVERSING,
    SOLVED,
    ActionBackground,
    BasicEnvironment,
    Coord,
    ExecutorConfig,
    GridMap,
    MapError,
    Metarule,
    OBSERVATION_LABELS,
    execute,
    generate_lake,
    generate_maze,
    playback,
    problem_from_map,
    run_single,
    with_endpoints,
)
from gridnav.model import unifies

from test_executors import SpyEnvironment, assert_only_labels_cross
from test_fsc import tuple_universe
from test_grid import connected_component, neighbors
from test_top_program import small_instances

# Agents that solve exactly the reachable instances.
EXACT_AGENTS = ("solver", "fsc-bt", "fsc-bt-slam", "fsc-re-slam")


def bfs_distance(grid: GridMap, start: Coord, end: Coord) -> int | None:
    """Moves on a shortest path from start to end, or None when the end is
    unreachable."""
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        cell = frontier.popleft()
        if cell == end:
            return dist[cell]
        for d in DIRECTIONS:
            nxt = cell.shifted(d)
            if nxt not in dist and grid.passable(nxt):
                dist[nxt] = dist[cell] + 1
                frontier.append(nxt)
    return None


def sld_plan(grid: GridMap, hypothesis) -> tuple[str, ...] | None:
    """The labels of the first SLD refutation of the learned program on the
    map's problem, or None: a literal reading of the program as Prolog.

    Clauses are tried in ``Hypothesis.ordered()`` order, each body atom
    against the map's step atoms, depth first; a Tailrec call never enters a
    state already on the current path (loop check on the path only)."""
    background = ActionBackground(grid)
    problem = problem_from_map(grid)

    def refute(state, path):
        for clause in hypothesis.ordered():
            for symbol, nxt in background.successors(state):
                if symbol != clause.body_symbol:
                    continue
                if clause.metarule is Metarule.IDENTITY:
                    if unifies(nxt, problem.goal):
                        return [symbol]
                elif nxt not in path:
                    rest = refute(nxt, path | {nxt})
                    if rest is not None:
                        return [symbol] + rest
        return None

    symbols = refute(problem.initial, frozenset([problem.initial]))
    return None if symbols is None else tuple(symbol.removeprefix("step_") for symbol in symbols)


def start_has_cycle(grid: GridMap) -> bool:
    """Whether the start's component has a cycle: a connected component does
    exactly when it has at least as many adjacent passable pairs as cells."""
    cells = connected_component(grid, grid.start)
    pairs = sum(len(neighbors(grid, cell)) for cell in cells) // 2
    return pairs >= len(cells)


# fsc-re's outcomes by (the start's component has a cycle, the end is
# reachable): with no map of where it has been it can circle a cycle until
# its budget runs out, but on a tree it retraces every branch and stops.
FSC_RE_OUTCOMES = {
    (False, True): {SOLVED},
    (False, False): {EXHAUSTED},
    (True, True): {SOLVED, BUDGET_EXCEEDED},
    (True, False): {BUDGET_EXCEEDED},
}


def violations(grid, solver, controller) -> list[tuple[str, str]]:
    """The (agent, outcome) pairs on one instance that break a property:
    an exact agent whose ``solved`` disagrees with the BFS, or fsc-re ending
    other than ``FSC_RE_OUTCOMES`` allows."""
    reachable = bfs_distance(grid, grid.start, grid.end) is not None
    cyclic = start_has_cycle(grid)
    bad = []
    for agent in EXACT_AGENTS + ("fsc-re",):
        outcome = run_single(agent, grid, solver=solver, controller=controller).outcome
        if agent == "fsc-re":
            ok = outcome in FSC_RE_OUTCOMES[cyclic, reachable]
        else:
            ok = (outcome == SOLVED) == reachable
        if not ok:
            bad.append((agent, outcome))
    return bad


class TestSmallInstances:
    def test_instance_count(self):
        assert sum(1 for _ in small_instances()) == 10_252

    def test_agents_solve_exactly_the_reachable_instances(self, solver_hypothesis,
                                                           learned_controller):
        failures = [(grid, bad) for grid in small_instances()
                    if (bad := violations(grid, solver_hypothesis, learned_controller))]
        assert failures == []

    def test_solver_plan_is_the_sld_refutation(self, solver_hypothesis):
        failures = []
        for grid in small_instances():
            run = run_single("solver", grid, solver=solver_hypothesis)
            plan = sld_plan(grid, solver_hypothesis)
            if (run.labels if run.outcome == SOLVED else None) != plan:
                failures.append((grid, run.outcome, run.labels, plan))
        assert failures == []

    def test_bfs_oracle(self):
        grid = with_endpoints(GridMap("u", 3, 2, (("f", "w", "f"), ("f", "f", "f"))),
                              Coord(0, 0), Coord(2, 0))
        assert bfs_distance(grid, grid.start, grid.end) == 4
        walled = with_endpoints(GridMap("c", 3, 1, (("f", "w", "f"),)),
                                Coord(0, 0), Coord(2, 0))
        assert bfs_distance(walled, walled.start, walled.end) is None


class TestPerfectMazes:
    def test_fsc_bt_labels_equal_the_solver_labels(self, solver_hypothesis,
                                                   learned_controller):
        """A perfect maze has one simple path between its endpoints, so the
        solver and fsc-bt, which both return a simple path, agree."""
        for side in range(5, 22, 2):
            for seed in range(20):
                grid = generate_maze(side, side, seed)
                solver = run_single("solver", grid, solver=solver_hypothesis)
                fsc_bt = run_single("fsc-bt", grid, controller=learned_controller)
                assert solver.outcome == fsc_bt.outcome == SOLVED, (side, seed)
                assert fsc_bt.labels == solver.labels, (side, seed)


@st.composite
def random_instances(draw):
    """A grid of sides 2 to 16 with walls at a drawn density, and distinct
    start and end cells drawn among its passable cells."""
    width = draw(st.integers(2, 16), label="width")
    height = draw(st.integers(2, 16), label="height")
    density = draw(st.floats(0.1, 0.6), label="wall density")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    tiles = tuple(tuple("w" if rng.random() < density else "f" for _ in range(width))
                  for _ in range(height))
    grid = GridMap("random", width, height, tiles)
    cells = grid.passable_cells()
    assume(len(cells) >= 2)
    start = draw(st.sampled_from(cells), label="start")
    end = draw(st.sampled_from([c for c in cells if c != start]), label="end")
    return with_endpoints(grid, start, end)


class TestRandomGrids:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(grid=random_instances())
    def test_agents_solve_exactly_the_reachable_instances(self, solver_hypothesis,
                                                           learned_controller, grid):
        assert violations(grid, solver_hypothesis, learned_controller) == []


@st.composite
def generated_maps(draw):
    """A maze of odd sides 5 to 31 or a lake of sides 5 to 30, from a drawn
    seed, with the start and end its generator placed; None when the lake
    generator gives up on the seed."""
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    if draw(st.booleans(), label="maze"):
        width = draw(st.integers(2, 15), label="half width") * 2 + 1
        height = draw(st.integers(2, 15), label="half height") * 2 + 1
        return generate_maze(width, height, seed)
    try:
        return generate_lake(draw(st.integers(5, 30), label="width"),
                             draw(st.integers(5, 30), label="height"), seed)
    except MapError as error:
        assert "lake generation failed" in str(error)
        return None


class TestGeneratedMaps:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grid=generated_maps())
    def test_agents_solve_exactly_the_reachable_instances(self, solver_hypothesis,
                                                           learned_controller, grid):
        if grid is not None:
            assert violations(grid, solver_hypothesis, learned_controller) == []

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(half_width=st.integers(2, 15), half_height=st.integers(2, 15),
           seed=st.integers(0, 2**32 - 1))
    def test_solver_plan_on_a_perfect_maze_is_a_shortest_path(self, solver_hypothesis,
                                                                half_width, half_height, seed):
        grid = generate_maze(half_width * 2 + 1, half_height * 2 + 1, seed)
        run = run_single("solver", grid, solver=solver_hypothesis)
        assert run.outcome == SOLVED
        assert len(run.labels) == bfs_distance(grid, grid.start, grid.end)


WELL_FORMED_TUPLES = sorted(tuple_universe())


class TestRandomControllers:
    """The model-freedom audit for any controller: a random subset of the 960
    well-formed tuples, run by each executor kind with a step budget on a
    random wall/floor grid, exchanges only labels, flags and tokens."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(grid=random_instances(), tuple_seed=st.integers(0, 2**32 - 1),
           share=st.floats(0.0, 1.0), kind=st.sampled_from([BACKTRACKING, REVERSING]),
           slam=st.booleans(), budget=st.integers(0, 300))
    def test_only_labels_flags_and_tokens_cross(self, grid, tuple_seed, share, kind, slam, budget):
        rng = random.Random(tuple_seed)
        controller = FSC.of(t for t in WELL_FORMED_TUPLES if rng.random() < share)
        env = SpyEnvironment(BasicEnvironment(grid))
        result = execute(controller, env, ExecutorConfig(kind, slam=slam, step_budget=budget))
        observations = OBSERVATION_LABELS
        if env.exchanged[0] == ("obs", "uuuu"):
            # A start with no passable neighbour observes uuuu, the one label
            # outside the alphabet.  No tuple names it, so the run ends there.
            assert [tag for tag, _ in env.exchanged if tag in ("obs", "action")] == ["obs"]
            assert result.outcome == EXHAUSTED
            observations += ("uuuu",)
        assert_only_labels_cross(env, observations)
        assert result.outcome in (SOLVED, EXHAUSTED, BUDGET_EXCEEDED)
        if result.outcome == SOLVED:
            assert playback(grid, [t.a for t in result.trace])[0]
