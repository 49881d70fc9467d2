"""``prove`` builds the Top program in one reachability pass; these tests
hold it to ``prove_by_enumeration``, the enumeration of every simple
derivation, on every input kind learning poses."""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridnav import (
    ACTION_LABELS,
    CONTROLLER_STATES,
    OBSERVATION_LABELS,
    ActionBackground,
    FSCTuple,
    GridMap,
    LabelStreams,
    TupleBackground,
    UNKNOWN,
    fixture_map,
    generalized_example,
    generate_maze,
    learn,
    observation_matrices,
    problem_from_map,
    prove,
    with_endpoints,
)
from gridnav.mil import EMPTY_STREAMS, prove_by_enumeration
from gridnav.solver import generate_behaviours
from gridnav.workbench import controller_examples

from test_mil import SOLVER_TEXT


def small_maps(max_side=3):
    """Every wall/floor map with both sides at most ``max_side``."""
    for width in range(1, max_side + 1):
        for height in range(1, max_side + 1):
            for cells in product("wf", repeat=width * height):
                rows = tuple(cells[y * width:(y + 1) * width] for y in range(height))
                yield GridMap(f"m{width}x{height}", width, height, rows)


def assert_agrees(initial, goal, background):
    expected = prove_by_enumeration(initial, goal, background)
    assert prove(initial, goal, background) == expected, (initial, goal)
    return expected


class CountingBackground:
    """A background that counts its ``successors`` calls per state."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def successors(self, state):
        self.calls[state] += 1
        return self.inner.successors(state)


def open_floor(side: int) -> GridMap:
    return GridMap("open", side, side, (("f",) * side,) * side)


class TestAgainstTheEnumeration:
    def test_generalized_example_on_every_small_map(self):
        maps = learnable = 0
        for grid in small_maps():
            problem = generalized_example(grid.id)
            learnable += bool(assert_agrees(problem.initial, problem.goal, ActionBackground(grid)))
            maps += 1
        assert maps == 682
        assert learnable > 0

    def test_every_bound_example_on_every_small_map(self):
        examples = solvable = 0
        for grid in small_maps():
            cells = grid.passable_cells()
            for start, end in product(cells, cells):
                if start == end:
                    continue
                instance = with_endpoints(grid, start, end)
                problem = problem_from_map(instance)
                subs = assert_agrees(problem.initial, problem.goal, ActionBackground(instance))
                examples += 1
                solvable += bool(subs)
        assert examples == 10_252
        assert 0 < solvable < examples

    def test_the_128_controller_examples(self, solver_hypothesis):
        behaviours = generate_behaviours(observation_matrices(), solver_hypothesis)
        examples = controller_examples(behaviours)
        assert len(examples) == 128
        background = TupleBackground()
        for initial, goal in examples:
            assert assert_agrees(initial, goal, background)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chained_behaviours_with_unknown_heads(self, data):
        length = data.draw(st.integers(1, 4), label="length")
        q = data.draw(st.sampled_from(CONTROLLER_STATES), label="q")
        streams = [[], [], [], []]
        for _ in range(length):
            o = data.draw(st.sampled_from(OBSERVATION_LABELS))
            a = data.draw(st.sampled_from(ACTION_LABELS))
            q_next = data.draw(st.sampled_from(CONTROLLER_STATES))
            for stream, label in zip(streams, FSCTuple(q, o, a, q_next)):
                stream.append(label)
            q = q_next
        for stream in streams:
            for i in data.draw(st.sets(st.integers(0, length - 1), max_size=2)):
                stream[i] = UNKNOWN
        if data.draw(st.booleans(), label="shorten one stream"):
            streams[data.draw(st.integers(0, 3))].pop()
        initial = LabelStreams(*map(tuple, streams))
        assert_agrees(initial, EMPTY_STREAMS, TupleBackground())


class TestOnePassPerState:
    def test_generalized_example_expands_each_reached_state_once(self):
        grid = open_floor(5)
        problem = generalized_example(grid.id)
        background = CountingBackground(ActionBackground(grid))
        subs = prove(problem.initial, problem.goal, background)
        assert len(subs) == 8
        # The unbound initial state and the 25 cells.
        assert len(background.calls) == 26
        assert set(background.calls.values()) == {1}

    @pytest.mark.parametrize("grid", [open_floor(5), generate_maze(51, 51, seed=0),
                                      fixture_map("maze_a"), fixture_map("lake_01")],
                             ids=lambda grid: grid.id)
    def test_learn_on_larger_maps_gives_the_golden_program(self, grid):
        hypothesis = learn([generalized_example(grid.id)], ActionBackground(grid), target="s")
        assert hypothesis.to_text() == SOLVER_TEXT
