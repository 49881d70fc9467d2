"""``prove`` builds the Top program of every refutation of an example.
These tests hold it to two references written here: the enumeration of
every simple derivation, which it must equal wherever refutations cannot
step back (generalized examples and behaviour suffixes) and contain everywhere,
and a reading of the Top program off the tiles, which it must equal on
every bound example.  ``learn`` makes one pass per distinct goal over all
its examples, and must give the union of ``prove``'s answers."""

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
    Coord,
    FSCTuple,
    GridMap,
    Metarule,
    StateTerm,
    TupleBackground,
    UNKNOWN,
    UnlearnableError,
    fixture_map,
    generalized_example,
    generate_maze,
    learn,
    observation_matrices,
    problem_from_map,
    prove,
    with_endpoints,
)
import gridnav.mil as mil
from gridnav.mil import _top_program, first_derivation
from gridnav.model import action_name, unifies
from gridnav.solver import generate_behaviours
from gridnav.workbench import controller_examples, learn_controller

from test_executors import count_calls
from test_grid import connected_component, neighbors
from test_mil import SOLVER_TEXT, MatchingBackground, goal_terms


def maps_of(width, height):
    """Every wall/floor map of one size."""
    for cells in product("wf", repeat=width * height):
        rows = tuple(cells[y * width:(y + 1) * width] for y in range(height))
        yield GridMap(f"m{width}x{height}", width, height, rows)


def small_maps(max_side=3):
    """Every wall/floor map with both sides at most ``max_side``."""
    for width in range(1, max_side + 1):
        for height in range(1, max_side + 1):
            yield from maps_of(width, height)


def bound_instances(maps):
    """Every map with every ordered pair of distinct passable cells as
    (start, end)."""
    for grid in maps:
        cells = grid.passable_cells()
        for start in cells:
            for end in cells:
                if start != end:
                    yield with_endpoints(grid, start, end)


def small_instances():
    """The bound instances of every small map."""
    return bound_instances(small_maps())


def prove_by_enumeration(initial, goal, background) -> frozenset:
    """The metasubstitutions (metarule, body symbol) of every successful
    simple derivation of the goal: the reference ``prove`` replaced.

    A derivation never revisits a state it already passed through, so every
    derivation is finite and cyclic state graphs terminate.  Returns the
    empty set when the goal is unsatisfiable.  The cost grows with the
    number of simple paths, exponentially in the map.
    """
    metasubs: set[tuple[Metarule, object]] = set()

    def make_frame(state, entered_via) -> list:
        """[state, symbols entering it, (next state, symbols) children,
        next child index, some derivation through it succeeds]."""
        grouped: dict[object, set] = {}
        for sym, nxt in background.successors(state):
            grouped.setdefault(nxt, set()).add(sym)
        frame = [state, entered_via, list(grouped.items()), 0, False]
        for nxt, syms in frame[2]:
            if unifies(nxt, goal):
                metasubs.update((Metarule.IDENTITY, sym) for sym in syms)
                frame[4] = True
        return frame

    # A frame's success propagates to every frame beneath it on the stack,
    # so metasubs stays empty unless the root succeeds.
    stack = [make_frame(initial, None)]
    path = {initial}
    while stack:
        state, entered_via, children, idx, success = top = stack[-1]
        if idx < len(children):
            nxt, syms = children[idx]
            top[3] = idx + 1
            if nxt in path:
                continue
            path.add(nxt)
            stack.append(make_frame(nxt, syms))
        else:
            stack.pop()
            path.discard(state)
            if success and stack:
                metasubs.update((Metarule.TAILREC, sym) for sym in entered_via)
                stack[-1][4] = True
    return frozenset(metasubs)


def tiles_top_program(grid: GridMap) -> frozenset:
    """The Top program of a bound example, read off the tiles: Identity for
    each step out of a cell reached from the start into the end, Tailrec for
    each such step into a cell from which the end is reached in one step or
    more."""
    reached = connected_component(grid, grid.start)
    # Steps run both ways, so with a neighbor the end is reached again from
    # itself and from every cell of its component; without one, from none.
    reaching = connected_component(grid, grid.end) if neighbors(grid, grid.end) else set()
    subs = set()
    for cell in reached:
        for d, nxt in neighbors(grid, cell):
            if nxt == grid.end:
                subs.add((Metarule.IDENTITY, action_name(d)))
            if nxt in reaching:
                subs.add((Metarule.TAILREC, action_name(d)))
    return frozenset(subs)


def prove_bound(grid: GridMap, background=None) -> frozenset:
    """``prove`` on the bound example of a map with endpoints."""
    problem = problem_from_map(grid)
    if background is None:
        background = ActionBackground(grid)
    return prove(problem.initial, problem.goal, background)


def mixed_goal_examples(grid: GridMap) -> list:
    """(initial, goal) examples over every ordered pair of passable cells,
    start equal to end included, then from each cell to the unbound goal."""
    states = [StateTerm(grid.id, cell, grid.tile_at(cell)) for cell in grid.passable_cells()]
    unbound = StateTerm(grid.id, UNKNOWN, UNKNOWN)
    return [(a, b) for a in states for b in states] + [(a, unbound) for a in states]


def batched_learn_mismatches(examples, background) -> list[str]:
    """Where one ``learn`` call disagrees with ``prove`` on each example:
    over the provable examples its clauses must be the union of their Top
    programs, and over all of them, when some is unprovable, its error must
    name the first such example in input order."""
    tops = [prove(initial, goal, background) for initial, goal in examples]
    provable = [example for example, top in zip(examples, tops) if top]
    unprovable = [example for example, top in zip(examples, tops) if not top]
    bad = []
    if provable:
        clauses = learn(provable, background, target="t").clauses
        if {(c.metarule, c.body_symbol) for c in clauses} != frozenset().union(*tops):
            bad.append("clauses differ from the union of prove's")
    if unprovable:
        try:
            learn(examples, background, target="t")
            bad.append("learned an unprovable example")
        except UnlearnableError as error:
            if str(error) != f"no derivation exists for example {unprovable[0]!r}":
                bad.append(f"names another example: {error}")
    return bad


def assert_agrees(initial, goal, background):
    expected = prove_by_enumeration(initial, goal, background)
    assert prove(initial, goal, background) == expected, (initial, goal)
    return expected


class CountingBackground:
    """A background that counts its ``successors`` calls per state."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()
        self.matches_only_equals = inner.matches_only_equals

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
        """Refutations may step back, so on a map with a cycle ``prove``
        may find more than the simple derivations: never less."""
        examples = solvable = equal = 0
        for instance in small_instances():
            subs = prove_bound(instance)
            assert subs == tiles_top_program(instance), instance
            problem = problem_from_map(instance)
            simple = prove_by_enumeration(problem.initial, problem.goal, ActionBackground(instance))
            assert simple <= subs, instance
            examples += 1
            solvable += bool(subs)
            equal += simple == subs
        assert examples == 10_252
        assert solvable == 7_636
        assert equal == 4_112

    def test_the_128_controller_examples(self, solver_hypothesis):
        behaviours = generate_behaviours(observation_matrices(), solver_hypothesis)
        examples = controller_examples(behaviours)
        assert len(examples) == 128
        background = TupleBackground()
        for initial, goal in examples:
            assert assert_agrees(initial, goal, background)
        assert batched_learn_mismatches(examples, background) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chained_behaviours_with_unknown_heads(self, data):
        length = data.draw(st.integers(1, 4), label="length")
        q = data.draw(st.sampled_from(CONTROLLER_STATES), label="q")
        quadruples = []
        for _ in range(length):
            o = data.draw(st.sampled_from(OBSERVATION_LABELS))
            a = data.draw(st.sampled_from(ACTION_LABELS))
            q_next = data.draw(st.sampled_from(CONTROLLER_STATES))
            quadruples.append(list(FSCTuple(q, o, a, q_next)))
            q = q_next
        for field in range(4):
            for i in data.draw(st.sets(st.integers(0, length - 1), max_size=2)):
                quadruples[i][field] = UNKNOWN
        initial = tuple(map(tuple, quadruples))
        assert_agrees(initial, (), TupleBackground())
        # A repeated example and one through a state the first reaches.
        examples = [(initial, ()), (initial[1:], ()), (initial, ())]
        assert batched_learn_mismatches(examples, TupleBackground()) == []


class TestBatchedLearn:
    def test_mixed_goals_on_every_small_map(self):
        """One ``learn`` call per map over examples with a bound or an
        unbound goal, some of them unprovable."""
        maps = some_provable = some_unprovable = 0
        for grid in small_maps():
            if len(grid.passable_cells()) < 2:
                continue
            examples = mixed_goal_examples(grid)
            background = ActionBackground(grid)
            assert batched_learn_mismatches(examples, background) == [], grid
            proved = [bool(prove(initial, goal, background)) for initial, goal in examples]
            maps += 1
            some_provable += any(proved)
            some_unprovable += not all(proved)
        assert (maps, some_provable, some_unprovable) == (637, 560, 343)


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

    def test_bound_example_expands_each_reached_state_once(self):
        grid = with_endpoints(open_floor(5), Coord(0, 0), Coord(4, 4))
        background = CountingBackground(ActionBackground(grid))
        assert prove_bound(grid, background) == tiles_top_program(grid)
        assert len(background.calls) == 25
        assert set(background.calls.values()) == {1}

    def test_learn_makes_one_pass_over_the_128_controller_examples(self, solver_hypothesis):
        behaviours = generate_behaviours(observation_matrices(), solver_hypothesis)
        background = CountingBackground(TupleBackground())
        learn(controller_examples(behaviours), background, target="c")
        # The 128 initial states, then the empty suffix every one reaches.
        assert sum(background.calls.values()) == 129
        assert len(background.calls) == 129

    def test_a_repeated_example_makes_one_pass(self):
        grid = open_floor(5)
        example = generalized_example(grid.id)
        once = CountingBackground(ActionBackground(grid))
        twice = CountingBackground(ActionBackground(grid))
        assert learn([example, example], twice, target="s") == learn([example], once, target="s")
        assert twice.calls == once.calls
        assert set(twice.calls.values()) == {1}

    @pytest.mark.parametrize("grid", [open_floor(5), generate_maze(51, 51, seed=0),
                                      fixture_map("maze_a"), fixture_map("lake_01")],
                             ids=lambda grid: grid.id)
    def test_learn_on_larger_maps_gives_the_golden_program(self, grid):
        hypothesis = learn([generalized_example(grid.id)], ActionBackground(grid), target="s")
        assert hypothesis.to_text() == SOLVER_TEXT


class TestSoundness:
    def test_learned_programs_replay_on_their_examples(self):
        """Every atom on a shortest path to the goal is learned, so the
        planner finds a derivation with the learned program."""
        learnable = 0
        for instance in small_instances():
            if not prove_bound(instance):
                continue
            problem = problem_from_map(instance)
            background = ActionBackground(instance)
            hypothesis = learn([problem], background, target="s")
            assert first_derivation(background, hypothesis, problem.initial, problem.goal), instance
            learnable += 1
        assert learnable == 7_636


def assert_equality_agrees_with_unification(initials, goal, background):
    tested = _top_program(initials, goal, background)
    assert tested == _top_program(initials, goal, MatchingBackground(background)), (initials, goal)
    return tested


# Suffix labels: each field's alphabet, UNKNOWN, and labels outside every
# alphabet (``uuuu`` is no controller observation).
SUFFIX_LABELS = st.sampled_from(CONTROLLER_STATES + OBSERVATION_LABELS[:4] + ACTION_LABELS
                                + ("uuuu", "q4", UNKNOWN))


def suffixes(max_len=3):
    return st.lists(st.tuples(*[SUFFIX_LABELS] * 4), max_size=max_len).map(tuple)


def behaviour_suffixes(with_unknown):
    """A chained behaviour of 1 to 3 well-formed tuples as a suffix, some
    labels replaced by UNKNOWN."""
    @st.composite
    def build(draw):
        q = draw(st.sampled_from(CONTROLLER_STATES))
        quadruples = []
        for _ in range(draw(st.integers(1, 3))):
            o = draw(st.sampled_from(OBSERVATION_LABELS))
            a = draw(st.sampled_from(ACTION_LABELS))
            q_next = draw(st.sampled_from(CONTROLLER_STATES))
            quadruples.append(tuple(UNKNOWN if with_unknown and draw(st.integers(0, 4)) == 0
                                    else label for label in (q, o, a, q_next)))
            q = q_next
        return tuple(quadruples)
    return build()


def yielded_states(initials, background):
    """Every state the background yields from the initial states on."""
    seen, work = set(), list(initials)
    for state in work:
        for _, nxt in background.successors(state):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


class TestGoalTest:
    """A goal the background marks ``matches_only_equals`` is tested with
    ``==``; it must give what ``unifies`` gives."""

    @settings(max_examples=300, deadline=None)
    @given(initials=st.lists(st.one_of(behaviour_suffixes(False), behaviour_suffixes(True),
                                       suffixes()), min_size=1, max_size=4),
           goal=st.one_of(st.just(()), suffixes(max_len=2)))
    def test_suffix_equality_agrees_with_unification(self, initials, goal):
        background = TupleBackground()
        assert background.matches_only_equals(goal) == (goal == ())
        assert_equality_agrees_with_unification(initials, goal, background)

    def test_the_controller_examples_equality_agrees_with_unification(self, solver_hypothesis):
        examples = controller_examples(generate_behaviours(observation_matrices(), solver_hypothesis))
        initials = [initial for initial, _ in examples]
        identity, tailrec, reaching = assert_equality_agrees_with_unification(
            initials, (), TupleBackground())
        assert len(identity) == 128 and not tailrec and reaching == set(initials)

    def test_action_background_ground_goals_agree_with_unification(self):
        checked = reached_goal = 0
        grids = list(maps_of(3, 2))
        grids += [g for grid in grids[::5] for g in bound_instances([grid])]
        for grid in grids:
            background = ActionBackground(grid)
            ground, unbound = goal_terms(grid)
            initials = [StateTerm(grid.id, pos, grid.tile_at(pos)) for pos in grid.passable_cells()]
            for goal in ground:
                assert background.matches_only_equals(goal)
                for seeds in ([initials[0]], initials[::2], [generalized_example(grid.id).initial]):
                    reaching = assert_equality_agrees_with_unification(seeds, goal, background)[2]
                    reached_goal += bool(reaching)
                    checked += 1
            assert not any(background.matches_only_equals(goal) for goal in unbound)
        assert (checked, reached_goal) == (4_986, 1_403)

    @settings(max_examples=300, deadline=None)
    @given(initials=st.lists(st.one_of(behaviour_suffixes(True), suffixes()),
                             min_size=1, max_size=4),
           goal=st.one_of(st.just(()), suffixes(max_len=2)))
    def test_only_equals_goals_match_exactly_their_equals(self, initials, goal):
        """Over the drawn goal and the ground goals that unify with a yielded
        state holding UNKNOWN."""
        background = TupleBackground()
        states = yielded_states(initials, background)
        goals = [goal] + [tuple(tuple("q0" if label is UNKNOWN else label for label in quadruple)
                                for quadruple in state) for state in states]
        for candidate in goals:
            if background.matches_only_equals(candidate):
                for state in states:
                    assert unifies(state, candidate) == (state == candidate), (state, candidate)


class TestNoRepeatedWork:
    """Count guards, as ``TestValueObjectChurn``: controller learning
    validates no tuple it has seen and unifies no state with a ground goal."""

    def test_warm_learn_controller_builds_no_controller_tuples(self, monkeypatch, solver_hypothesis):
        expected = learn_controller(solver_hypothesis)
        built = count_calls(monkeypatch, FSCTuple, "__new__")
        assert learn_controller(solver_hypothesis) == expected
        assert built == []

    def test_ground_goal_top_program_makes_no_matches_calls(self, monkeypatch, solver_hypothesis):
        examples = controller_examples(generate_behaviours(observation_matrices(), solver_hypothesis))
        unified = count_calls(monkeypatch, mil, "unifies")
        _top_program([initial for initial, _ in examples], (), TupleBackground())
        grid = fixture_map("maze_a")
        problem = problem_from_map(grid)
        assert prove(problem.initial, problem.goal, ActionBackground(grid))
        assert unified == []
        # Unification, for contrast, tests every reached state.
        _top_program([initial for initial, _ in examples], (), MatchingBackground(TupleBackground()))
        assert len(unified) == 129
