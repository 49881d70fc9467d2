from __future__ import annotations

import random
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
    GridMap,
    GroundAction,
    StateTerm,
    UNKNOWN,
    actions_to_text,
    fixture_map,
    generalized_example,
    generate_maze,
    instantiate_actions,
    lake_fixture_names,
    learn_solver,
    observe,
    parse_map,
    problem_from_map,
    solve,
    with_endpoints,
    zero_map,
)
import gridnav.model as model
from gridnav.model import action_name, unifies

from test_executors import count_calls, shared_cache_sources
from test_fsc import reference_observe
from test_grid import adjacency_edges, neighbors
from test_mil import SOLVER_TEXT

# Ground actions of the 2x2 all-floor training map, one line per ordered
# adjacent pair.
ZERO_ACTIONS = """\
step_down([zero,0/1,f],[zero,0/0,f]).
step_down([zero,1/1,f],[zero,1/0,f]).
step_left([zero,1/0,f],[zero,0/0,f]).
step_left([zero,1/1,f],[zero,0/1,f]).
step_right([zero,0/0,f],[zero,1/0,f]).
step_right([zero,0/1,f],[zero,1/1,f]).
step_up([zero,0/0,f],[zero,0/1,f]).
step_up([zero,1/0,f],[zero,1/1,f]).
"""


def reference_actions(grid):
    """The explicit action set by its definition: one action per ordered
    pair of adjacent passable cells, sorted by name, then input position."""
    actions = [
        GroundAction(
            action_name(d),
            StateTerm(grid.id, cell, grid.tile_at(cell)),
            StateTerm(grid.id, nxt, grid.tile_at(nxt)),
        )
        for cell in grid.passable_cells()
        for d, nxt in neighbors(grid, cell)
    ]
    actions.sort(key=lambda a: (a.name, a.input.pos))
    return tuple(actions)


def differential_maps():
    return [fixture_map(name) for name in lake_fixture_names()] + [
        generate_maze(51, 51, seed) for seed in range(4)
    ]


class TestInstantiateActions:
    def test_zero_map_eight_actions_exact(self):
        actions = instantiate_actions(zero_map())
        assert actions_to_text(actions) == ZERO_ACTIONS

    def test_maze_a_sixty_actions(self, maze_a):
        actions = instantiate_actions(maze_a)
        assert len(actions) == 60
        listing = actions_to_text(actions)
        assert "step_right([maze_a,0/6,s],[maze_a,1/6,f])." in listing
        assert "step_down([maze_a,2/6,f],[maze_a,2/5,f])." in listing
        assert "step_left([maze_a,2/0,f],[maze_a,1/0,f])." in listing
        assert "step_left([maze_a,1/0,f],[maze_a,0/0,e])." in listing

    def test_maze_b_differs_only_in_end_tile(self, maze_a, maze_b):
        assert len(instantiate_actions(maze_b)) == 60
        listing = actions_to_text(instantiate_actions(maze_b))
        assert "step_up([maze_b,4/0,f],[maze_b,4/1,f])." in listing
        assert "step_down([maze_b,6/1,f],[maze_b,6/0,e])." in listing
        plain_a = {(a.name, a.input.pos, a.output.pos) for a in instantiate_actions(maze_a)}
        plain_b = {(a.name, a.input.pos, a.output.pos) for a in instantiate_actions(maze_b)}
        assert plain_a == plain_b

    def test_minimal_map_two_actions(self):
        actions = instantiate_actions(parse_map("se", "pair"))
        assert actions_to_text(actions) == (
            "step_left([pair,1/0,e],[pair,0/0,s]).\n"
            "step_right([pair,0/0,s],[pair,1/0,e]).\n"
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_count_is_twice_adjacent_pairs(self, seed):
        grid = generate_maze(9, 9, seed)
        assert len(instantiate_actions(grid)) == 2 * len(adjacency_edges(grid))

    def test_direction_deltas(self):
        deltas = {"step_up": (0, 1), "step_right": (1, 0), "step_down": (0, -1), "step_left": (-1, 0)}
        for act in instantiate_actions(generate_maze(7, 7, 2)):
            dx = act.output.pos.x - act.input.pos.x
            dy = act.output.pos.y - act.input.pos.y
            assert (dx, dy) == deltas[act.name]


    def test_equals_reference_definition(self):
        for grid in [zero_map()] + differential_maps():
            assert instantiate_actions(grid) == reference_actions(grid), grid.id


def expected_successors(actions, state):
    return [(a.name, a.output) for a in actions if unifies(a.input, state)]


def actions_by_input(actions):
    """The actions grouped by input position, each group in listing order.
    A query at a bound position cannot unify with an action whose input
    position differs, so scanning the query's group finds every match
    (checked against the full scan by
    ``test_grouping_by_input_position_keeps_every_match``)."""
    groups = {}
    for a in actions:
        groups.setdefault(a.input.pos, []).append(a)
    return groups


def thin_maps():
    """Every wall/floor map with sides 1 to 3: 682 maps."""
    for width, height in product(range(1, 4), repeat=2):
        for cells in product("fw", repeat=width * height):
            tiles = tuple(tuple(cells[y * width:(y + 1) * width]) for y in range(height))
            yield GridMap(f"thin_{width}x{height}_{''.join(cells)}", width, height, tiles)


class TestActionBackground:
    @pytest.mark.parametrize("grid", differential_maps(), ids=lambda g: g.id)
    def test_successors_equal_reference(self, grid):
        groups = actions_by_input(reference_actions(grid))
        background = ActionBackground(grid)
        for cell in grid.passable_cells():
            for tile in (grid.tile_at(cell), UNKNOWN):
                state = StateTerm(grid.id, cell, tile)
                expected = expected_successors(groups.get(cell, ()), state)
                assert expected
                assert list(background.successors(state)) == expected

    def test_grouping_by_input_position_keeps_every_match(self, maze_a):
        actions = reference_actions(maze_a)
        groups = actions_by_input(actions)
        off_map = [Coord(-1, 0), Coord(0, -1), Coord(maze_a.width, 0), Coord(0, maze_a.height)]
        for cell in list(maze_a.cells()) + off_map:
            tiles = (maze_a.tile_at(cell), UNKNOWN) if maze_a.in_bounds(cell) else (UNKNOWN,)
            for tile in tiles:
                state = StateTerm(maze_a.id, cell, tile)
                assert (expected_successors(groups.get(cell, ()), state)
                        == expected_successors(actions, state)), state

    def test_every_cell_of_every_thin_map(self):
        """On one-cell-wide and other thin maps, the planner steps neither off
        the map nor out of a wall, and the observation reads the same sides
        as open: both against the tile-based references, at every cell and
        at a ring of off-map cells around it."""
        queries = 0
        for grid in thin_maps():
            groups = actions_by_input(reference_actions(grid))
            background = ActionBackground(grid)
            for x, y in product(range(-1, grid.width + 1), range(-1, grid.height + 1)):
                cell = Coord(x, y)
                state = StateTerm(grid.id, cell, UNKNOWN)
                expected = expected_successors(groups.get(cell, ()), state)
                assert list(background.successors(state)) == expected, (grid.id, cell)
                if grid.passable(cell):
                    assert observe(grid, cell) == reference_observe(grid, cell), (grid.id, cell)
                queries += 1
        assert queries == 15970

    @pytest.mark.parametrize("grid", differential_maps(), ids=lambda g: g.id)
    def test_no_successors_off_the_passable_cells(self, grid):
        background = ActionBackground(grid)
        walls = [c for c in grid.cells() if not grid.passable(c)]
        off_map = [Coord(-1, 0), Coord(0, -1), Coord(grid.width, 0), Coord(0, grid.height)]
        for cell in walls + off_map:
            assert list(background.successors(StateTerm(grid.id, cell, UNKNOWN))) == []
        for cell in grid.passable_cells():
            assert list(background.successors(StateTerm("other", cell, UNKNOWN))) == []
            assert list(background.successors(StateTerm(grid.id, cell, "w"))) == []

    def test_layout_builds_each_floor_state_once(self, maze_a):
        """A floor cell's output state is built once per layout: backgrounds
        on the map and on its endpoint copies yield the one object.  The
        start's and end's states are each background's own, and a map
        built afresh has states of its own."""
        def reaches(grid, background, cell):
            """The output states for ``cell`` from each of its neighbors."""
            return [nxt for _, n in neighbors(grid, cell)
                    for _, nxt in background.successors(StateTerm(grid.id, n, UNKNOWN))
                    if nxt.pos == cell]

        grid = GridMap(maze_a.id, maze_a.width, maze_a.height, maze_a.tiles)
        near_ends = {n for end in (grid.start, grid.end) for _, n in neighbors(grid, end)}
        cell = next(c for c in grid.passable_cells()
                    if len(neighbors(grid, c)) >= 2 and c not in near_ends | {grid.start, grid.end})
        first = reaches(grid, ActionBackground(grid), cell)
        assert len(first) >= 2
        assert all(state is first[0] for state in first)
        for again in (grid, with_endpoints(grid, grid.end, grid.start)):
            assert all(state is first[0] for state in reaches(again, ActionBackground(again), cell))
        assert len(neighbors(grid, grid.end)) >= 2
        end_states = [reaches(grid, ActionBackground(grid), grid.end) for _ in range(2)]
        assert all(state is end_states[0][0] for state in end_states[0])
        assert end_states[1] == end_states[0] and end_states[1][0] is not end_states[0][0]
        fresh = GridMap(grid.id, grid.width, grid.height, grid.tiles)
        other = reaches(fresh, ActionBackground(fresh), cell)
        assert other == first and all(state is not first[0] for state in other)

    def test_unbound_position_yields_every_matching_action(self):
        for grid in [zero_map()] + differential_maps():
            actions = reference_actions(grid)
            background = ActionBackground(grid)
            every = StateTerm(grid.id, UNKNOWN, UNKNOWN)
            assert list(background.successors(every)) == expected_successors(actions, every)
            from_start = StateTerm(grid.id, UNKNOWN, "s")
            expected = expected_successors(actions, from_start)
            assert len(expected) == (len(neighbors(grid, grid.start)) if grid.start else 0)
            assert list(background.successors(from_start)) == expected
            # The other tile kinds: floor and end tiles have steps out of
            # them, where the map has such a tile; a wall has none.
            for tile, some in (("f", True), ("e", grid.end is not None), ("w", False)):
                query = StateTerm(grid.id, UNKNOWN, tile)
                expected = expected_successors(actions, query)
                assert bool(expected) == some, (grid.id, tile)
                assert list(background.successors(query)) == expected, (grid.id, tile)
            other = StateTerm("other", UNKNOWN, UNKNOWN)
            assert list(background.successors(other)) == []

    def test_unbound_position_follows_the_listing_through_the_cell_states(self):
        """An unbound query yields the steps in the order of the action
        listing, and its output states are the objects bound queries return
        later."""
        for grid in [zero_map()] + differential_maps():
            background = ActionBackground(grid)
            got = list(background.successors(StateTerm(grid.id, UNKNOWN, UNKNOWN)))
            assert got == [(a.name, a.output) for a in instantiate_actions(grid)], grid.id
            later = {nxt.pos: nxt for cell in grid.passable_cells()
                     for _, nxt in background.successors(StateTerm(grid.id, cell, UNKNOWN))}
            assert all(nxt is later[nxt.pos] for _, nxt in got), grid.id

    def test_learning_the_solver_builds_no_ground_action(self, monkeypatch):
        built = count_calls(monkeypatch, GroundAction, "__new__")
        assert learn_solver().to_text() == SOLVER_TEXT
        assert built == []


def endpoint_turns(source):
    """Endpoint copies of ``source`` in the order they take turns: random
    pairs, a start next to its end both ways round, and the source itself
    with its own ``s`` and ``e``, twice."""
    rng = random.Random(source.id)
    cells = source.passable_cells()
    a = next(c for c in cells if neighbors(source, c))
    b = neighbors(source, a)[0][1]
    pairs = [rng.sample(cells, 2) for _ in range(4)]
    return [with_endpoints(source, *pairs[0]), with_endpoints(source, a, b), source,
            with_endpoints(source, *pairs[1]), with_endpoints(source, b, a),
            with_endpoints(source, *pairs[2]), source, with_endpoints(source, *pairs[3])]


class TestLayoutStore:
    """Endpoint copies share the planner's floor states and step lists in
    their ``Layout``; each background patches the steps into its own start
    and end."""

    @pytest.mark.parametrize("source", shared_cache_sources(), ids=lambda g: g.id)
    def test_copies_taking_turns_through_one_store_equal_the_reference(self, source):
        """Backgrounds of several copies are live at once and asked about
        each cell in turn, so each one reads lists that others filled after
        it was built; every reply equals a fresh reference for its copy."""
        turns = endpoint_turns(source)
        assert all(grid.layout is source.layout for grid in turns)
        references = [actions_by_input(reference_actions(grid)) for grid in turns]
        backgrounds = []
        for grid in turns:
            backgrounds.append(ActionBackground(grid))
            for cell in grid.passable_cells():
                for grid_, groups, background in zip(turns, references, backgrounds):
                    for tile in (grid_.tile_at(cell), UNKNOWN):
                        state = StateTerm(grid_.id, cell, tile)
                        expected = expected_successors(groups.get(cell, ()), state)
                        assert list(background.successors(state)) == expected, (grid_, state)
        # The steps into a start and an end carry their own tiles.
        for grid, background in zip(turns, backgrounds):
            for end, tile in ((grid.start, "s"), (grid.end, "e")):
                for _, cell in neighbors(grid, end):
                    steps = background.successors(StateTerm(grid.id, cell, UNKNOWN))
                    into = [nxt for _, nxt in steps if nxt.pos == end]
                    assert [nxt.tile for nxt in into] == [tile]

    def test_each_layout_cell_is_read_through_blocked_once(self, monkeypatch, solver_hypothesis):
        """Over solves on twenty endpoint copies of one lake, ``blocked``
        reads each cell at most once; a copy whose solve reaches only cells
        read before reads none."""
        lake = fixture_map("lake_03")
        rng = random.Random(3)
        cells = lake.passable_cells()
        reads = count_calls(monkeypatch, model, "blocked")
        plans = []
        for _ in range(20):
            grid = with_endpoints(lake, *rng.sample(cells, 2))
            plans.append((grid, solve(grid, solver_hypothesis)))
        read_cells = [(x, y) for _, x, y in reads]
        assert len(read_cells) == len(set(read_cells)) > 0
        for grid, plan in plans[:3]:
            reads.clear()
            again = with_endpoints(lake, grid.start, grid.end)
            assert solve(again, solver_hypothesis) == plan
            assert reads == []


class TestProblems:
    def test_generalized_example_binds_only_map_id(self):
        problem = generalized_example("zero")
        for side in (problem.initial, problem.goal):
            assert side.map_id == "zero"
            assert side.pos is UNKNOWN
            assert side.tile is UNKNOWN

    def test_ground_problem(self):
        grid = parse_map("se", "pair")
        problem = problem_from_map(grid)
        assert problem.initial == StateTerm("pair", Coord(0, 0), "s")
        assert problem.goal == StateTerm("pair", Coord(1, 0), "e")

    def test_maze_a_problem_from_fixture(self, maze_a):
        problem = problem_from_map(maze_a)
        assert problem.initial == StateTerm("maze_a", Coord(0, 6), "s")
        assert problem.goal == StateTerm("maze_a", Coord(0, 0), "e")

    def test_unknown_matches_anything(self):
        pattern = StateTerm("m", UNKNOWN, UNKNOWN)
        ground = StateTerm("m", Coord(3, 4), "f")
        assert unifies(pattern, ground)
        assert unifies(ground, pattern)
        assert not unifies(pattern, StateTerm("other", Coord(3, 4), "f"))


# The matching rule as ``StateTerm.matches`` and ``LabelStreams.matches``
# wrote it before ``unifies`` became the one rule: the references below.

def state_term_matches(term, other) -> bool:
    map_id, pos, tile = term
    map_id2, pos2, tile2 = other
    return (
        map_id == map_id2
        and (pos is UNKNOWN or pos2 is UNKNOWN or pos == pos2)
        and (tile is UNKNOWN or tile2 is UNKNOWN or tile == tile2)
    )


def label_streams_matches(streams, other) -> bool:
    """Four label streams against four: equal lengths, then each label pair
    equal or either one UNKNOWN."""
    def field_unifies(a, b):
        return a is UNKNOWN or b is UNKNOWN or a == b

    return (all(len(s) == len(t) for s, t in zip(streams, other))
            and all(all(map(field_unifies, s, t)) for s, t in zip(streams, other)))


def streams_of(suffix) -> tuple:
    """The four label streams a suffix of (q, o, a, q') quadruples threads."""
    return tuple(tuple(quadruple[i] for quadruple in suffix) for i in range(4))


LABELS = st.sampled_from(CONTROLLER_STATES[:2] + OBSERVATION_LABELS[:2] + ACTION_LABELS[:2])
GROUND_ATOMS = st.one_of(LABELS, st.integers(0, 2))
TERM_LABELS = st.one_of(LABELS, st.just(UNKNOWN))


def terms(atoms):
    """Atoms and nested tuples of them, up to three fields a tuple."""
    return st.recursive(atoms, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8)


def state_terms():
    return st.builds(StateTerm, st.sampled_from(("m", "n")),
                     st.one_of(st.just(UNKNOWN), st.builds(Coord, st.integers(0, 1), st.integers(0, 1))),
                     st.one_of(st.just(UNKNOWN), st.sampled_from("fse")))


def suffixes_of_length(length):
    return st.lists(st.tuples(*[TERM_LABELS] * 4), min_size=length, max_size=length).map(tuple)


def with_holes(draw, term):
    """The term with some of its subterms, at any depth, made UNKNOWN."""
    if draw(st.integers(0, 3)) == 0:
        return UNKNOWN
    if isinstance(term, tuple):
        return tuple(with_holes(draw, field) for field in term)
    return term


class TestUnifies:
    @settings(max_examples=300, deadline=None)
    @given(term=state_terms(), other=state_terms())
    def test_agrees_with_state_term_matches(self, term, other):
        assert unifies(term, other) == state_term_matches(term, other)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lengths=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_agrees_with_label_streams_matches(self, data, lengths):
        """On suffixes, whose streams are never ragged: any two, and one
        against itself with holes in its quadruples."""
        one = data.draw(suffixes_of_length(lengths[0]))
        two = data.draw(suffixes_of_length(lengths[1]))
        holed = tuple(tuple(UNKNOWN if data.draw(st.integers(0, 3)) == 0 else label
                            for label in quadruple) for quadruple in one)
        for other in (two, holed, one[::-1]):
            assert unifies(one, other) == label_streams_matches(streams_of(one), streams_of(other))

    @settings(max_examples=300, deadline=None)
    @given(a=terms(st.one_of(GROUND_ATOMS, st.just(UNKNOWN))),
           b=terms(st.one_of(GROUND_ATOMS, st.just(UNKNOWN))))
    def test_symmetric(self, a, b):
        assert unifies(a, b) == unifies(b, a)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), term=terms(st.one_of(GROUND_ATOMS, st.just(UNKNOWN))))
    def test_unknown_unifies_at_any_depth(self, data, term):
        holed = with_holes(data.draw, term)
        assert unifies(holed, term) and unifies(term, holed)
        assert unifies(UNKNOWN, term) and unifies(term, UNKNOWN)

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(terms(TERM_LABELS), max_size=4).map(tuple),
           b=st.lists(terms(TERM_LABELS), max_size=4).map(tuple))
    def test_unequal_lengths_never_unify(self, a, b):
        if len(a) != len(b):
            assert not unifies(a, b)
            assert not unifies((a,), (b,))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), a=terms(GROUND_ATOMS))
    def test_ground_terms_unify_exactly_when_equal(self, data, a):
        b = data.draw(st.one_of(terms(GROUND_ATOMS), st.just(a)))
        assert unifies(a, b) == (a == b)
        copy = tuple(a) if isinstance(a, tuple) else a
        assert unifies(a, copy) and unifies(copy, a)
