"""Planning models: state terms, ground step actions, problems.

A state term bundles a map identifier, a position and the tile kind at that
position.  Each ordered pair of adjacent passable cells is one ground step
action, the atom ``step_<direction>(input, output)``.  ``ActionBackground``
reads these atoms off the map's tiles and returns them as (name, output)
pairs: planning asks it at bound positions, learning at an unbound one.
An unbound query is built from the bound one: it asks every cell in turn.
``GroundAction`` values are built only for the map's action listing,
``instantiate_actions``, and for a plan's own steps.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .grid import BLOCKED_BIT, DELTA, DIRECTIONS, FLOOR, PASSABLE_TILES, Coord, GridMap, blocked
from .record import new_tuple


class _Unknown:
    """Placeholder for a non-ground term field; unifies with anything."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"


UNKNOWN = _Unknown()


def unifies(a, b) -> bool:
    """Whether two terms unify: they are equal, either one is UNKNOWN, or
    both are tuples of one length whose fields unify pairwise."""
    if a is UNKNOWN or b is UNKNOWN or a == b:
        return True
    return (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)
            and all(map(unifies, a, b)))


def action_name(direction: str) -> str:
    return f"step_{direction}"


_DIRECTION_FOR_NAME = {action_name(d): d for d in DIRECTIONS}


def _term(value) -> str:
    return repr(value) if not isinstance(value, str) else value


class StateTerm(NamedTuple):
    """Fluents of one environment state: map id, position, tile kind.

    ``pos`` and ``tile`` may be UNKNOWN in problem statements; the map id is
    always ground.  Wall tiles never appear in state terms.  A state term
    matches another when the two unify (``unifies``).
    """

    map_id: str
    pos: Coord | _Unknown
    tile: str | _Unknown

    def __repr__(self) -> str:
        return f"[{self.map_id},{_term(self.pos)},{_term(self.tile)}]"


class GroundAction(NamedTuple):
    """One instantiated step: moves the agent between two adjacent passable
    cells of a specific map, reading tile kinds from the map."""

    name: str
    input: StateTerm
    output: StateTerm

    def as_line(self) -> str:
        return f"{self.name}({self.input!r},{self.output!r})."


class PlanningProblem(NamedTuple):
    """Initial and goal state terms over one map; either side may leave
    position and tile unbound."""

    map_id: str
    initial: StateTerm
    goal: StateTerm


def instantiate_actions(grid: GridMap) -> tuple[GroundAction, ...]:
    """One ground action per ordered pair of adjacent passable cells, named
    by direction, with tile kinds read from the map; sorted by name, then
    input position.  It is the map's action listing, read off the
    background's bound queries."""
    listing = ActionBackground(grid)._listing(UNKNOWN, inputs=True)
    return tuple(GroundAction(*step) for step in listing)


def generalized_example(map_id: str) -> PlanningProblem:
    """Problem binding only the map identifier: position and tile are left
    unknown on both the initial and the goal side."""
    return PlanningProblem(
        map_id,
        StateTerm(map_id, UNKNOWN, UNKNOWN),
        StateTerm(map_id, UNKNOWN, UNKNOWN),
    )


def problem_from_map(grid: GridMap) -> PlanningProblem:
    """Concrete start-to-end problem read off a map's s and e tiles."""
    start, end = grid.require_endpoints()
    return PlanningProblem(
        grid.id,
        StateTerm(grid.id, start, grid.tile_at(start)),
        StateTerm(grid.id, end, grid.tile_at(end)),
    )


def actions_to_text(actions: Iterable[GroundAction]) -> str:
    """Export a ground action set as a text listing, one action per line."""
    return "\n".join(a.as_line() for a in actions) + "\n"


# Per ``blocked`` mask, the (action name, dx, dy) of each open side, in
# sorted action-name order: down, left, right, up.
_STEPS = tuple(tuple(sorted((action_name(d), *DELTA[d]) for d in DIRECTIONS
                            if not mask & BLOCKED_BIT[d])) for mask in range(16))


class ActionBackground:
    """The ground step actions of one map, read off its tiles.

    ``successors(state)`` returns (name, output state) for every step action
    whose input state unifies with the query.  At a bound passable cell these
    are the steps through the sides that ``grid.blocked``, the rule of
    ``observe``, leaves open, in sorted action-name order.  An UNKNOWN
    position asks every cell with the query's tile, cells in ``Coord`` order,
    and stably sorts the steps by name: the order of ``instantiate_actions``,
    which lists them with their input states, by name, then input position.

    It fills the map's ``Layout`` tables ``floor`` and ``steps``, a cell's
    step list on the cell's first query.  The returned lists are shared:
    callers must not mutate them.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._floor, self._layout_steps = grid.layout.floor, grid.layout.steps
        # The layout's step lists, with this map's own patched in below.
        self._steps = steps = self._layout_steps.copy()
        for c in (grid.start, grid.end):
            if c is None:
                continue
            # Each neighbour's step into ``c`` enters this map's own state.
            own = new_tuple(StateTerm, (grid.id, c, grid.tiles[c.y][c.x]))
            for _, nxt in self.successors(own):
                n = nxt.pos
                i = n.y * grid.width + n.x
                # A filled slot holds the step into ``c``: only None falls through.
                old = steps[i] or self.successors(new_tuple(StateTerm, (grid.id, n, UNKNOWN)))
                steps[i] = [(name, own if state.pos == c else state) for name, state in old]

    @staticmethod
    def matches_only_equals(goal: StateTerm) -> bool:
        """Whether the goal matches exactly its equals among the states this
        background yields: they are all ground, and a state term holds
        UNKNOWN only as a field, so a goal with no UNKNOWN field does."""
        return UNKNOWN not in goal

    def successors(self, state: StateTerm):
        grid = self.grid
        map_id, pos, state_tile = state
        if map_id != grid.id:
            return ()
        if pos is UNKNOWN:
            return self._listing(state_tile, inputs=False)
        width = grid.width
        x, y = pos
        if not (0 <= x < width and 0 <= y < grid.height):
            return ()
        tile = grid.tiles[y][x]
        if tile not in PASSABLE_TILES or not (state_tile is UNKNOWN or state_tile == tile):
            return ()
        i = y * width + x
        steps = self._steps[i]
        if steps is not None:
            return steps
        # The layout's steps, as if every cell were floor: where that is
        # wrong, next to the start or end, ``__init__`` has patched them.
        floor = self._floor
        steps = []
        for name, dx, dy in _STEPS[blocked(grid, x, y)]:
            j = i + dy * width + dx
            nxt = floor[j]
            if nxt is None:
                nxt = floor[j] = new_tuple(
                    StateTerm, (map_id, new_tuple(Coord, (x + dx, y + dy)), FLOOR))
            steps.append((name, nxt))
        self._steps[i] = self._layout_steps[i] = steps
        return steps

    def _listing(self, tile, *, inputs: bool) -> list:
        """(name, input state, output state) of every step out of a cell
        whose tile unifies with ``tile``, or (name, output state) without
        ``inputs``: each cell's bound query, cells in ``Coord`` order,
        stably sorted by action name.  A query that yields a step is its
        input state: a bound ``tile`` is the cell's tile.  The bound query
        reads only the fields of its state, so it is a plain tuple, and an
        input ``StateTerm`` is built only for a cell that has steps."""
        grid = self.grid
        map_id, tiles = grid.id, grid.tiles
        listing = []
        for x in range(grid.width):
            for y in range(grid.height):
                query = (map_id, (x, y), tiles[y][x] if tile is UNKNOWN else tile)
                steps = self.successors(query)
                if not inputs:
                    listing += steps
                elif steps:
                    here = new_tuple(StateTerm, (map_id, new_tuple(Coord, (x, y)), query[2]))
                    listing += [(name, here, nxt) for name, nxt in steps]
        listing.sort(key=itemgetter(0))
        return listing
