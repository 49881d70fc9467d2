"""Planning models: state terms, ground step actions, problems.

A state term bundles a map identifier, a position and the tile kind at that
position.  Each ordered pair of adjacent passable cells is one ground step
action.  ``ActionBackground`` reads them off the map's tiles per query:
learning asks it with the position unbound, planning and behaviour
generation with a bound one, so a solve builds only the actions at the
states it visits.  ``instantiate_actions`` is its unbound query, the
map's action listing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .grid import DELTA, DIRECTIONS, PASSABLE_TILES, Coord, GridMap


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
    """Whether two term fields unify: equal, or either one UNKNOWN."""
    return a is UNKNOWN or b is UNKNOWN or a == b


def action_name(direction: str) -> str:
    return f"step_{direction}"


_DIRECTION_FOR_NAME = {action_name(d): d for d in DIRECTIONS}


def direction_of(name: str) -> str:
    return _DIRECTION_FOR_NAME[name]


def _term(value) -> str:
    return repr(value) if not isinstance(value, str) else value


@dataclass(frozen=True)
class StateTerm:
    """Fluents of one environment state: map id, position, tile kind.

    ``pos`` and ``tile`` may be UNKNOWN in problem statements; the map id is
    always ground.  Wall tiles never appear in state terms.
    """

    map_id: str
    pos: Coord | _Unknown
    tile: str | _Unknown

    def matches(self, other: "StateTerm") -> bool:
        """Fieldwise unification against another state term; UNKNOWN fields
        on either side match anything."""
        return (
            self.map_id == other.map_id
            and unifies(self.pos, other.pos)
            and unifies(self.tile, other.tile)
        )

    def __repr__(self) -> str:
        return f"[{self.map_id},{_term(self.pos)},{_term(self.tile)}]"


@dataclass(frozen=True)
class GroundAction:
    """One instantiated step: moves the agent between two adjacent passable
    cells of a specific map, reading tile kinds from the map."""

    name: str
    input: StateTerm
    output: StateTerm

    def direction(self) -> str:
        return direction_of(self.name)

    def as_line(self) -> str:
        return f"{self.name}({self.input!r},{self.output!r})."


@dataclass(frozen=True)
class PlanningProblem:
    """Initial and goal state terms over one map; either side may leave
    position and tile unbound."""

    map_id: str
    initial: StateTerm
    goal: StateTerm


def instantiate_actions(grid: GridMap) -> tuple[GroundAction, ...]:
    """One ground action per ordered pair of adjacent passable cells, named
    by direction, with tile kinds read from the map; sorted by name, then
    input position.  It is the map's background queried at an unbound
    position."""
    query = StateTerm(grid.id, UNKNOWN, UNKNOWN)
    return tuple(act for _, act, _ in ActionBackground(grid).successors(query))


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


# (action name, dx, dy) in sorted action-name order: down, left, right, up.
_STEPS = tuple(sorted((action_name(d), *DELTA[d]) for d in DIRECTIONS))


class ActionBackground:
    """The ground step actions of one map, read off its tiles per query.

    ``successors(state)`` yields (name, action, next state) for every action
    whose input state unifies with the query.  At a bound position these are
    the steps to its passable neighbors, in sorted action-name order; at an
    UNKNOWN position they are all such steps of the map, sorted by name,
    then input position.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid

    def successors(self, state: StateTerm):
        if state.pos is not UNKNOWN:
            return self._leaving(state, state.pos)
        grid = self.grid
        # Cells in Coord order; the stable sort by name keeps it per name.
        found = [
            step
            for x in range(grid.width)
            for y in range(grid.height)
            for step in self._leaving(state, Coord(x, y))
        ]
        found.sort(key=lambda step: step[0])
        return found

    def _leaving(self, state: StateTerm, pos: Coord):
        """The steps out of one cell, when the query's map id and tile unify
        with the map's."""
        grid = self.grid
        map_id, width, height, tiles = grid.id, grid.width, grid.height, grid.tiles
        x, y = pos
        if state.map_id != map_id or not (0 <= x < width and 0 <= y < height):
            return
        tile = tiles[y][x]
        if tile not in PASSABLE_TILES or not unifies(state.tile, tile):
            return
        here = StateTerm(map_id, pos, tile)
        for name, dx, dy in _STEPS:
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                nxt_tile = tiles[ny][nx]
                if nxt_tile in PASSABLE_TILES:
                    nxt = StateTerm(map_id, Coord(nx, ny), nxt_tile)
                    yield name, GroundAction(name, here, nxt), nxt
