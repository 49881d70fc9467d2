"""Planning models: state terms, ground step actions, problems.

A state term bundles a map identifier, a position and the tile kind at that
position.  Instantiating a map turns each ordered pair of adjacent passable
cells into one ground step action; ``ActionBackground`` indexes them for
resolution.  The same plain model serves planning on full maps and, on the
3x3 observation matrices, the one-step solves that controller training
behaviours are read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .grid import DIRECTIONS, Coord, GridMap


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
    by direction, with tile kinds read from the map."""
    actions = []
    for cell in grid.passable_cells():
        for d, nxt in grid.neighbors(cell):
            actions.append(
                GroundAction(
                    action_name(d),
                    StateTerm(grid.id, cell, grid.tile_at(cell)),
                    StateTerm(grid.id, nxt, grid.tile_at(nxt)),
                )
            )
    actions.sort(key=lambda a: (a.name, a.input.pos))
    return tuple(actions)


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


class ActionBackground:
    """Ground step actions of one map, indexed for resolution.

    Symbols are the action predicate names present.  ``successors(state)``
    yields (name, action, next state) for every action whose input state
    unifies with the query, in symbol order: through an index by input
    position, or over all actions when the position is UNKNOWN.
    """

    def __init__(self, actions: Sequence[GroundAction]):
        if not actions:
            raise ValueError("background must contain at least one ground action")
        self._actions = sorted(actions, key=lambda a: a.name)
        self._by_pos: dict[Coord, list[GroundAction]] = {}
        for a in self._actions:
            self._by_pos.setdefault(a.input.pos, []).append(a)
        self.symbols = tuple(sorted({a.name for a in actions}))

    def successors(self, state: StateTerm):
        acts = self._actions if state.pos is UNKNOWN else self._by_pos.get(state.pos, ())
        for act in acts:
            if act.input.matches(state):
                yield act.name, act, act.output
