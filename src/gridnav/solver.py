"""Run learned navigation programs: planning, plan playback, and the
observation-matrix pipeline that produces controller training behaviours."""

from __future__ import annotations

from .fsc import FSCTuple, OBSERVATION_LABELS, STATE_FOR_ACTION, interned, observe
from .grid import DELTA, DIRECTIONS, FLOOR, WALL, Coord, GridMap
from .mil import Hypothesis, first_derivation
from .model import (
    UNKNOWN,
    ActionBackground,
    GroundAction,
    PlanningProblem,
    StateTerm,
    _DIRECTION_FOR_NAME,
    _new_tuple,
    problem_from_map,
)
from .record import FrozenRecord
# Not called here; perfbench/selftest.py requires the binding (REQUIRED_BINDINGS).
from .model import instantiate_actions  # noqa: F401


class PlanningError(Exception):
    pass


class UnsolvableError(PlanningError):
    """The search exhausted every derivation without reaching the goal."""


class Plan(FrozenRecord):
    """A chained action sequence from a start state to a goal state."""

    __slots__ = _fields = ("actions", "labels", "start", "goal")

    def __init__(self, actions: tuple, labels: tuple[str, ...], start: StateTerm,
                 goal: StateTerm) -> None:
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "goal", goal)

    def __len__(self) -> int:
        return len(self.actions)

    def to_labels_line(self) -> str:
        return ",".join(self.labels)


def solve(grid: GridMap, hypothesis: Hypothesis, problem: PlanningProblem | None = None) -> Plan:
    """Plan with a learned program over the map's step actions, read off
    the grid at each state the search visits.

    The search is deterministic: repeated calls on the same map and problem
    walk the identical derivation and return the identical plan.
    """
    if problem is None:
        problem = problem_from_map(grid)
    if not hypothesis.clauses:
        raise PlanningError("hypothesis is empty")
    if problem.map_id != grid.id:
        raise PlanningError(f"problem is for map {problem.map_id!r}, not {grid.id!r}")
    if problem.initial.pos is UNKNOWN:
        raise PlanningError("initial state must bind a position")
    if problem.initial == problem.goal:
        raise PlanningError("start equals goal: every clause applies at least one action")
    steps = first_derivation(ActionBackground(grid), hypothesis, problem.initial, problem.goal)
    if steps is None:
        raise UnsolvableError(f"no derivation reaches the goal on map {grid.id!r}")
    # The plan's own actions, chained from the initial state's map tile.
    here = StateTerm(grid.id, problem.initial.pos, grid.tile_at(problem.initial.pos))
    actions = []
    for name, nxt in steps:
        actions.append(tuple.__new__(GroundAction, (name, here, nxt)))
        here = nxt
    labels = tuple([_DIRECTION_FOR_NAME[name] for name, _ in steps])
    return Plan(tuple(actions), labels, problem.initial, problem.goal)


def playback(grid: GridMap, labels) -> tuple[bool, Coord]:
    """Apply action labels from the start tile; fails on the first move into
    a wall or off the map.  Succeeds iff the final position is the end tile.
    Returns (success, final position)."""
    start, end = grid.require_endpoints()
    pos = start
    for label in labels:
        if label not in DIRECTIONS:
            raise ValueError(f"unknown action label {label!r}")
        nxt = pos.shifted(label)
        if not grid.passable(nxt):
            return False, pos
        pos = nxt
    return pos == end, pos


# A matrix's center and its four neighbors, in DIRECTIONS order.
_CENTER = Coord(1, 1)
_NEIGHBORS = tuple(Coord(1 + dx, 1 + dy) for dx, dy in map(DELTA.get, DIRECTIONS))


def observation_matrices() -> tuple[GridMap, ...]:
    """One 3x3 training map per observation label: the center cell is
    passable and its four neighbors realize exactly that label."""
    matrices = []
    for label in OBSERVATION_LABELS:
        tiles = [[WALL] * 3 for _ in range(3)]
        tiles[1][1] = FLOOR
        for ch, n in zip(label, _NEIGHBORS):
            tiles[n.y][n.x] = FLOOR if ch == "p" else WALL
        matrices.append(
            GridMap(f"obs_{label}", 3, 3, tuple(tuple(r) for r in tiles))
        )
    return tuple(matrices)


def generate_behaviours(matrices, hypothesis: Hypothesis) -> tuple[tuple[FSCTuple, ...], ...]:
    """Solve each matrix once per passable direction on its plain action
    model, and read one behaviour off each plan.

    Each solve runs from the center to one passable neighbor.  Every step of
    the plan gives one tuple (q, o, a, q'): o is the observation at the
    step's input cell, a the step's direction, and q' the state indexed by
    a; q is q0 on the first step and the previous q' after it.  A matrix's
    neighbors touch only the center, so each plan is one step long.
    """
    center = _CENTER
    behaviours = []
    for matrix in matrices:
        # Raises MapError unless the center is an in-bounds passable cell;
        # a neighbor it labels p is one too.
        label = observe(matrix, center)
        map_id, tiles = matrix.id, matrix.tiles
        background = ActionBackground(matrix)
        initial = _new_tuple(StateTerm, (map_id, center, tiles[1][1]))
        for ch, d, goal_pos in zip(label, DIRECTIONS, _NEIGHBORS):
            if ch != "p":
                continue
            goal = _new_tuple(StateTerm, (map_id, goal_pos, tiles[goal_pos.y][goal_pos.x]))
            steps = first_derivation(background, hypothesis, initial, goal)
            if steps is None:
                raise UnsolvableError(f"matrix {matrix.id!r} has no {d} behaviour")
            q, pos = "q0", center
            behaviour = []
            for name, nxt in steps:
                a = _DIRECTION_FOR_NAME[name]
                o = label if pos == center else observe(matrix, pos)
                q_next = STATE_FOR_ACTION[a]
                behaviour.append(interned(q, o, a, q_next))
                q, pos = q_next, nxt.pos
            behaviours.append(tuple(behaviour))
    return tuple(behaviours)
