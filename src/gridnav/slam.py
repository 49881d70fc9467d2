"""Grid mapping for executors: an unbounded, origin-relative record of
observation evidence and visit marks, plus a dead-reckoned agent pose.

Built while a controller explores an unknown map so the executor can refuse
to re-enter cells it already occupied (except when reversing course), which
is what stops it circling in open areas.  Poses are exact integer offsets
from the start cell; grid actions are noiseless, so there is no uncertainty
model.  ``slam_update`` reads each observation label's neighbor offsets and
evidence from a table of the 16 p/u labels, built once at import; a
``SlamMap`` is built once per executor run.
"""

from __future__ import annotations

from itertools import product

from .grid import DELTA, DIRECTIONS, UNKNOWN_GLYPH
from .record import Record

UNOBSERVED = "unknown"
PASSABLE = "passable"
UNPASSABLE = "unpassable"
VISITED = "visited"

_CELL_GLYPHS = {PASSABLE: ".", UNPASSABLE: "#", VISITED: "o", UNOBSERVED: UNKNOWN_GLYPH}


# Each p/u observation label (uuuu included) as its four neighbors'
# (dx, dy, evidence), in DIRECTIONS order.
_EVIDENCE = {
    "".join(label): tuple((*DELTA[d], PASSABLE if ch == "p" else UNPASSABLE)
                          for ch, d in zip(label, DIRECTIONS))
    for label in product("pu", repeat=4)
}


class SlamFault(RuntimeError):
    """An observation was not a p/u label or contradicted previously
    recorded evidence, which can only mean the dead-reckoned pose has
    drifted."""


class SlamMap(Record):
    """Expanding map of cell evidence, owned by a single executor run.

    Cells are keyed by (dx, dy) offsets from the start cell; absent keys are
    unobserved.  A visited mark never downgrades.
    """

    __slots__ = _fields = ("cells", "pose")

    def __init__(self, cells: dict[tuple[int, int], str] | None = None,
                 pose: tuple[int, int] = (0, 0)) -> None:
        self.cells = {} if cells is None else cells
        self.pose = pose

    def cell(self, offset: tuple[int, int]) -> str:
        return self.cells.get(offset, UNOBSERVED)


def slam_update(slam: SlamMap, obs: str) -> SlamMap:
    """Mark the agent's cell visited and record each neighbor's passability
    from the observation label.  Idempotent for a repeated observation;
    contradictions and labels outside the 16 p/u labels raise SlamFault."""
    evidence = _EVIDENCE.get(obs)
    if evidence is None:
        raise SlamFault(f"observation label {obs!r} is not one of the 16 p/u labels")
    cells, pose = slam.cells, slam.pose
    if cells.get(pose) == UNPASSABLE:
        raise SlamFault(f"cell {pose} was unpassable but is being visited")
    cells[pose] = VISITED
    x, y = pose
    for dx, dy, value in evidence:
        offset = (x + dx, y + dy)
        current = cells.setdefault(offset, value)
        if current == value:
            continue
        if current == UNOBSERVED:
            cells[offset] = value
        elif current != VISITED:
            raise SlamFault(f"cell {offset} observed {value!r} after {current!r}")
        elif value == UNPASSABLE:
            raise SlamFault(f"cell {offset} was visited but now observes unpassable")
    return slam


def slam_move(slam: SlamMap, action: str) -> SlamMap:
    """Shift the dead-reckoned pose by the action's delta."""
    dx, dy = DELTA[action]
    x, y = slam.pose
    slam.pose = (x + dx, y + dy)
    return slam


def slam_permits(slam: SlamMap, action: str) -> bool:
    """Whether a move is allowed: only into a cell not yet visited."""
    dx, dy = DELTA[action]
    x, y = slam.pose
    return slam.cells.get((x + dx, y + dy)) != VISITED


def render_slam(slam: SlamMap) -> str:
    """Text render over the bounding box of everything recorded; unobserved
    cells show as a distinct glyph and the agent as @."""
    keys = set(slam.cells) | {slam.pose}
    xs = [k[0] for k in keys]
    ys = [k[1] for k in keys]
    rows = []
    for y in range(max(ys), min(ys) - 1, -1):
        row = []
        for x in range(min(xs), max(xs) + 1):
            if (x, y) == slam.pose:
                row.append("@")
            else:
                row.append(_CELL_GLYPHS[slam.cell((x, y))])
        rows.append("".join(row))
    return "\n".join(rows)
