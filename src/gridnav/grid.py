"""Rectangular tile maps: parsing, serialization, generation and text rendering.

A map is a grid of single-character tiles (floor ``f``, wall ``w``, start
``s``, end ``e``).  Coordinates are ``x/y`` with ``x`` growing rightward and
``y`` growing upward; map files store the top row first.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator, NamedTuple, Sequence

from .record import FrozenRecord

FLOOR = "f"
WALL = "w"
START = "s"
END = "e"
TILE_KINDS = frozenset((FLOOR, WALL, START, END))
PASSABLE_TILES = frozenset((FLOOR, START, END))

# Canonical direction order: up, right, down, left.  Observation labels,
# controller lookups and action alphabets all use this order.
DIRECTIONS = ("up", "right", "down", "left")
DELTA = {"up": (0, 1), "right": (1, 0), "down": (0, -1), "left": (-1, 0)}
OPPOSITE = {"up": "down", "down": "up", "left": "right", "right": "left"}
# Each side's bit in a ``blocked`` mask: 8 up, 4 right, 2 down, 1 left.
BLOCKED_BIT = {d: 8 >> i for i, d in enumerate(DIRECTIONS)}

GLYPHS = {FLOOR: ".", WALL: "#", START: "S", END: "E"}
ARROWS = {"up": "^", "right": ">", "down": "v", "left": "<"}
UNKNOWN_GLYPH = "?"


class MapError(ValueError):
    """Raised for malformed map text or invalid generator parameters."""


class Coord(NamedTuple):
    x: int
    y: int

    def shifted(self, direction: str) -> "Coord":
        dx, dy = DELTA[direction]
        return Coord(self.x + dx, self.y + dy)

    def __repr__(self) -> str:
        return f"{self.x}/{self.y}"


class Layout:
    """A passability layout's tables, one slot per cell ``y * width + x``,
    each empty until read: observation labels and ``Coord``s (``labels``,
    ``coords``), and floor ``StateTerm``s ``(id, Coord, "f")`` and step
    lists (``floor``, ``steps``).

    A map's ``with_endpoints`` copies share its layout, as moving the start
    and end changes no passability; any other map (constructed, parsed,
    generated, pickled or copied) has its own.  So the tables read every
    passable cell as floor, and each ``model.ActionBackground`` patches the
    steps into its own map's start and end in its own copy of ``steps``."""

    __slots__ = ("labels", "coords", "floor", "steps")

    def __init__(self, cells: int) -> None:
        self.labels, self.coords, self.floor, self.steps = ([None] * cells for _ in range(4))


class GridMap(FrozenRecord):
    """Immutable tile grid with optional start/end tiles.

    ``tiles[y][x]`` is the tile at column ``x``, row ``y`` (row 0 at the
    bottom).  Maps used as navigation instances carry exactly one start and
    one end tile; bare training grids may carry neither.  ``start`` and
    ``end`` are always read off the tiles; the arguments of those names are
    ignored.

    ``layout`` is the map's ``Layout``.  It is not a field: equality,
    hashing, the repr and pickling ignore it.
    """

    __slots__ = ("id", "width", "height", "tiles", "start", "end", "layout")
    _fields = ("id", "width", "height", "tiles", "start", "end")

    def __init__(self, id: str, width: int, height: int, tiles: tuple[tuple[str, ...], ...],
                 start: Coord | None = None, end: Coord | None = None) -> None:
        if width < 1 or height < 1:
            raise MapError(f"map {id!r}: dimensions must be positive")
        if len(tiles) != height or any(len(r) != width for r in tiles):
            raise MapError(f"map {id!r}: tile array does not match declared dimensions")
        for row in tiles:
            for tile in row:
                if tile not in TILE_KINDS:
                    raise MapError(f"map {id!r}: unknown tile kind {tile!r}")
        cells = "".join(map("".join, tiles))
        if cells.count(START) > 1 or cells.count(END) > 1:
            raise MapError(f"map {id!r}: multiple start or end tiles")
        start, end = cells.find(START), cells.find(END)
        self._set(id, width, height, tiles,
                  Coord(start % width, start // width) if start >= 0 else None,
                  Coord(end % width, end // width) if end >= 0 else None,
                  Layout(width * height))

    def _set(self, *values) -> "GridMap":
        """Set the seven slots, in ``__slots__`` order; returns the map."""
        for name, value in zip(GridMap.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def from_rows(cls, map_id: str, rows_top_first: Sequence[str]) -> "GridMap":
        rows = list(rows_top_first)
        tiles = tuple(tuple(row) for row in reversed(rows))
        return cls(map_id, len(rows[0]) if rows else 0, len(rows), tiles)

    def in_bounds(self, c: Coord) -> bool:
        return 0 <= c.x < self.width and 0 <= c.y < self.height

    def tile_at(self, c: Coord) -> str:
        if not self.in_bounds(c):
            raise MapError(f"map {self.id!r}: coordinate {c!r} out of bounds")
        return self.tiles[c.y][c.x]

    def passable(self, c: Coord) -> bool:
        return self.in_bounds(c) and self.tiles[c.y][c.x] in PASSABLE_TILES

    def cells(self) -> Iterator[Coord]:
        for y in range(self.height):
            for x in range(self.width):
                yield Coord(x, y)

    def passable_cells(self) -> list[Coord]:
        return [c for c in self.cells() if self.passable(c)]

    def require_endpoints(self) -> tuple[Coord, Coord]:
        if self.start is None or self.end is None:
            raise MapError(f"map {self.id!r}: needs both a start and an end tile")
        return self.start, self.end


def blocked(grid: GridMap, x: int, y: int) -> int:
    """The one neighbour rule: the sum of ``BLOCKED_BIT`` over the sides of
    in-bounds cell x/y whose neighbour is off the map or unpassable."""
    height, width, tiles = grid.height, grid.width, grid.tiles
    row = tiles[y]
    return ((0 if y + 1 < height and tiles[y + 1][x] in PASSABLE_TILES else 8)
            + (0 if x + 1 < width and row[x + 1] in PASSABLE_TILES else 4)
            + (0 if y > 0 and tiles[y - 1][x] in PASSABLE_TILES else 2)
            + (0 if x > 0 and row[x - 1] in PASSABLE_TILES else 1))


def text_lines(text: str) -> list[str]:
    """The lines of a map, controller or solver text: one leading
    byte-order mark is dropped, and a line ends at LF, with an optional CR
    before it.  Any other control character stays inside its line."""
    return text.removeprefix("\ufeff").replace("\r\n", "\n").split("\n")


def parse_map(text: str, map_id: str) -> GridMap:
    """Parse map-file text (top row first) into a GridMap.

    Reports ragged rows, unknown characters and missing or duplicated
    start/end tiles with their row/column position (rows counted from the
    top of the file, columns from the left, both 0-based).  Rows are the
    ``text_lines``; a carriage return left inside one is a bad character.
    """
    rows = text_lines(text)
    if not "".join(rows).strip():
        raise MapError(f"map {map_id!r}: empty map text")
    if rows[-1] == "":
        rows.pop()
    width = len(rows[0])
    starts: list[tuple[int, int]] = []
    ends: list[tuple[int, int]] = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise MapError(f"map {map_id!r}: ragged row {r} (length {len(row)}, expected {width})")
        for c, ch in enumerate(row):
            if ch not in TILE_KINDS:
                raise MapError(f"map {map_id!r}: bad character {ch!r} at row {r}, column {c}")
            if ch == START:
                starts.append((r, c))
            if ch == END:
                ends.append((r, c))
    for kind, found in ((START, starts), (END, ends)):
        if len(found) > 1:
            at = ", ".join(f"row {r} column {c}" for r, c in found)
            raise MapError(f"map {map_id!r}: multiple {kind!r} tiles ({at})")
        if not found:
            raise MapError(f"map {map_id!r}: no {kind!r} tile")
    return GridMap.from_rows(map_id, rows)


def serialize_map(grid: GridMap) -> str:
    """Render a GridMap back to map-file text; inverse of parse_map."""
    rows = ["".join(row) for row in reversed(grid.tiles)]
    return "\n".join(rows) + "\n"


def with_endpoints(grid: GridMap, start: Coord, end: Coord) -> GridMap:
    """Copy of ``grid`` with start/end moved to the given passable cells,
    sharing ``grid``'s ``Layout``.

    The source's tiles are valid and only passable cells are rewritten, to
    passable kinds, so the copy is built without re-validating its tiles:
    it has one start and one end, at ``start`` and ``end``."""
    if start == end:
        raise MapError("start and end must be distinct")
    rows = list(grid.tiles)  # only rows whose tiles change are copied
    for c, kind in ((grid.start, FLOOR), (grid.end, FLOOR), (start, START), (end, END)):
        if c is None:
            continue
        if kind != FLOOR and (not grid.in_bounds(c) or rows[c.y][c.x] not in PASSABLE_TILES):
            raise MapError(f"cannot place {kind!r} on unpassable cell {c!r}")
        row = rows[c.y] = list(rows[c.y])
        row[c.x] = kind
    return object.__new__(GridMap)._set(grid.id, grid.width, grid.height, tuple(map(tuple, rows)),
                                        Coord(start.x, start.y), Coord(end.x, end.y),
                                        grid.layout)


def _place_endpoints(rows: list[list[str]], map_id: str, width: int, height: int,
                     rng: random.Random) -> GridMap:
    passable = [(x, y) for y, row in enumerate(rows) for x, tile in enumerate(row)
                if tile in PASSABLE_TILES]
    (sx, sy), (ex, ey) = rng.sample(passable, 2)
    rows[sy][sx] = START
    rows[ey][ex] = END
    return GridMap(map_id, width, height, tuple(tuple(r) for r in rows))


def _check_size(kind: str, width: int, height: int) -> None:
    """Raise ``MapError`` unless both sides are at least 5 and a ``Layout``
    table of ``width * height`` slots can be indexed, and ``MemoryError``
    unless one such table fits in memory, before any row is built."""
    if width < 5 or height < 5:
        raise MapError(f"{kind} dimensions must be at least 5x5, got {width}x{height}")
    if width * height > sys.maxsize:
        raise MapError(f"{kind} dimensions {width}x{height} exceed {sys.maxsize} cells")
    [None] * (width * height)


def _check_maze_size(width: int, height: int) -> None:
    """Raise ``MapError`` unless both maze sides are odd and pass ``_check_size``."""
    if width % 2 == 0 or height % 2 == 0:
        raise MapError(f"maze dimensions must be odd, got {width}x{height}")
    _check_size("maze", width, height)


# The unit steps in ``DIRECTIONS`` order, for the maze's inner loop.
_STEPS = tuple(map(DELTA.get, DIRECTIONS))


def generate_maze(width: int, height: int, seed: int) -> GridMap:
    """Generate a perfect maze: corridor width 1, no open areas, and a
    unique simple path between any two passable cells.

    Carves with a randomized depth-first backtracker over the even-coordinate
    cell lattice, then places start and end tiles at random distinct passable
    cells.  Deterministic for a given (width, height, seed).
    """
    _check_maze_size(width, height)
    rng = random.Random(seed)
    rows = [[WALL] * width for _ in range(height)]
    # A lattice cell is floor exactly when the walk has entered it.
    rows[0][0] = FLOOR
    stack = [(0, 0)]
    while stack:
        x, y = stack[-1]
        options = [(dx, dy) for dx, dy in _STEPS
                   if 0 <= x + 2 * dx < width and 0 <= y + 2 * dy < height
                   and rows[y + 2 * dy][x + 2 * dx] == WALL]
        if not options:
            stack.pop()
            continue
        dx, dy = options[rng.randrange(len(options))]
        rows[y + dy][x + dx] = rows[y + 2 * dy][x + 2 * dx] = FLOOR
        stack.append((x + 2 * dx, y + 2 * dy))
    return _place_endpoints(rows, f"maze_{seed}", width, height, rng)


# Derived seeds a lake is rolled from before generation gives up.
_LAKE_TRIES = 25


def generate_lake(width: int, height: int, seed: int) -> GridMap:
    """Generate an open-area map: one connected passable region filling at
    least half the grid, dotted with unpassable islands.

    Uses seeded cellular-automaton smoothing over a random fill, keeps the
    largest passable component, and retries with derived seeds until the
    region is large enough.  Deterministic for a given (width, height, seed).

    Raises ``MapError`` when no try gives a large enough region, which can
    happen on thin maps: ``generate_lake(7, 5, 430051420)`` and
    ``generate_lake(25, 5, 4198417077)`` do.
    """
    _check_size("lake", width, height)
    ring = [True] * (width + 2)
    for attempt in range(_LAKE_TRIES):
        rng = random.Random(seed * 1009 + attempt)
        # ``wall[y][x]``; each pass pads the grid with a ring of walls, so an
        # off-map neighbour counts as a wall.
        wall = [[rng.random() < 0.40 for _ in range(width)] for _ in range(height)]
        for _ in range(4):
            padded = [ring, *([True, *row, True] for row in wall), ring]
            wall = []
            for below, row, above in zip(padded, padded[1:], padded[2:]):
                column = [a + b + c for a, b, c in zip(below, row, above)]
                wall.append([a + b + c >= 5 for a, b, c in zip(column, column[1:], column[2:])])
        # Two components of half the cells each would leave at most one wall,
        # which cannot split a map of sides 5 or more: set order cannot matter.
        component = _largest_component(wall)
        if len(component) < (width * height) // 2:
            continue
        rows = [[WALL] * width for _ in range(height)]
        for x, y in component:
            rows[y][x] = FLOOR
        return _place_endpoints(rows, f"lake_{seed}", width, height, rng)
    raise MapError(f"lake generation failed after {_LAKE_TRIES} tries for seed {seed}")


def _largest_component(wall: list[list[bool]]) -> set[tuple[int, int]]:
    unvisited = {(x, y) for y, row in enumerate(wall) for x, w in enumerate(row) if not w}
    best: set[tuple[int, int]] = set()
    while unvisited:
        root = unvisited.pop()
        comp = {root}
        frontier = [root]
        while frontier:
            x, y = frontier.pop()
            for n in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if n in unvisited:
                    unvisited.remove(n)
                    comp.add(n)
                    frontier.append(n)
        if len(comp) > len(best):
            best = comp
    return best


def render_map(grid: GridMap, trace: Sequence[Coord] | None = None) -> str:
    """Human-readable render, top row first.

    ``trace`` is a visited path; each traced cell is overlaid with an arrow
    pointing toward the next cell, later visits overwriting earlier ones.
    """
    canvas = [[GLYPHS[t] for t in row] for row in grid.tiles]
    if trace:
        for c in trace:
            if not grid.in_bounds(c):
                raise MapError(f"trace coordinate {c!r} out of bounds")
        for cur, nxt in zip(trace, trace[1:]):
            dx, dy = nxt.x - cur.x, nxt.y - cur.y
            arrow = next((ARROWS[d] for d in DIRECTIONS if DELTA[d] == (dx, dy)), None)
            if arrow is None:
                raise MapError(f"trace jumps from {cur!r} to {nxt!r}")
            canvas[cur.y][cur.x] = arrow
    return "\n".join("".join(row) for row in reversed(canvas))
