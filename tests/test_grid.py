from __future__ import annotations

import copy
import hashlib
import pickle
import random

import pytest

from gridnav import (
    DIRECTIONS,
    Coord,
    GridMap,
    MapError,
    fixture_map,
    generate_lake,
    generate_maze,
    instantiate_actions,
    lake_fixture_names,
    map_fixture_names,
    observe,
    parse_map,
    render_map,
    serialize_map,
    with_endpoints,
    zero_map,
)
from gridnav.fixtures import _read
from gridnav.grid import Layout

from test_fsc import NOT_LINE_ENDS


def neighbors(grid: GridMap, c: Coord) -> list[tuple[str, Coord]]:
    """Passable von Neumann neighbors as (direction, coordinate) pairs."""
    return [(d, c.shifted(d)) for d in DIRECTIONS if grid.passable(c.shifted(d))]


def adjacency_edges(grid: GridMap) -> set[frozenset[Coord]]:
    """Independent oracle: undirected adjacent passable pairs by brute force."""
    edges = set()
    for c in grid.passable_cells():
        for _, n in neighbors(grid, c):
            edges.add(frozenset((c, n)))
    return edges


def connected_component(grid: GridMap, root: Coord) -> set[Coord]:
    """Independent oracle: flood fill from a root cell."""
    seen = {root}
    frontier = [root]
    while frontier:
        cur = frontier.pop()
        for _, n in neighbors(grid, cur):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return seen


class TestParse:
    def test_two_by_two_with_endpoints(self):
        grid = parse_map("sf\nfe", "tiny")
        assert (grid.width, grid.height) == (2, 2)
        assert len(grid.passable_cells()) == 4
        assert grid.start == Coord(0, 1)
        assert grid.end == Coord(1, 0)

    def test_minimal_map(self):
        grid = parse_map("se", "pair")
        assert (grid.width, grid.height) == (2, 1)
        assert grid.start == Coord(0, 0)
        assert grid.end == Coord(1, 0)

    def test_ragged_rows_error(self):
        with pytest.raises(MapError, match="ragged row 1"):
            parse_map("ff\nf", "bad")

    def test_bad_character_reports_position(self):
        with pytest.raises(MapError, match="row 1, column 2"):
            parse_map("sff\nffx\nffe", "bad")

    def test_missing_start(self):
        with pytest.raises(MapError, match="no 's' tile"):
            parse_map("ff\nfe", "bad")

    def test_duplicate_end_reports_positions(self):
        with pytest.raises(MapError, match="multiple 'e' tiles"):
            parse_map("se\nfe", "bad")

    def test_empty_text(self):
        with pytest.raises(MapError, match="empty"):
            parse_map("", "bad")

    def test_crlf_line_ends_parse_as_lf(self):
        assert parse_map("sf\r\nfe\r\n", "tiny") == parse_map("sf\nfe\n", "tiny")

    def test_leading_bom_is_dropped(self):
        assert parse_map("\ufeffsf\r\nfe", "tiny") == parse_map("sf\nfe", "tiny")

    def test_stray_carriage_return_is_an_error(self):
        with pytest.raises(MapError, match="row 0, column 1"):
            parse_map("s\rf\nfe", "bad")

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_only_lf_ends_a_row(self, sep):
        with pytest.raises(MapError) as caught:
            parse_map(f"s{sep}f\nfe", "bad")
        assert str(caught.value).endswith(f"bad character {sep!r} at row 0, column 1")

    def test_rows_fill_top_first(self):
        grid = parse_map("sw\nfe", "orient")
        assert grid.tile_at(Coord(0, 1)) == "s"
        assert grid.tile_at(Coord(1, 1)) == "w"
        assert grid.tile_at(Coord(1, 0)) == "e"


class TestSerialize:
    def test_round_trip_small(self):
        text = "se\n"
        assert serialize_map(parse_map(text, "pair")) == text

    def test_round_trip_two_by_two(self):
        grid = parse_map("sf\nfe", "tiny")
        assert parse_map(serialize_map(grid), "tiny") == grid

    def test_fixture_files_round_trip_byte_identical(self):
        for name in ("maze_a", "maze_b", *lake_fixture_names()):
            raw = _read("maps", f"{name}.map")
            assert serialize_map(parse_map(raw, name)) == raw

    def test_generated_maps_round_trip(self):
        for seed in range(5):
            maze = generate_maze(9, 9, seed)
            assert parse_map(serialize_map(maze), maze.id) == maze


class TestGridMapInvariants:
    def test_zero_map_is_all_floor(self):
        grid = zero_map()
        assert len(grid.passable_cells()) == 4
        assert grid.start is None and grid.end is None

    def test_duplicate_tiles_rejected(self):
        with pytest.raises(MapError, match="multiple"):
            GridMap.from_rows("bad", ["ss"])
        with pytest.raises(MapError, match="multiple"):
            GridMap.from_rows("bad", ["ee"])

    @pytest.mark.parametrize("rows", [[], [""]], ids=["no rows", "empty row"])
    def test_empty_rows_rejected(self, rows):
        with pytest.raises(MapError, match="dimensions must be positive"):
            GridMap.from_rows("x", rows)

    def test_bad_tile_arrays_rejected(self):
        with pytest.raises(MapError, match="unknown tile kind 'x'"):
            GridMap("bad", 2, 2, (("f", "f"), ("f", "x")))
        with pytest.raises(MapError, match="does not match declared dimensions"):
            GridMap("bad", 2, 2, (("f", "f"), ("f",)))
        # A bad tile is reported before duplicated start tiles.
        with pytest.raises(MapError, match="unknown tile kind '\\?'"):
            GridMap("bad", 2, 2, (("s", "s"), ("f", "?")))

    @pytest.mark.parametrize("row, bad", [
        (("ff", ""), "'ff'"),    # a long and an empty tile make up the row length
        (("", "ff"), "''"),
        (("f", 1), "1"),
        (("f", b"f"), "b'f'"),
        (("|", "f"), "'\\|'"),  # the separator used to check tiles
        (("f|f", ""), "'f\\|f'"),
        (("S", "f"), "'S'"),
    ])
    def test_every_tile_is_one_known_kind(self, row, bad):
        with pytest.raises(MapError, match=f"unknown tile kind {bad}$"):
            GridMap("bad", 2, 2, (("f", "f"), row))

    def test_unhashable_tile_is_a_type_error(self):
        with pytest.raises(TypeError):
            GridMap("bad", 2, 1, (("f", ["f"]),))

    def test_endpoints_read_off_the_tiles(self):
        grid = GridMap("g", 3, 2, (("f", "w", "e"), ("s", "f", "f")), start=Coord(2, 1))
        assert (grid.start, grid.end) == (Coord(0, 1), Coord(2, 0))
        assert GridMap("g", 1, 1, (("f",),)).start is None

    def test_with_endpoints_copies_only_changed_rows(self):
        grid = fixture_map("lake_01")
        cells = grid.passable_cells()
        start, end = cells[0], cells[-1]
        moved = with_endpoints(grid, start, end)
        changed = {grid.start.y, grid.end.y, start.y, end.y}
        for y, row in enumerate(moved.tiles):
            assert type(row) is tuple
            assert (row is grid.tiles[y]) == (y not in changed), y
        assert (moved.start, moved.end) == (start, end)
        assert serialize_map(moved).count("s") == serialize_map(moved).count("e") == 1

    def test_with_endpoints_moves_tiles(self):
        grid = parse_map("sf\nfe", "tiny")
        moved = with_endpoints(grid, Coord(1, 1), Coord(0, 0))
        assert moved.start == Coord(1, 1)
        assert moved.end == Coord(0, 0)
        assert moved.tile_at(Coord(0, 1)) == "f"

    def test_with_endpoints_rejects_wall(self):
        grid = parse_map("sw\nfe", "tiny")
        with pytest.raises(MapError):
            with_endpoints(grid, Coord(1, 1), Coord(0, 0))


def without_endpoints(grid: GridMap) -> GridMap:
    """The grid with its start and end tiles turned to floor."""
    floor = {"s": "f", "e": "f"}
    return GridMap(grid.id, grid.width, grid.height,
                   tuple(tuple(floor.get(t, t) for t in row) for row in grid.tiles))


class TestWithEndpointsCopy:
    """``with_endpoints`` builds its copy without ``GridMap.__init__``; the
    copy must be the map that constructor validates from the copy's tiles."""

    @staticmethod
    def assert_validated(copy_, source, start, end):
        reference = GridMap(source.id, source.width, source.height, copy_.tiles)
        assert copy_ == reference
        assert type(copy_) is GridMap
        assert (copy_.start, copy_.end) == (reference.start, reference.end) == (start, end)
        assert type(copy_.start) is Coord and type(copy_.end) is Coord
        assert all(type(row) is tuple for row in copy_.tiles)
        assert copy_.layout is source.layout

    def test_copies_equal_validated_maps(self):
        sources = [fixture_map(name) for name in map_fixture_names()]
        sources += [generate_maze(15, 11, seed) for seed in range(3)]
        sources += [generate_lake(12, 9, seed) for seed in range(3)]
        sources += [without_endpoints(grid) for grid in sources[::2]] + [zero_map()]
        rng = random.Random(0)
        copies = 0
        for source in sources:
            cells = source.passable_cells()
            for _ in range(20):
                start, end = rng.sample(cells, 2)
                copy_ = with_endpoints(source, start, end)
                self.assert_validated(copy_, source, start, end)
                # A copy of the copy, reusing one of its endpoints half the time.
                start2, end2 = rng.sample(cells, 2)
                if rng.random() < 0.5:
                    start2, end2 = (end, start2) if start2 != end else (end, start)
                self.assert_validated(with_endpoints(copy_, start2, end2), source, start2, end2)
                copies += 2
        assert copies == 40 * len(sources) == 840

    def test_rejections_are_unchanged(self):
        grid = fixture_map("maze_a")
        wall = next(c for c in grid.cells() if not grid.passable(c))
        cell = grid.passable_cells()[0]
        with pytest.raises(MapError, match="start and end must be distinct"):
            with_endpoints(grid, cell, cell)
        with pytest.raises(MapError, match="cannot place 's' on unpassable cell"):
            with_endpoints(grid, wall, cell)
        with pytest.raises(MapError, match="cannot place 'e' on unpassable cell"):
            with_endpoints(grid, cell, Coord(grid.width, 0))


def filled_lake():
    """A fresh lake fixture whose ``Layout`` holds every passable cell's
    label, ``Coord``, floor state and step list."""
    lake = fixture_map("lake_01")
    for c in lake.passable_cells():
        lake.layout.labels[c.y * lake.width + c.x] = observe(lake, c)
        lake.layout.coords[c.y * lake.width + c.x] = c
    instantiate_actions(lake)
    return lake


class TestLabelCache:
    """The ``Layout`` holding the label cache and the planner's tables:
    endpoint copies share their source's, and it is not a field."""

    def test_endpoint_copies_and_their_copies_share_the_cache(self):
        lake = fixture_map("lake_01")
        a, b, c = sorted(lake.passable_cells())[:3]
        copy_ = with_endpoints(lake, a, b)
        assert copy_.layout is lake.layout
        assert with_endpoints(copy_, b, c).layout is lake.layout

    def test_maps_built_any_other_way_have_a_fresh_cache(self):
        lake = filled_lake()
        rows = serialize_map(lake).splitlines()
        others = [
            parse_map(serialize_map(lake), lake.id),
            GridMap.from_rows(lake.id, rows),
            GridMap(lake.id, lake.width, lake.height, lake.tiles),
            fixture_map("lake_01"),
            generate_maze(21, 21, seed=0),
            generate_lake(20, 20, seed=0),
            pickle.loads(pickle.dumps(lake)),
            copy.copy(lake),
            copy.deepcopy(lake),
        ]
        filled = [getattr(lake.layout, name) for name in Layout.__slots__]
        assert all(map(any, filled))
        for other in others:
            empty = [None] * (other.width * other.height)
            assert other.layout is not lake.layout
            for name, table in zip(Layout.__slots__, filled):
                assert getattr(other.layout, name) is not table
                assert getattr(other.layout, name) == empty

    def test_equality_hash_repr_and_pickling_ignore_the_cache(self):
        lake, twin = filled_lake(), fixture_map("lake_01")
        assert all(getattr(lake.layout, name) != getattr(twin.layout, name)
                   for name in Layout.__slots__)
        assert lake == twin and hash(lake) == hash(twin) and repr(lake) == repr(twin)
        assert "layout" not in repr(lake)
        assert pickle.loads(pickle.dumps(lake)) == lake
        assert lake.__reduce__() == twin.__reduce__()
        moved = with_endpoints(lake, lake.end, lake.start)
        assert moved != lake and moved.layout is lake.layout

    def test_cache_is_not_assignable(self):
        lake = fixture_map("lake_01")
        with pytest.raises(AttributeError):
            lake.layout = Layout(lake.width * lake.height)


class TestMazeGenerator:
    def test_perfect_maze_spanning_tree(self):
        maze = generate_maze(7, 7, seed=1)
        cells = maze.passable_cells()
        edges = adjacency_edges(maze)
        assert len(edges) == len(cells) - 1
        assert connected_component(maze, cells[0]) == set(cells)

    def test_determinism(self):
        assert serialize_map(generate_maze(7, 7, 1)) == serialize_map(generate_maze(7, 7, 1))

    def test_endpoints_placed(self):
        maze = generate_maze(9, 7, seed=4)
        start, end = maze.require_endpoints()
        assert start != end
        assert maze.passable(start) and maze.passable(end)

    @pytest.mark.parametrize("width,height", [(6, 7), (7, 6), (3, 7), (7, 3)])
    def test_bad_dimensions(self, width, height):
        with pytest.raises(MapError):
            generate_maze(width, height, seed=0)


class TestLakeGenerator:
    def test_connected_open_region(self):
        lake = generate_lake(20, 20, seed=3)
        cells = lake.passable_cells()
        assert len(cells) >= (20 * 20) // 2
        assert connected_component(lake, cells[0]) == set(cells)
        start, end = lake.require_endpoints()
        assert start != end

    def test_determinism(self):
        assert serialize_map(generate_lake(20, 20, 5)) == serialize_map(generate_lake(20, 20, 5))

    def test_has_interior_islands(self):
        lake = generate_lake(20, 20, seed=3)
        interior_walls = [
            c for c in lake.cells()
            if not lake.passable(c) and 0 < c.x < 19 and 0 < c.y < 19
        ]
        assert interior_walls

    def test_too_small(self):
        with pytest.raises(MapError):
            generate_lake(4, 4, seed=0)

    def test_fixtures_valid(self):
        assert len(lake_fixture_names()) >= 5
        for name in lake_fixture_names():
            lake = fixture_map(name)
            assert (lake.width, lake.height) == (20, 20)
            start, end = lake.require_endpoints()
            component = connected_component(lake, start)
            assert end in component
            assert component == set(lake.passable_cells())


class TestGeneratorDigests:
    """The generators' output, pinned as one sha256 over ``serialize_map``
    of every (side, seed) in a grid: a rewrite must stay byte-identical."""

    @staticmethod
    def digest(generate, sides):
        h = hashlib.sha256()
        for side in sides:
            for seed in range(10):
                h.update(serialize_map(generate(side, side, seed)).encode())
        return h.hexdigest()

    def test_mazes_of_odd_sides_5_to_25(self):
        assert self.digest(generate_maze, range(5, 26, 2)) == (
            "18f50ea6923bf0a346c9c086a734046a13a850ebd89289e6f87dec2b91b57417")

    def test_lakes_of_sides_5_to_25(self):
        assert self.digest(generate_lake, range(5, 26)) == (
            "4e00d45723a503189fece00718b012a06a9eeed7a21b491bb63c4f2115492b14")

    def test_non_square_mazes_and_lakes(self):
        """Every ordered pair of distinct sides, seeds 0-4, plus the two thin
        lakes that fail: a width/height swap in a bounds test changes this
        digest.  A lake that raises adds its ``MapError`` text.  The value
        was computed at commit 4ae0e99, before the generators were rewritten
        on plain (x, y) ints."""
        sides = {generate_maze: (5, 9, 15, 21), generate_lake: (5, 8, 13, 20)}
        cases = [(generate, width, height, seed) for generate, picks in sides.items()
                 for width in picks for height in picks if width != height for seed in range(5)]
        cases += [(generate_lake, 7, 5, 430051420), (generate_lake, 25, 5, 4198417077)]
        h = hashlib.sha256()
        for generate, width, height, seed in cases:
            try:
                h.update(serialize_map(generate(width, height, seed)).encode())
            except MapError as e:
                h.update(str(e).encode())
        assert h.hexdigest() == (
            "a37b8c657dea0d11e6a72746ff989ae5c23235e523147271df0824608e447287")


class TestRender:
    def test_no_trace(self):
        grid = parse_map("sf\nfe", "tiny")
        assert render_map(grid) == "S.\n.E"

    def test_zero_map_two_lines(self):
        assert render_map(zero_map()) == "..\n.."

    def test_empty_trace_same_as_none(self):
        grid = parse_map("sf\nfe", "tiny")
        assert render_map(grid, []) == render_map(grid)

    def test_arrows_in_visit_order(self):
        grid = parse_map("sf\nfe", "tiny")
        out = render_map(grid, [Coord(0, 1), Coord(1, 1), Coord(1, 0)])
        assert out == ">v\n.E"

    def test_later_visit_overwrites(self):
        grid = parse_map("sff\nffe", "tiny")
        trace = [Coord(0, 1), Coord(1, 1), Coord(0, 1), Coord(0, 0)]
        out = render_map(grid, trace)
        assert out.splitlines()[0][0] == "v"

    def test_out_of_bounds_trace(self):
        grid = parse_map("sf\nfe", "tiny")
        with pytest.raises(MapError, match="out of bounds"):
            render_map(grid, [Coord(5, 5)])

    def test_non_contiguous_trace(self):
        grid = parse_map("sff\nffe", "tiny")
        with pytest.raises(MapError, match="jumps"):
            render_map(grid, [Coord(0, 0), Coord(2, 1)])
