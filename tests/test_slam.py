from __future__ import annotations

import random
import re
from itertools import product

import pytest

from gridnav import (
    BasicEnvironment,
    Coord,
    ExecutorConfig,
    REVERSING,
    SlamFault,
    SlamMap,
    execute,
    render_slam,
    slam_move,
    slam_permits,
    slam_update,
)
from gridnav.grid import DELTA, DIRECTIONS
from gridnav.slam import PASSABLE, UNOBSERVED, UNPASSABLE, VISITED

ALL_LABELS = tuple("".join(chars) for chars in product("pu", repeat=4))
FAULT_KINDS = (
    "was visited but now observes unpassable",
    "observed '",
    "was unpassable but is being visited",
)


def reference_record(cells, offset, value):
    """The per-cell evidence rule, one cell at a time: a visited mark never
    downgrades, and a contradiction raises SlamFault."""
    current = cells.get(offset, UNOBSERVED)
    if current == VISITED:
        if value == UNPASSABLE:
            raise SlamFault(f"cell {offset} was visited but now observes unpassable")
        return
    if current != UNOBSERVED and current != value and value != VISITED:
        raise SlamFault(f"cell {offset} observed {value!r} after {current!r}")
    if value == VISITED and current == UNPASSABLE:
        raise SlamFault(f"cell {offset} was unpassable but is being visited")
    cells[offset] = value


def reference_update(cells, pose, obs):
    """Reference for slam_update: the pose cell, then each neighbor in
    DIRECTIONS order, through reference_record."""
    reference_record(cells, pose, VISITED)
    x, y = pose
    for ch, d in zip(obs, DIRECTIONS):
        dx, dy = DELTA[d]
        reference_record(cells, (x + dx, y + dy), PASSABLE if ch == "p" else UNPASSABLE)


def fault_message(update, *args):
    try:
        update(*args)
    except SlamFault as exc:
        return str(exc)
    return None


class TestUpdate:
    def test_records_visit_and_neighbors(self):
        slam = slam_update(SlamMap(), "ppuu")
        assert slam.cell((0, 0)) == VISITED
        assert slam.cell((0, 1)) == PASSABLE
        assert slam.cell((1, 0)) == PASSABLE
        assert slam.cell((0, -1)) == UNPASSABLE
        assert slam.cell((-1, 0)) == UNPASSABLE

    def test_idempotent(self):
        slam = slam_update(SlamMap(), "ppuu")
        snapshot = dict(slam.cells)
        slam_update(slam, "ppuu")
        assert slam.cells == snapshot

    def test_visited_never_downgrades(self):
        slam = slam_update(SlamMap(), "puuu")
        slam_move(slam, "up")
        slam_update(slam, "uupu")  # origin re-observed as the passable down neighbor
        slam_move(slam, "down")
        assert slam.cell((0, 0)) == VISITED

    def test_contradicting_passability_faults(self):
        slam = slam_update(SlamMap(), "ppuu")
        with pytest.raises(SlamFault, match=r"observed 'unpassable' after 'passable'"):
            slam_update(slam, "upuu")

    def test_unpassable_then_passable_faults(self):
        slam = slam_update(SlamMap(), "ppuu")
        with pytest.raises(SlamFault, match=r"observed 'passable' after 'unpassable'"):
            slam_update(slam, "pppu")

    def test_visiting_an_unpassable_cell_faults(self):
        slam = slam_update(SlamMap(), "puuu")
        slam_move(slam, "right")
        with pytest.raises(SlamFault, match=r"cell \(1, 0\) was unpassable but is being visited"):
            slam_update(slam, "uuup")

    @pytest.mark.parametrize("label", ["pxq", "ppu", "ppuuu", "", "PPUU", "p u "])
    def test_rejects_labels_outside_the_sixteen(self, label):
        slam = SlamMap()
        with pytest.raises(SlamFault, match=re.escape(repr(label))):
            slam_update(slam, label)
        assert slam.cells == {}

    def test_all_unpassable_label_is_accepted(self):
        slam = slam_update(SlamMap(), "uuuu")
        assert sorted(slam.cells.values()) == [UNPASSABLE] * 4 + [VISITED]

    def test_matches_reference_on_random_walks(self):
        """Seeded walks through hidden random worlds, with some labels and
        moves that contradict the world: every step must leave the same
        cells as the reference, and a fault must come at the same step with
        the same message."""
        faults = set()
        for seed in range(300):
            rng = random.Random(seed)
            world = {}

            def passable(offset):
                if offset not in world:
                    world[offset] = rng.random() < 0.6
                return world[offset]

            slam, cells = SlamMap(), {}
            for _ in range(40):
                if rng.random() < 0.05:
                    obs = rng.choice(ALL_LABELS)
                else:
                    x, y = slam.pose
                    obs = "".join("p" if passable((x + DELTA[d][0], y + DELTA[d][1])) else "u"
                                  for d in DIRECTIONS)
                expected = fault_message(reference_update, cells, slam.pose, obs)
                assert fault_message(slam_update, slam, obs) == expected
                assert slam.cells == cells
                if expected is not None:
                    faults.update(kind for kind in FAULT_KINDS if kind in expected)
                    break
                moves = [d for ch, d in zip(obs, DIRECTIONS) if ch == "p"]
                if not moves or rng.random() < 0.05:
                    moves = list(DIRECTIONS)
                slam_move(slam, rng.choice(moves))
        assert faults == set(FAULT_KINDS)

    def test_visited_neighbor_marked_unpassable_faults(self):
        slam = slam_update(SlamMap(), "puuu")
        slam_move(slam, "up")
        # the origin is visited, so an observation calling it unpassable lies
        with pytest.raises(SlamFault):
            slam_update(slam, "uuuu")


class TestMove:
    def test_single_step(self):
        slam = slam_move(SlamMap(), "up")
        assert slam.pose == (0, 1)

    def test_inverse_actions_cancel(self):
        slam = SlamMap()
        slam_move(slam, "up")
        slam_move(slam, "down")
        assert slam.pose == (0, 0)

    def test_vector_sum(self):
        slam = SlamMap()
        for action in ("right", "right", "up"):
            slam_move(slam, action)
        assert slam.pose == (2, 1)


class TestPermits:
    def test_unknown_destination_forward(self):
        assert slam_permits(SlamMap(), "up")

    def test_visited_destination_forward_denied(self):
        slam = slam_update(SlamMap(), "ppuu")
        slam_move(slam, "up")
        assert not slam_permits(slam, "down")


class TestRender:
    def test_unknown_glyph_and_agent(self):
        slam = slam_update(SlamMap(), "ppuu")
        out = render_slam(slam)
        assert "@" in out
        assert "?" in out
        assert "#" in out

    def test_matches_ground_truth(self, learned_controller, maze_a):
        env = BasicEnvironment(maze_a)
        result = execute(learned_controller, env, ExecutorConfig(REVERSING, slam=True))
        assert result.slam_map is not None
        start = maze_a.start
        for (dx, dy), value in result.slam_map.cells.items():
            world = Coord(start.x + dx, start.y + dy)
            if value in (PASSABLE, VISITED):
                assert maze_a.passable(world)
            elif value == UNPASSABLE:
                assert not maze_a.passable(world)
        # some tiles were never observable
        recorded = {(start.x + dx, start.y + dy) for dx, dy in result.slam_map.cells}
        assert any((c.x, c.y) not in recorded for c in maze_a.cells())
