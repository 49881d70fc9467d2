from __future__ import annotations

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
from gridnav.slam import PASSABLE, UNPASSABLE, VISITED


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
        with pytest.raises(SlamFault):
            slam_update(slam, "upuu")

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
