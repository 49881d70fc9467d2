"""Interleaved timing of two gridnav trees in one process.

Each side is a directory holding ``src/gridnav`` or a git revision of this
repository (extracted to a temporary directory).  Both packages are loaded
in this process under distinct module names, the change as ``gridnav`` and
the parent as ``gridnav_parent``, and rounds alternate between them, the
side that goes first alternating too.  A round times, on each side:

- the four lake agents (solver, fsc-bt, fsc-bt-slam, fsc-re-slam) on
  seeded start/end rolls of the five lake fixtures, the instances built
  once per side with ``with_endpoints``, as ``experiment_instances`` and
  the benchmark build them;
- the learn pipeline, ``learn_controller(learn_solver(), matrices)``,
  ``LEARN_REPEATS`` times, since one run is under a millisecond;
- a solve of each of a few 101x101 mazes, each on a newly built
  ``GridMap``, so that no table of an earlier solve is warm.

Each run's time is its best over the rounds.  Every output is compared
between the two sides: run outcomes, steps, labels and paths, plan actions
and the learned programs.  It prints, per agent, the sum of best times on
each side and the speed ratio parent/change (above 1 when the change is
faster), and exits 1 if any output differs and 2 if a side is neither a
tree nor a git revision.

pytest does not collect this file.  Run it from the repository root:

    python tests/interleave.py --parent HEAD --change .
    python tests/interleave.py --parent HEAD~1 --change . --rounds 1 --rolls 24 --mazes 2

A tree whose ``fixtures`` module reads the files of the package named
``gridnav`` finds them in the change side's package when loaded as the
parent: the maps are data, so this only matters if they differ.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAKE_AGENTS = ("solver", "fsc-bt", "fsc-bt-slam", "fsc-re-slam")
MAZE_SIDE = 101
# A learn run takes under a millisecond, where one host hiccup moves its
# best time; a lake agent's row sums the best times of many instances.
LEARN_REPEATS = 8


def tree_of(where: str, scratch: Path) -> Path:
    """The directory holding ``src/gridnav`` for a tree or a revision."""
    path = Path(where)
    if (path / "src" / "gridnav" / "__init__.py").is_file():
        return path.resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", where, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(f"{where!r} is neither a tree nor a git revision")
    target = scratch / where.replace("/", "_")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)
    return target


def load(tree: Path, name: str):
    """Import the tree's package under the module name ``name``."""
    init = tree / "src" / "gridnav" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's package, its learned programs and its inputs."""

    def __init__(self, gridnav, rolls, maze_seeds):
        self.gridnav = gridnav
        self.solver = gridnav.learn_solver()
        self.controller = gridnav.learn_controller(self.solver)
        fixtures = {name: gridnav.fixture_map(name) for name in gridnav.lake_fixture_names()}
        self.lakes = [gridnav.with_endpoints(fixtures[name], gridnav.Coord(*start),
                                             gridnav.Coord(*end))
                      for name, start, end in rolls]
        self.matrices = gridnav.observation_matrices()
        self.mazes = [gridnav.generate_maze(MAZE_SIDE, MAZE_SIDE, seed) for seed in maze_seeds]
        self.best: dict[tuple, float] = {}
        self.outputs: dict[tuple, object] = {}

    def record(self, key: tuple, seconds: float, output) -> None:
        if key not in self.best or seconds < self.best[key]:
            self.best[key] = seconds
        self.outputs[key] = output

    def round(self) -> None:
        gridnav, clock = self.gridnav, time.perf_counter
        run_single = gridnav.run_single
        gc.collect()
        for agent in LAKE_AGENTS:
            for k, grid in enumerate(self.lakes):
                t0 = clock()
                run = run_single(agent, grid, solver=self.solver, controller=self.controller)
                seconds = clock() - t0
                detail = run.plan.actions if run.plan is not None else (
                    run.result.path if run.result is not None else ())
                self.record((agent, k), seconds, (run.outcome, run.steps, run.labels, detail))
        for _ in range(LEARN_REPEATS):
            t0 = clock()
            solver = gridnav.learn_solver()
            controller = gridnav.learn_controller(solver, self.matrices)
            self.record(("learn", 0), clock() - t0, (solver.to_text(), controller.to_text()))
        for k, maze in enumerate(self.mazes):
            fresh = gridnav.GridMap(maze.id, maze.width, maze.height, maze.tiles)
            t0 = clock()
            plan = gridnav.solve(fresh, self.solver)
            self.record((f"maze-{MAZE_SIDE}", k), clock() - t0, plan.actions)


def lake_rolls(gridnav, rolls: int, seed: int) -> list:
    """``rolls`` seeded start/end pairs, cells as (x, y), per lake fixture."""
    rng = random.Random(seed)
    chosen = []
    for name in gridnav.lake_fixture_names():
        cells = sorted((c.x, c.y) for c in gridnav.fixture_map(name).passable_cells())
        chosen += [(name, *rng.sample(cells, 2)) for _ in range(rolls)]
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="tree or git revision (default HEAD)")
    parser.add_argument("--change", default=".", help="tree or git revision (default .)")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--rolls", type=int, default=24, help="start/end rolls per lake fixture")
    parser.add_argument("--mazes", type=int, default=4, help="fresh 101x101 maze solves")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if "gridnav" in sys.modules:
        parser.error("gridnav is already imported")
    with tempfile.TemporaryDirectory() as scratch:
        try:
            change_tree = tree_of(args.change, Path(scratch))
            parent_tree = tree_of(args.parent, Path(scratch))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        change = load(change_tree, "gridnav")
        parent = load(parent_tree, "gridnav_parent")
        rolls = lake_rolls(change, args.rolls, args.seed)
        maze_seeds = range(args.seed, args.seed + args.mazes)
        sides = (Side(parent, rolls, maze_seeds), Side(change, rolls, maze_seeds))
        print(f"parent {parent_tree}\nchange {change_tree}\n"
              f"{len(rolls)} lake rolls, {args.mazes} mazes, {args.rounds} rounds")
        for r in range(args.rounds):
            for side in sides if r % 2 == 0 else sides[::-1]:
                side.round()
    parent_side, change_side = sides
    differing = [key for key in parent_side.outputs
                 if parent_side.outputs[key] != change_side.outputs[key]]
    groups = [*LAKE_AGENTS, "learn", f"maze-{MAZE_SIDE}"]
    print(f"{'agent':<14}{'parent ms':>12}{'change ms':>12}{'parent/change':>15}")

    def row(name: str, keys) -> None:
        before = sum(parent_side.best[key] for key in keys) * 1e3
        after = sum(change_side.best[key] for key in keys) * 1e3
        print(f"{name:<14}{before:>12.2f}{after:>12.2f}{before / after if after else 0:>15.3f}")

    for group in groups:
        keys = [key for key in parent_side.best if key[0] == group]
        if keys:
            row(group, keys)
    row("lake total", [key for key in parent_side.best if key[0] in LAKE_AGENTS])
    for key in differing[:10]:
        print(f"DIFFERS {key}")
    print(f"{len(differing)} of {len(parent_side.outputs)} outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
