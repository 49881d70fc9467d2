"""Command-line entry point: map generation, learning, single runs, and the
benchmark reproduction."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .executors import SOLVED, ExecutorError
from .fixtures import fixture_map, map_fixture_names
from .fsc import FSC
from .grid import GridMap, MapError, generate_lake, generate_maze, parse_map, render_map, serialize_map
from .mil import Hypothesis, LearningError
from .slam import SlamFault, render_slam
from .solver import PlanningError
from .workbench import (
    AGENTS,
    REPORT_HEADER,
    SOLVER,
    ExperimentSpec,
    learn_controller,
    learn_solver,
    run_experiment,
    run_single,
)


def _load_map(spec: str) -> GridMap:
    path = Path(spec)
    if path.exists():
        return parse_map(path.read_text(), path.stem)
    if spec in map_fixture_names():
        return fixture_map(spec)
    raise MapError(f"no such map file or fixture: {spec!r}")


def _write(args, text: str, what: str) -> int:
    """Write a command's text to ``--out`` and say so, or else to stdout."""
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {what} to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_gen(args) -> int:
    grid = (generate_maze if args.kind == "maze" else generate_lake)(args.width, args.height, args.seed)
    return _write(args, serialize_map(grid), f"{args.kind} map {grid.width}x{grid.height}")


def _cmd_learn_solver(args) -> int:
    hypothesis = learn_solver()
    return _write(args, hypothesis.to_text(), f"{len(hypothesis)}-clause solver")


def _cmd_learn_fsc(args) -> int:
    controller = learn_controller(Hypothesis.from_text(Path(args.solver).read_text()))
    return _write(args, controller.to_text(), f"{len(controller.tuples)}-tuple controller")


def _cmd_run(args) -> int:
    grid = _load_map(args.map)
    solver = controller = None
    if args.agent == SOLVER:
        solver = Hypothesis.from_text(Path(args.brain).read_text())
    else:
        controller = FSC.from_text(Path(args.brain).read_text())
    run = run_single(
        args.agent, grid, solver=solver, controller=controller, step_budget=args.budget
    )
    print(f"agent:   {args.agent}")
    print(f"map:     {grid.id} ({grid.width}x{grid.height})")
    print(f"outcome: {run.outcome}")
    print(f"steps:   {run.steps}")
    if args.render:
        start, _ = grid.require_endpoints()
        positions = [start]
        for label in run.labels:
            positions.append(positions[-1].shifted(label))
        trace = positions if run.outcome == SOLVED else [start]
        print(render_map(grid, trace))
        if run.result is not None and run.result.slam_map is not None:
            print("mapped while exploring:")
            print(render_slam(run.result.slam_map))
    return 0


def _cmd_experiment(args) -> int:
    if args.env == "maze":
        spec = ExperimentSpec.desk_maze(args.agent, seed=args.seed, full=args.full)
    else:
        spec = ExperimentSpec.desk_lake(args.agent, seed=args.seed, full=args.full)
    if args.budget is not None:
        spec = spec._replace(step_budget=args.budget)
    spec.check()  # a rejected spec leaves no CSV file behind
    if args.csv:
        open(args.csv, "a").close()  # an unwritable path fails here, not after the run
    report = run_experiment(spec)
    print(REPORT_HEADER)
    print(report.table_row())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"per-instance records written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridnav",
        description="grid navigation workbench: learned solvers, controllers, executors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", help="generate a map and write it as text",
        description="Generate a map and write it as text.  A lake on a thin map (a side "
                    "near 5) may fail for some seeds, with an error and exit status 2.")
    p.add_argument("kind", choices=("maze", "lake"))
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output map file (defaults to stdout)")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("learn-solver", help="learn the navigation program")
    p.add_argument("--out", help="output hypothesis file (defaults to stdout)")
    p.set_defaults(fn=_cmd_learn_solver)

    p = sub.add_parser("learn-fsc", help="learn a controller from a solver file")
    p.add_argument("solver", help="hypothesis file written by learn-solver")
    p.add_argument("--out", help="output controller file (defaults to stdout)")
    p.set_defaults(fn=_cmd_learn_fsc)

    p = sub.add_parser("run", help="run one agent on one map")
    p.add_argument("agent", choices=AGENTS)
    p.add_argument("map", help="map file path or fixture name (e.g. maze_a)")
    p.add_argument("brain", help="solver file for the solver agent, controller file otherwise")
    p.add_argument("--budget", type=int, default=None,
                   help="step budget of a controller agent (default 10x cell count)")
    p.add_argument("--render", action="store_true", help="render the walked path")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("experiment", help="run a seeded benchmark row")
    p.add_argument("--agent", choices=AGENTS, required=True)
    p.add_argument("--env", choices=("maze", "lake"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="step budget of a controller agent (default 10x cell count)")
    p.add_argument("--full", action="store_true", help="full-scale instance counts (100 mazes at 101x101; 50 rolls per lake)")
    p.add_argument("--csv", help="write per-instance records to this file")
    p.set_defaults(fn=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MapError, LearningError, PlanningError, ExecutorError, SlamFault, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
