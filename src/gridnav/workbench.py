"""High-level workflows: learn the navigation program and the controller,
run single instances, and reproduce the benchmark tables."""

from __future__ import annotations

import csv
import io
import random
from itertools import starmap
from operator import itemgetter
from typing import Iterator, NamedTuple

from .executors import (
    BACKTRACKING,
    EXHAUSTED,
    REVERSING,
    SOLVED,
    BasicEnvironment,
    ExecutionResult,
    ExecutorConfig,
    execute,
)
from .fsc import FSC
from .fixtures import fixture_map, lake_fixture_names, zero_map
from .grid import GridMap, _check_maze_size, generate_maze, with_endpoints
from .mil import Hypothesis, TupleBackground, controller_examples, hypothesis_to_tuples, learn
from .model import ActionBackground, generalized_example, problem_from_map
from .record import Record
# Not called here; perfbench/selftest.py requires the binding (REQUIRED_BINDINGS).
from .model import instantiate_actions  # noqa: F401
from .solver import (
    Plan,
    UnsolvableError,
    generate_behaviours,
    observation_matrices,
    solve,
)

SOLVER = "solver"
FSC_BT = "fsc-bt"
FSC_RE = "fsc-re"
FSC_BT_SLAM = "fsc-bt-slam"
FSC_RE_SLAM = "fsc-re-slam"
AGENTS = (SOLVER, FSC_BT, FSC_RE, FSC_BT_SLAM, FSC_RE_SLAM)

_SOLVER_BUDGET_ERROR = "step_budget applies to controller agents only"

_EXECUTOR_FOR_AGENT = {
    FSC_BT: (BACKTRACKING, False),
    FSC_RE: (REVERSING, False),
    FSC_BT_SLAM: (BACKTRACKING, True),
    FSC_RE_SLAM: (REVERSING, True),
}


def learn_solver() -> Hypothesis:
    """Learn the navigation program from the built-in 2x2 training map and
    its fully generalized example (only the map identifier is bound)."""
    grid = zero_map()
    background = ActionBackground(grid)
    return learn([generalized_example(grid.id)], background, target="s")


def learn_controller(solver: Hypothesis, matrices=None) -> FSC:
    """Learn a controller from a navigation program.

    Generates the observation matrices, solves each on its plain action
    model and reads behaviours off the plans, learns a clause set over the
    controller tuples those behaviours consume, and projects it onto its
    ground 4-tuples.
    """
    if matrices is None:
        matrices = observation_matrices()
    behaviours = generate_behaviours(matrices, solver)
    program = learn(
        controller_examples(behaviours), TupleBackground(), target="c"
    )
    return hypothesis_to_tuples(program)


class RunOutcome(Record):
    """Uniform single-instance outcome across agents."""

    __slots__ = _fields = ("agent", "grid", "outcome", "steps", "labels", "plan", "result")

    def __init__(self, agent: str, grid: GridMap, outcome: str, steps: int,
                 labels: tuple[str, ...], plan: Plan | None = None,
                 result: ExecutionResult | None = None) -> None:
        self.agent = agent
        self.grid = grid
        self.outcome = outcome
        self.steps = steps
        self.labels = labels
        self.plan = plan
        self.result = result

    @property
    def solved(self) -> bool:
        return self.outcome == SOLVED


def run_single(agent: str, grid: GridMap, *, solver: Hypothesis | None = None,
               controller: FSC | None = None, step_budget: int | None = None) -> RunOutcome:
    """Run one agent on one map instance."""
    if agent == SOLVER:
        if solver is None:
            raise ValueError("solver agent needs a hypothesis")
        if step_budget is not None:
            raise ValueError(_SOLVER_BUDGET_ERROR)
        try:
            plan = solve(grid, solver, problem_from_map(grid))
        except UnsolvableError:
            return RunOutcome(agent, grid, EXHAUSTED, 0, ())
        return RunOutcome(agent, grid, SOLVED, len(plan), plan.labels, plan=plan)
    if agent not in _EXECUTOR_FOR_AGENT:
        raise ValueError(f"unknown agent {agent!r}")
    if controller is None:
        raise ValueError(f"agent {agent!r} needs a controller")
    kind, slam = _EXECUTOR_FOR_AGENT[agent]
    env = BasicEnvironment(grid)
    cfg = ExecutorConfig(kind, slam=slam, step_budget=step_budget)
    result = execute(controller, env, cfg)
    labels = tuple(map(itemgetter(2), result.trace))
    return RunOutcome(agent, grid, result.outcome, result.steps, labels, result=result)


class ExperimentSpec(NamedTuple):
    """One benchmark row: an agent on a seeded set of environment instances.

    The seed fully determines the instance set, so runs of different agents
    with the same (environment, dimensions, instances, seed) see identical
    maps and can be joined per instance.
    """

    agent: str
    environment: str  # "maze" | "lake"
    width: int = 50
    height: int = 50
    instances: int = 20
    seed: int = 0
    step_budget: int | None = None

    @classmethod
    def desk_maze(cls, agent: str, seed: int = 0, full: bool = False) -> "ExperimentSpec":
        if full:
            return cls(agent, "maze", 101, 101, 100, seed)
        return cls(agent, "maze", 51, 51, 20, seed)

    @classmethod
    def desk_lake(cls, agent: str, seed: int = 0, full: bool = False) -> "ExperimentSpec":
        rolls = 50 if full else 10
        fixtures = len(lake_fixture_names())
        return cls(agent, "lake", 20, 20, fixtures * rolls, seed)

    def check(self) -> None:
        """Raise unless the spec names a known agent, at least one instance
        and a step budget its agent accepts."""
        if self.agent not in AGENTS:
            raise ValueError(f"unknown agent {self.agent!r}")
        if self.instances < 1:
            raise ValueError(f"an experiment needs at least one instance, got {self.instances}")
        if self.agent == SOLVER and self.step_budget is not None:
            raise ValueError(_SOLVER_BUDGET_ERROR)
        ExecutorConfig(step_budget=self.step_budget)  # raises ExecutorError on a negative budget


class InstanceRecord(NamedTuple):
    instance: str
    agent: str
    outcome: str
    steps: int


class ExperimentReport(Record):
    __slots__ = _fields = ("spec", "records")

    def __init__(self, spec: ExperimentSpec, records: tuple[InstanceRecord, ...]) -> None:
        self.spec = spec
        self.records = records

    @property
    def solved_fraction(self) -> float:
        return sum(r.outcome == SOLVED for r in self.records) / len(self.records)

    @property
    def mean_steps(self) -> float:
        solved = [r.steps for r in self.records if r.outcome == SOLVED]
        return sum(solved) / len(solved) if solved else float("nan")

    def table_row(self) -> str:
        dims = f"{self.spec.width}x{self.spec.height}"
        return (
            f"{self.spec.agent:<12} {self.spec.environment:<6} {dims:<9} "
            f"{len(self.records):>9} {self.solved_fraction * 100:>7.1f}% {self.mean_steps:>10.2f}"
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["instance", "agent", "outcome", "steps"])
        for r in self.records:
            writer.writerow([r.instance, r.agent, r.outcome, r.steps])
        return out.getvalue()


REPORT_HEADER = (
    f"{'Agent':<12} {'Env':<6} {'Dims':<9} {'Instances':>9} {'Solved':>8} {'Steps':>10}"
)


def experiment_instances(spec: ExperimentSpec) -> Iterator[tuple[str, GridMap]]:
    """The seeded instance set for a spec; identical across agents.  The
    spec is checked at the call, and each instance is built as it is
    iterated.  Lake instances reroll the endpoints of the packaged lake
    fixtures, so a lake spec must name their dimensions."""
    if spec.environment == "maze":
        _check_maze_size(spec.width, spec.height)
        return ((f"maze-{i:03d}", generate_maze(spec.width, spec.height, seed=spec.seed * 100_003 + i))
                for i in range(spec.instances))
    if spec.environment != "lake":
        raise ValueError(f"unknown environment {spec.environment!r}")
    fixtures = [fixture_map(name) for name in lake_fixture_names()]
    for fixture in fixtures:
        if (fixture.width, fixture.height) != (spec.width, spec.height):
            raise ValueError(f"lake instances are the packaged fixtures; "
                             f"{fixture.id} is not {spec.width}x{spec.height}")
    fixtures = [(fixture, sorted(fixture.passable_cells())) for fixture in fixtures]

    def lake(i: int) -> tuple[str, GridMap]:
        fixture, cells = fixtures[i % len(fixtures)]
        start, end = random.Random(spec.seed * 1_000_003 + i).sample(cells, 2)
        return f"{fixture.id}-{i:03d}", with_endpoints(fixture, start, end)

    return map(lake, range(spec.instances))


def run_experiment(spec: ExperimentSpec, *, solver: Hypothesis | None = None,
                   controller: FSC | None = None) -> ExperimentReport:
    """Run the agent over the spec's instance set and aggregate a report row
    plus per-instance records.  Each instance is built just before its run,
    and neither is kept past it.  A spec that ``ExperimentSpec.check`` or
    ``experiment_instances`` rejects raises before anything is learned."""
    spec.check()
    instances = experiment_instances(spec)
    if spec.agent == SOLVER:
        solver = solver if solver is not None else learn_solver()
    elif controller is None:
        controller = learn_controller(solver if solver is not None else learn_solver())

    def record(name: str, grid: GridMap) -> InstanceRecord:
        run = run_single(spec.agent, grid, solver=solver, controller=controller,
                         step_budget=spec.step_budget)
        return InstanceRecord(name, spec.agent, run.outcome, run.steps)

    return ExperimentReport(spec, tuple(starmap(record, instances)))
