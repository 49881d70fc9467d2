"""gridnav's value classes are written out by hand: no module defines a
dataclass, so importing the package generates no code.  Each class keeps
the fields, constructor defaults, equality, hash, repr and (where frozen)
immutability of the dataclass it replaces, checked against a dataclass copy
of its old definition."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import subprocess
import sys

import pytest

import gridnav
from gridnav import (
    BACKTRACKING,
    FSC,
    REVERSING,
    UNKNOWN,
    Coord,
    DefiniteClause,
    ExecutionResult,
    ExecutorConfig,
    ExperimentReport,
    ExperimentSpec,
    GridMap,
    GroundAction,
    Hypothesis,
    InstanceRecord,
    Plan,
    PlanningProblem,
    RunOutcome,
    SlamMap,
    StateTerm,
    TraceStep,
    execute,
    BasicEnvironment,
    generalized_example,
    instantiate_actions,
    observation_matrices,
    problem_from_map,
    run_experiment,
    run_single,
    solve,
    with_endpoints,
    zero_map,
)
from gridnav.mil import Metarule


def gridnav_modules():
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(gridnav.__path__, "gridnav.")]


class TestNoDataclasses:
    def test_no_module_defines_a_dataclass(self):
        modules = gridnav_modules()
        classes = [value for module in modules for value in vars(module).values()
                   if isinstance(value, type) and value.__module__ == module.__name__]
        assert {"gridnav.grid", "gridnav.workbench", "gridnav.cli"} <= {m.__name__ for m in modules}
        assert GridMap in classes and ExperimentReport in classes
        assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []

    def test_import_does_not_load_dataclasses(self):
        code = "import sys, gridnav, gridnav.cli; print('dataclasses' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout == "False\n"


# The replaced definitions: their fields, plus what shaped their repr and
# GridMap's start/end.  The four mutable ones are plain dataclasses.
@dataclasses.dataclass(frozen=True)
class OldGridMap:
    id: str
    width: int
    height: int
    tiles: tuple
    start: Coord | None = None
    end: Coord | None = None

    def __post_init__(self) -> None:
        cells = [(Coord(x, y), t) for y, row in enumerate(self.tiles) for x, t in enumerate(row)]
        object.__setattr__(self, "start", next((c for c, t in cells if t == "s"), None))
        object.__setattr__(self, "end", next((c for c, t in cells if t == "e"), None))


@dataclasses.dataclass(frozen=True)
class OldStateTerm:
    map_id: str
    pos: object
    tile: object

    __repr__ = StateTerm.__repr__


@dataclasses.dataclass(frozen=True)
class OldGroundAction:
    name: str
    input: StateTerm
    output: StateTerm


@dataclasses.dataclass(frozen=True)
class OldPlanningProblem:
    map_id: str
    initial: StateTerm
    goal: StateTerm


@dataclasses.dataclass(frozen=True)
class OldDefiniteClause:
    metarule: Metarule
    target: str
    body_symbol: object


@dataclasses.dataclass(frozen=True)
class OldHypothesis:
    clauses: frozenset
    target: str


@dataclasses.dataclass(frozen=True)
class OldFSC:
    tuples: frozenset


@dataclasses.dataclass(frozen=True)
class OldPlan:
    actions: tuple
    labels: tuple
    start: StateTerm
    goal: StateTerm


@dataclasses.dataclass(frozen=True)
class OldExecutorConfig:
    kind: str = BACKTRACKING
    slam: bool = False
    step_budget: int | None = None


@dataclasses.dataclass(frozen=True)
class OldTraceStep:
    q: str
    o: str
    a: str
    q_next: str
    reversal: bool = False


@dataclasses.dataclass(frozen=True)
class OldExperimentSpec:
    agent: str
    environment: str
    width: int = 50
    height: int = 50
    instances: int = 20
    seed: int = 0
    step_budget: int | None = None


@dataclasses.dataclass(frozen=True)
class OldInstanceRecord:
    instance: str
    agent: str
    outcome: str
    steps: int


@dataclasses.dataclass
class OldSlamMap:
    cells: dict = dataclasses.field(default_factory=dict)
    pose: tuple = (0, 0)


@dataclasses.dataclass
class OldExecutionResult:
    outcome: str
    steps: int
    trace: tuple
    path: tuple = ()
    slam_map: SlamMap | None = None


@dataclasses.dataclass
class OldRunOutcome:
    agent: str
    grid: GridMap
    outcome: str
    steps: int
    labels: tuple
    plan: Plan | None = None
    result: ExecutionResult | None = None


@dataclasses.dataclass
class OldExperimentReport:
    spec: ExperimentSpec
    records: tuple


OLD = {
    GridMap: OldGridMap, StateTerm: OldStateTerm, GroundAction: OldGroundAction,
    PlanningProblem: OldPlanningProblem, DefiniteClause: OldDefiniteClause,
    Hypothesis: OldHypothesis, FSC: OldFSC, Plan: OldPlan,
    ExecutorConfig: OldExecutorConfig, TraceStep: OldTraceStep,
    ExperimentSpec: OldExperimentSpec, InstanceRecord: OldInstanceRecord,
    SlamMap: OldSlamMap, ExecutionResult: OldExecutionResult, RunOutcome: OldRunOutcome,
    ExperimentReport: OldExperimentReport,
}
NAMED_TUPLES = (StateTerm, GroundAction, PlanningProblem, DefiniteClause, TraceStep,
                ExperimentSpec, InstanceRecord)


@pytest.fixture(scope="module")
def samples(solver_hypothesis, learned_controller, controller_a, maze_a, maze_b):
    """A few instances of every replaced class, read off pipeline runs; some
    pairs are equal without being the same object.  The runs fill
    ``maze_a``'s ``Layout``, shared with its endpoint copy, so the GridMap
    pins compare maps with a filled and with an empty layout."""
    solver = solver_hypothesis
    runs = [execute(learned_controller, BasicEnvironment(maze_a), ExecutorConfig(kind, slam))
            for kind in (BACKTRACKING, REVERSING) for slam in (False, True)]
    actions = instantiate_actions(maze_a)[:12]
    spec = ExperimentSpec("fsc-bt", "maze", 9, 9, 3, seed=2)
    reports = [run_experiment(spec, controller=learned_controller),
               run_experiment(spec, controller=learned_controller),
               run_experiment(spec._replace(seed=3), controller=learned_controller)]
    clauses = solver.ordered()
    return {
        GridMap: [maze_a, maze_b, zero_map(), *observation_matrices()[:3],
                  GridMap(maze_a.id, maze_a.width, maze_a.height, maze_a.tiles),
                  with_endpoints(maze_a, maze_a.end, maze_a.start)],
        StateTerm: [a.input for a in actions] + [a.output for a in actions]
        + [StateTerm("m", UNKNOWN, UNKNOWN), StateTerm("m", UNKNOWN, UNKNOWN)],
        GroundAction: list(actions) + list(instantiate_actions(maze_a)[:3]),
        PlanningProblem: [problem_from_map(maze_a), problem_from_map(maze_a),
                          problem_from_map(maze_b), generalized_example("zero")],
        DefiniteClause: list(clauses) + [DefiniteClause(*clauses[0])],
        Hypothesis: [solver, Hypothesis.from_text(solver.to_text()),
                     Hypothesis.of(clauses[:3], "s"), Hypothesis(solver.clauses, "t")],
        FSC: [learned_controller, FSC.from_text(learned_controller.to_text()), controller_a],
        Plan: [solve(maze_a, solver), solve(maze_a, solver), solve(maze_b, solver)],
        ExecutorConfig: [ExecutorConfig(), ExecutorConfig(BACKTRACKING),
                         ExecutorConfig(REVERSING, True, 5), ExecutorConfig(step_budget=0)],
        TraceStep: [step for run in runs for step in run.trace[:6]],
        ExperimentSpec: [spec, ExperimentSpec("fsc-bt", "maze", 9, 9, 3, 2),
                         ExperimentSpec.desk_maze("solver"), ExperimentSpec.desk_lake("fsc-re")],
        InstanceRecord: [r for report in reports for r in report.records],
        SlamMap: [runs[1].slam_map, runs[3].slam_map, SlamMap(), SlamMap()],
        ExecutionResult: runs + [execute(learned_controller, BasicEnvironment(maze_a),
                                         ExecutorConfig())],
        RunOutcome: [run_single("solver", maze_a, solver=solver),
                     run_single("solver", maze_a, solver=solver),
                     run_single("fsc-re", maze_a, controller=learned_controller)],
        ExperimentReport: reports,
    }


def fields_of(old) -> list[str]:
    return [f.name for f in dataclasses.fields(old)]


def as_old(value):
    old = OLD[type(value)]
    return old(*[getattr(value, name) for name in fields_of(old)])


@pytest.mark.parametrize("cls", list(OLD), ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_constructor_fields_and_defaults(self, cls, samples):
        old = OLD[cls]
        assert list(inspect.signature(cls).parameters) == fields_of(old)
        required = [f.name for f in dataclasses.fields(old)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        for value in samples[cls]:
            args = [getattr(value, name) for name in required]
            assert as_old(cls(*args)) == old(*args)

    def test_repr_hash_and_equality(self, cls, samples):
        values = samples[cls]
        values = values + [copy.copy(v) for v in values[:2]]
        for x in values:
            old = as_old(x)
            assert repr(x) == repr(old).replace(type(old).__qualname__, cls.__qualname__, 1)
            if OLD[cls].__dataclass_params__.frozen:
                assert hash(x) == hash(old)
            else:
                with pytest.raises(TypeError):
                    hash(x)
        equal_pairs = 0
        for x, y in itertools.product(values, repeat=2):
            ox, oy = as_old(x), as_old(y)
            assert (x == y, x != y) == (ox == oy, ox != oy)
            equal_pairs += x == y and x is not y
        assert equal_pairs > 0

    def test_frozen_exactly_where_the_dataclass_was(self, cls, samples):
        x = copy.copy(samples[cls][0])
        for name in fields_of(OLD[cls]):
            if OLD[cls].__dataclass_params__.frozen:
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name))
                with pytest.raises(AttributeError):
                    delattr(x, name)
            else:
                setattr(x, name, None)
                assert getattr(x, name) is None

    def test_copy_and_pickle_round_trip(self, cls, samples):
        for x in samples[cls]:
            assert copy.copy(x) == x and type(copy.deepcopy(x)) is cls
            assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("cls", [c for c in OLD if c not in NAMED_TUPLES],
                         ids=lambda c: c.__name__)
def test_records_equal_only_their_own_class(cls, samples):
    """As with the dataclasses: not a subclass instance with the same fields,
    nor the plain tuple of the fields."""
    x = samples[cls][0]
    fields = [getattr(x, name) for name in fields_of(OLD[cls])]
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    assert x != twin and twin != x and not (x == twin)
    assert x != tuple(fields) and tuple(fields) != x


def test_named_tuple_records_also_equal_their_plain_tuples(samples):
    """The one widened equality: a NamedTuple equals the plain tuple of its
    fields and hashes like it (the hashes are the dataclasses' too).  No
    gridnav container mixes these records with plain tuples."""
    for cls in NAMED_TUPLES:
        x = samples[cls][0]
        assert x == tuple(x) and hash(x) == hash(tuple(x))
        assert as_old(x) != tuple(x)
    state = samples[StateTerm][0]
    assert hash(state) == hash((state.map_id, state.pos, state.tile))


def test_lazy_values_are_built_on_first_use(solver_hypothesis, learned_controller):
    hypothesis = Hypothesis.of(solver_hypothesis.clauses, "s")
    assert hypothesis._symbol_sets is None
    assert hypothesis.to_text() == solver_hypothesis.to_text()
    assert hypothesis._symbol_sets is None
    assert hypothesis.symbol_sets is hypothesis._symbol_sets is not None
    controller = FSC(learned_controller.tuples)
    assert controller._pairs is None
    assert controller.to_text() == learned_controller.to_text()
    assert controller._pairs is None
    assert controller.lookup("q0", "pppp") == learned_controller.lookup("q0", "pppp")
    assert controller._pairs is not None
    assert controller == learned_controller and hash(controller) == hash(learned_controller)
