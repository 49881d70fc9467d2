"""Grid-navigation workbench.

Learns a recursive navigation program from a four-cell training map, uses it
to train a nondeterministic finite state controller, and runs the controller
in partially observable grids through backtracking, reversing and
map-building executors.
"""

from .executors import (
    BACKTRACKING,
    BUDGET_EXCEEDED,
    EXHAUSTED,
    REVERSING,
    SOLVED,
    BasicEnvironment,
    ExecutionResult,
    ExecutorConfig,
    ExecutorError,
    TraceStep,
    execute,
    run_backtracking,
    run_reversing,
)
from .fixtures import (
    fixture_controller,
    fixture_map,
    lake_fixture_names,
    map_fixture_names,
    zero_map,
)
from .fsc import (
    ACTION_LABELS,
    CONTROLLER_STATES,
    FSC,
    FSCError,
    FSCTuple,
    OBSERVATION_LABELS,
    STATE_FOR_ACTION,
    observe,
    reverse_pair,
)
from .grid import (
    Coord,
    DIRECTIONS,
    GridMap,
    MapError,
    generate_lake,
    generate_maze,
    parse_map,
    render_map,
    serialize_map,
    with_endpoints,
)
from .mil import (
    DefiniteClause,
    Hypothesis,
    LearningError,
    Metarule,
    TupleBackground,
    UnlearnableError,
    hypothesis_to_tuples,
    learn,
    prove,
)
from .model import (
    ActionBackground,
    GroundAction,
    PlanningProblem,
    StateTerm,
    UNKNOWN,
    actions_to_text,
    generalized_example,
    instantiate_actions,
    problem_from_map,
    unifies,
)
from .slam import SlamFault, SlamMap, render_slam, slam_move, slam_permits, slam_update
from .solver import (
    Plan,
    PlanningError,
    UnsolvableError,
    generate_behaviours,
    observation_matrices,
    playback,
    solve,
)
from .workbench import (
    AGENTS,
    ExperimentReport,
    ExperimentSpec,
    InstanceRecord,
    RunOutcome,
    experiment_instances,
    learn_controller,
    learn_solver,
    run_experiment,
    run_single,
)

__version__ = "0.1.0"
