"""Stack-machine interpreters that run a controller against an environment.

Executors exchange only labels with the environment: they emit action labels
and receive observation labels plus an at-goal flag.  They never see
coordinates, the map, or the goal location.  The backtracking executor may
additionally save and restore opaque environment checkpoints; the reversing
executor never does, and instead physically retraces its steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .fsc import FSC, observe, reverse_pair
from .grid import DELTA, DIRECTIONS, OPPOSITE, PASSABLE_TILES, Coord, GridMap
from .record import FrozenRecord, Record
from .slam import SlamMap, slam_move, slam_permits, slam_update

SOLVED = "solved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

BACKTRACKING = "backtracking"
REVERSING = "reversing"


class ExecutorError(Exception):
    pass


class BasicEnvironment:
    """Grid-world environment for one navigation instance.

    Exposes only what crosses the controller boundary: observation labels,
    an at-goal flag, move acceptance, and opaque integer checkpoint tokens.
    The accepted-move trail is kept for reporting and rendering; executors
    never read it.
    """

    supports_checkpoint = True

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._start, self._end = grid.require_endpoints()
        self._pos = self._start
        self._trail: list[Coord] = [self._start]
        self._tokens: dict[Coord, int] = {}
        self._states: list[Coord] = []

    def reset(self) -> str:
        """Place the agent on the start tile and return the observation."""
        self._pos = self._start
        self._trail = [self._start]
        return observe(self.grid, self._pos)

    def step(self, action: str) -> tuple[str, bool] | None:
        """Apply an action label.  Returns (observation, at_goal), or None
        when the move hits a wall or the map edge (state unchanged)."""
        if action not in DIRECTIONS:
            raise ExecutorError(f"unknown action label {action!r}")
        dx, dy = DELTA[action]
        grid = self.grid
        x, y = self._pos.x + dx, self._pos.y + dy
        if not (0 <= x < grid.width and 0 <= y < grid.height
                and grid.tiles[y][x] in PASSABLE_TILES):
            return None
        nxt = self._pos = Coord(x, y)
        self._trail.append(nxt)
        return observe(grid, nxt), nxt == self._end

    def checkpoint(self) -> int:
        """Opaque token for the current state; equal states yield equal
        tokens."""
        token = self._tokens.get(self._pos)
        if token is None:
            token = len(self._states)
            self._tokens[self._pos] = token
            self._states.append(self._pos)
        return token

    def restore(self, token: int) -> None:
        self._pos = self._states[token]

    @property
    def trail(self) -> tuple[Coord, ...]:
        return tuple(self._trail)


class ExecutorConfig(FrozenRecord):
    __slots__ = _fields = ("kind", "slam", "step_budget")

    def __init__(self, kind: str = BACKTRACKING, slam: bool = False,
                 step_budget: int | None = None) -> None:
        if step_budget is not None and step_budget < 0:
            raise ExecutorError(f"step_budget must be non-negative, got {step_budget}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "slam", slam)
        object.__setattr__(self, "step_budget", step_budget)

    def budget_for(self, env) -> int:
        if self.step_budget is not None:
            return self.step_budget
        grid = getattr(env, "grid", None)
        if grid is None:
            raise ExecutorError("step_budget must be set for map-less environments")
        return 10 * grid.width * grid.height


class TraceStep(NamedTuple):
    """One executed decision; reversal steps retrace an earlier move and are
    tagged so step accounting can tell them apart."""

    q: str
    o: str
    a: str
    q_next: str
    reversal: bool = False

    def as_line(self) -> str:
        suffix = " (reversal)" if self.reversal else ""
        return f"{self.q},{self.o},{self.a},{self.q_next}{suffix}"


class ExecutionResult(Record):
    __slots__ = _fields = ("outcome", "steps", "trace", "path", "slam_map")

    def __init__(self, outcome: str, steps: int, trace: tuple[TraceStep, ...],
                 path: tuple[Coord, ...] = (), slam_map: SlamMap | None = None) -> None:
        self.outcome = outcome
        self.steps = steps
        self.trace = trace
        self.path = path
        self.slam_map = slam_map

    def to_text(self) -> str:
        lines = [f"outcome: {self.outcome}", f"steps: {self.steps}"]
        lines += [t.as_line() for t in self.trace]
        return "\n".join(lines) + "\n"


def _trail_within_budget(env) -> tuple[Coord, ...]:
    """The environment's trail without the move that overran the budget."""
    return getattr(env, "trail", ())[:-1]


class _Frame:
    """A backtracking choice point: the state entered, its checkpoint token
    and SLAM pose, the lookup pairs still to try, and the step that entered
    it as a plain (q, o, a, q_next) tuple (None at the root)."""

    __slots__ = ("q", "obs", "token", "pose", "pairs", "idx", "entering")

    def __init__(self, q, obs, token, pose, pairs, entering):
        self.q = q
        self.obs = obs
        self.token = token
        self.pose = pose
        self.pairs = pairs
        self.idx = 0
        self.entering = entering


def run_backtracking(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    """Depth-first search over controller choices with environment rewind.

    At each state the executor tries the lookup pairs for (q, o) in order;
    a dead end restores the environment to the choice point.  States already
    seen (by checkpoint token) are pruned, so the search visits each
    environment state at most once and always halts.  Requires an
    environment with checkpoint support, so it only runs in simulation.
    """
    if not getattr(env, "supports_checkpoint", False):
        raise ExecutorError("backtracking executor needs checkpoint/restore support")
    moves_left = cfg.budget_for(env)
    obs = env.reset()
    slam = SlamMap() if cfg.slam else None
    if slam is not None:
        slam_update(slam, obs)
    token = env.checkpoint()
    visited = {token}

    def kept_trace(stack, *last) -> tuple[TraceStep, ...]:
        """TraceSteps of the frames' entering steps, then of ``last``."""
        kept = [f.entering for f in stack if f.entering is not None] + list(last)
        return tuple(TraceStep(*step) for step in kept)

    stack = [_Frame("q0", obs, token, slam.pose if slam is not None else None,
                    fsc.lookup("q0", obs), None)]
    while stack:
        frame = stack[-1]
        if frame.idx >= len(frame.pairs):
            stack.pop()
            continue
        a, q_next = frame.pairs[frame.idx]
        frame.idx += 1
        env.restore(frame.token)
        if slam is not None:
            slam.pose = frame.pose
            if not slam_permits(slam, a):
                continue
        result = env.step(a)
        if result is None:
            continue
        moves_left -= 1
        if moves_left < 0:
            kept = kept_trace(stack)
            return ExecutionResult(BUDGET_EXCEEDED, len(kept), kept,
                                   _trail_within_budget(env), slam)
        obs2, at_goal = result
        if slam is not None:
            slam_move(slam, a)
            slam_update(slam, obs2)
        step = (frame.q, frame.obs, a, q_next)
        if at_goal:
            trace = kept_trace(stack, step)
            return ExecutionResult(SOLVED, len(trace), trace, getattr(env, "trail", ()), slam)
        token = env.checkpoint()
        if token in visited:
            continue
        visited.add(token)
        stack.append(_Frame(q_next, obs2, token, slam.pose if slam is not None else None,
                            fsc.lookup(q_next, obs2), step))
    return ExecutionResult(EXHAUSTED, 0, (), getattr(env, "trail", ()), slam)


def run_reversing(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    """Stack machine that explores by really moving, never rewinding.

    Arriving somewhere by a forward move pushes the untried lookup pairs for
    the new (q, o) — minus the immediate reverse of the arriving action, to
    stop oscillation — then the reverse of the move itself on top.  Popping
    the reverse physically retraces the step, so by the time a pending
    sibling is popped the agent is back where that sibling was recorded.
    An empty stack means the exploration is exhausted.
    """
    moves_left = cfg.budget_for(env)
    obs = env.reset()
    q = "q0"
    slam = SlamMap() if cfg.slam else None
    if slam is not None:
        slam_update(slam, obs)
    stack: list[tuple[bool, str, str]] = []  # (forward, a, q_next)
    trace: list[TraceStep] = []

    def push_pairs(exclude: str | None) -> None:
        for a, q_next in reversed(fsc.lookup(q, obs)):
            if a != exclude:
                stack.append((True, a, q_next))

    push_pairs(exclude=None)
    while stack:
        forward, a, q_next = stack.pop()
        if forward and slam is not None and not slam_permits(slam, a):
            continue
        result = env.step(a)
        if result is None:
            continue
        moves_left -= 1
        if moves_left < 0:
            return ExecutionResult(
                BUDGET_EXCEEDED, len(trace), tuple(trace), _trail_within_budget(env), slam,
            )
        obs2, at_goal = result
        if slam is not None:
            slam_move(slam, a)
            slam_update(slam, obs2)
        trace.append(TraceStep(q, obs, a, q_next, reversal=not forward))
        q, obs = q_next, obs2
        if at_goal:
            return ExecutionResult(
                SOLVED, len(trace), tuple(trace), getattr(env, "trail", ()), slam,
            )
        if forward:
            stack.append((False, *reverse_pair(a, q_next)))
            push_pairs(exclude=OPPOSITE[a])
    return ExecutionResult(EXHAUSTED, len(trace), tuple(trace), getattr(env, "trail", ()), slam)


def execute(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    if cfg.kind == BACKTRACKING:
        return run_backtracking(fsc, env, cfg)
    if cfg.kind == REVERSING:
        return run_reversing(fsc, env, cfg)
    raise ExecutorError(f"unknown executor kind {cfg.kind!r}")
