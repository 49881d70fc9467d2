"""Stack-machine interpreters that run a controller against an environment.

Executors exchange only labels with the environment: they emit action labels
and receive observation labels plus an at-goal flag.  They never see
coordinates, the map, or the goal location.  The backtracking executor may
additionally save and restore opaque environment checkpoints; the reversing
executor never does, and instead physically retraces its steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .fsc import FSC, STATE_FOR_ACTION, observe, reverse_pair
from .grid import DELTA, DIRECTIONS, Coord, GridMap
from .record import FrozenRecord, Record, new_tuple
from .slam import SlamMap, slam_move, slam_permits, slam_update

SOLVED = "solved"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

BACKTRACKING = "backtracking"
REVERSING = "reversing"

# The reversing executor's stack entry that retraces an action.
_REVERSAL = {a: (False, *reverse_pair(a, q)) for a, q in STATE_FOR_ACTION.items()}


class ExecutorError(Exception):
    pass


class BasicEnvironment:
    """Grid-world environment for one navigation instance.

    Exposes only what crosses the controller boundary: observation labels,
    an at-goal flag, move acceptance, and opaque integer checkpoint tokens.
    The accepted-move trail is kept for reporting and rendering; executors
    never read it.  Labels are the 16 p/u strings of ``observe``: the 15 of
    the controller alphabet, and ``uuuu`` at a start with no passable
    neighbor, where a controller finds no pair and the run ends
    ``exhausted`` with no move.

    The position is a flat cell index, ``y * width + x``.  A move is legal
    exactly when the current cell's label reads ``p`` in its direction,
    and it adds the direction's ``DELTA`` as a flat offset to the position.
    It fills the map's ``Layout`` tables ``labels`` and ``coords``, a
    cell's label and ``Coord`` when a run first enters it.  The trail holds
    cell indices; ``trail`` turns them into the layout's ``Coord``s.
    """

    supports_checkpoint = True

    def __init__(self, grid: GridMap):
        self.grid = grid
        self._labels, self._coords = grid.layout.labels, grid.layout.coords
        start, end = grid.require_endpoints()
        width = grid.width
        # Each action's place in a label and the offset of its move.
        self._moves = {d: (k, DELTA[d][0] + DELTA[d][1] * width) for k, d in enumerate(DIRECTIONS)}
        self._end = end.y * width + end.x
        self._start = start.y * width + start.x
        self.reset()
        self._tokens: dict[int, int] = {}
        self._states: list[int] = []

    def _label(self, i: int) -> str:
        label = self._labels[i]
        if label is None:
            y, x = divmod(i, self.grid.width)
            coord = self._coords[i] = new_tuple(Coord, (x, y))
            label = self._labels[i] = observe(self.grid, coord)
        return label

    def reset(self) -> str:
        """Place the agent on the start tile and return the observation."""
        self._pos = self._start
        self._trail = [self._start]
        return self._label(self._start)

    def step(self, action: str) -> tuple[str, bool] | None:
        """Apply an action label.  Returns (observation, at_goal), or None
        when the move hits a wall or the map edge (state unchanged)."""
        try:
            k, offset = self._moves[action]
        except (KeyError, TypeError):
            raise ExecutorError(f"unknown action label {action!r}") from None
        labels = self._labels
        if labels[self._pos][k] != "p":
            return None
        i = self._pos = self._pos + offset
        self._trail.append(i)
        return labels[i] or self._label(i), i == self._end

    def checkpoint(self) -> int:
        """Opaque token for the current state; equal states yield equal
        tokens."""
        pos = self._pos
        token = self._tokens.get(pos)
        if token is None:
            token = self._tokens[pos] = len(self._states)
            self._states.append(pos)
        return token

    def restore(self, token: int) -> None:
        self._pos = self._states[token]

    @property
    def trail(self) -> tuple[Coord, ...]:
        """The accepted moves' cells, from the start: the layout's ``Coord``
        of each, filled with its label when the cell was first entered."""
        return tuple(map(self._coords.__getitem__, self._trail))


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


def _result(outcome: str, trace, env, slam: SlamMap | None) -> ExecutionResult:
    """A run's result: its steps are the trace's length, and its path is the
    environment's trail, without the move that overran a budget."""
    trace = tuple(trace)
    trail = getattr(env, "trail", ())[:-1 if outcome == BUDGET_EXCEEDED else None]
    return ExecutionResult(outcome, len(trace), trace, trail, slam)


def run_backtracking(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    """Depth-first search over controller choices with environment rewind.

    At each state the executor tries the lookup pairs for (q, o) in order;
    a dead end restores the environment to the choice point.  States already
    seen (by checkpoint token) are pruned, so the search visits each
    environment state at most once and always halts.  Under SLAM the rule
    never prunes: SLAM vetoes every move into a visited cell.  Requires an
    environment with checkpoint support, so it only runs in simulation.
    """
    if not getattr(env, "supports_checkpoint", False):
        raise ExecutorError("backtracking executor needs checkpoint/restore support")
    moves_left = cfg.budget_for(env)
    lookup, step, restore, checkpoint = fsc.lookup, env.step, env.restore, env.checkpoint
    obs = env.reset()
    slam = SlamMap() if cfg.slam else None
    if slam is not None:
        slam_update(slam, obs)
    at = checkpoint()  # the environment's state: restoring it is a no-op
    visited = {at}

    def kept_trace(frames) -> tuple[TraceStep, ...]:
        """A TraceStep of the pair last tried at each frame."""
        return tuple(TraceStep(f[0], f[1], *f[4][f[5] - 1]) for f in frames)

    # A choice point: [q, o, token, SLAM pose, lookup pairs, next pair index];
    # its last tried pair entered the frame above it.
    stack = [["q0", obs, at, slam.pose if slam is not None else None, lookup("q0", obs), 0]]
    while stack:
        frame = stack[-1]
        pairs, idx = frame[4], frame[5]
        if idx == len(pairs):
            stack.pop()
            continue
        frame[5] = idx + 1
        a, q_next = pairs[idx]
        if at != frame[2]:
            at = frame[2]
            restore(at)
        if slam is not None:
            slam.pose = frame[3]
            if not slam_permits(slam, a):
                continue
        result = step(a)
        if result is None:
            continue
        moves_left -= 1
        if moves_left < 0:
            return _result(BUDGET_EXCEEDED, kept_trace(stack[:-1]), env, slam)
        obs2, at_goal = result
        if slam is not None:
            slam_move(slam, a)
            slam_update(slam, obs2)
        if at_goal:
            return _result(SOLVED, kept_trace(stack), env, slam)
        at = checkpoint()
        if at in visited:
            continue
        visited.add(at)
        stack.append([q_next, obs2, at, slam.pose if slam is not None else None,
                      lookup(q_next, obs2), 0])
    return _result(EXHAUSTED, (), env, slam)


def run_reversing(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    """Stack machine that explores by really moving, never rewinding.

    Arriving somewhere by a forward move pushes the reverse of the move, then
    on top of it the lookup pairs for the new (q, o) — minus the immediate
    reverse of the arriving action, to stop oscillation.  Popping the
    reverse physically retraces the step, so by the time a pending sibling
    is popped the agent is back where that sibling was recorded.
    An empty stack means the exploration is exhausted.

    With no map of where it has been, it cannot tell an unreachable end
    from a cycle it keeps circling: where the start's region has a cycle,
    an unreachable end gives ``budget_exceeded``, not ``exhausted`` (80 of
    the 2,616 unreachable instances of sides 1 to 3).
    """
    moves_left = cfg.budget_for(env)
    lookup, step = fsc.lookup, env.step
    obs = env.reset()
    q = "q0"
    slam = SlamMap() if cfg.slam else None
    if slam is not None:
        slam_update(slam, obs)
    trace: list[TraceStep] = []
    # (forward, a, q_next); the last pushed is tried first.
    stack = [(True, a, q_next) for a, q_next in reversed(lookup(q, obs))]
    while stack:
        forward, a, q_next = stack.pop()
        if forward and slam is not None and not slam_permits(slam, a):
            continue
        result = step(a)
        if result is None:
            continue
        moves_left -= 1
        if moves_left < 0:
            return _result(BUDGET_EXCEEDED, trace, env, slam)
        obs2, at_goal = result
        if slam is not None:
            slam_move(slam, a)
            slam_update(slam, obs2)
        trace.append(new_tuple(TraceStep, (q, obs, a, q_next, not forward)))
        q, obs = q_next, obs2
        if at_goal:
            return _result(SOLVED, trace, env, slam)
        if forward:
            reversal = _REVERSAL[a]
            stack.append(reversal)
            back = reversal[1]
            for a, q_next in reversed(lookup(q, obs)):
                if a != back:
                    stack.append((True, a, q_next))
    return _result(EXHAUSTED, trace, env, slam)


def execute(fsc: FSC, env, cfg: ExecutorConfig) -> ExecutionResult:
    if cfg.kind == BACKTRACKING:
        return run_backtracking(fsc, env, cfg)
    if cfg.kind == REVERSING:
        return run_reversing(fsc, env, cfg)
    raise ExecutorError(f"unknown executor kind {cfg.kind!r}")
