from __future__ import annotations

import random

import pytest

import gridnav.executors as executors
import gridnav.fsc as fsc
from gridnav import (
    BACKTRACKING,
    BUDGET_EXCEEDED,
    BasicEnvironment,
    DIRECTIONS,
    EXHAUSTED,
    ExecutorConfig,
    ExecutorError,
    FSC,
    FSCTuple,
    OBSERVATION_LABELS,
    REVERSING,
    SOLVED,
    TraceStep,
    execute,
    fixture_map,
    generate_maze,
    lake_fixture_names,
    observe,
    parse_map,
    playback,
    run_backtracking,
    run_reversing,
    with_endpoints,
)

from gridnav.grid import DELTA, PASSABLE_TILES, Coord
from test_fsc import is_chained


class SpyEnvironment:
    """Wraps an environment, recording everything that crosses the boundary."""

    def __init__(self, inner, supports_checkpoint=True):
        self.inner = inner
        self.supports_checkpoint = supports_checkpoint
        self.exchanged = []
        self.checkpoint_calls = 0
        self.restore_calls = 0

    @property
    def grid(self):
        return self.inner.grid

    @property
    def trail(self):
        return self.inner.trail

    def reset(self):
        obs = self.inner.reset()
        self.exchanged.append(("obs", obs))
        return obs

    def step(self, action):
        self.exchanged.append(("action", action))
        result = self.inner.step(action)
        if result is None:
            self.exchanged.append(("rejected", None))
            return None
        obs, at_goal = result
        self.exchanged.append(("obs", obs))
        self.exchanged.append(("at_goal", at_goal))
        return result

    def checkpoint(self):
        self.checkpoint_calls += 1
        token = self.inner.checkpoint()
        self.exchanged.append(("token", token))
        return token

    def restore(self, token):
        self.restore_calls += 1
        self.inner.restore(token)


class MaplessEnvironment:
    """Wraps an environment and hides its ``grid``, as an environment with
    no map has none."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name == "grid":
            raise AttributeError(name)
        return getattr(self._inner, name)


def assert_only_labels_cross(env: SpyEnvironment, observations=OBSERVATION_LABELS) -> None:
    """Only direction labels, observation labels, bools and int tokens
    crossed the spy's boundary."""
    for tag, value in env.exchanged:
        if tag == "action":
            assert value in DIRECTIONS
        elif tag == "obs":
            assert value in observations
        elif tag == "at_goal":
            assert isinstance(value, bool)
        elif tag == "token":
            assert isinstance(value, int)
        else:
            assert tag == "rejected" and value is None


class ReferenceEnvironment:
    """``BasicEnvironment`` as it was before it kept its position as a flat
    cell index and each entered cell's observation: it builds a ``Coord``
    and calls ``observe`` on every accepted step.  The reference for the
    differential test."""

    def __init__(self, grid):
        self.grid = grid
        self._start, self._end = grid.require_endpoints()
        self._pos = self._start
        self._trail = [self._start]
        self._tokens = {}
        self._states = []

    def reset(self):
        self._pos = self._start
        self._trail = [self._start]
        return observe(self.grid, self._pos)

    def step(self, action):
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

    def checkpoint(self):
        token = self._tokens.get(self._pos)
        if token is None:
            token = len(self._states)
            self._tokens[self._pos] = token
            self._states.append(self._pos)
        return token

    def restore(self, token):
        self._pos = self._states[token]

    @property
    def trail(self):
        return tuple(self._trail)


def differential_maps():
    """The five lake fixtures, both desk mazes and four 51x51 mazes."""
    return ([fixture_map(name) for name in lake_fixture_names() + ("maze_a", "maze_b")]
            + [generate_maze(51, 51, seed) for seed in range(4)])


class TestBasicEnvironment:
    def test_matches_reference_on_random_sessions(self):
        """Seeded random sessions of steps, checkpoints, restores to earlier
        tokens, resets and unknown labels give the same replies, tokens and
        trail as the reference."""
        rejected_off_map = rejected_wall = goals = 0
        for grid in differential_maps():
            rng = random.Random(grid.id)
            env, ref = BasicEnvironment(grid), ReferenceEnvironment(grid)
            assert env.reset() == ref.reset()
            tokens = []
            for _ in range(3000):
                roll = rng.random()
                if roll < 0.01:
                    label = rng.choice(["north", "", "UP", None, ["up"]])
                    for e in (env, ref):
                        with pytest.raises(ExecutorError, match="unknown action label"):
                            e.step(label)
                elif roll < 0.02:
                    assert env.reset() == ref.reset(), grid.id
                elif roll < 0.12:
                    tokens.append(env.checkpoint())
                    assert tokens[-1] == ref.checkpoint(), grid.id
                elif roll < 0.17 and tokens:
                    token = rng.choice(tokens)
                    env.restore(token)
                    ref.restore(token)
                else:
                    a = rng.choice(DIRECTIONS)
                    x, y = ref._pos.shifted(a)
                    reply = ref.step(a)
                    assert env.step(a) == reply, (grid.id, a)
                    if reply is None and 0 <= x < grid.width and 0 <= y < grid.height:
                        rejected_wall += 1
                    elif reply is None:
                        rejected_off_map += 1
                    else:
                        goals += reply[1]
            assert env.trail == ref.trail, grid.id
        assert rejected_wall > 0 and rejected_off_map > 0 and goals > 1

    def test_reset_returns_initial_observation(self, maze_a):
        env = BasicEnvironment(maze_a)
        assert env.reset() == "upuu"

    def test_wall_step_rejected_without_state_change(self, maze_a):
        env = BasicEnvironment(maze_a)
        obs = env.reset()
        assert env.step("up") is None
        assert env.step("right") is not None  # still at the start cell

    def test_goal_flag_on_entering_end(self):
        env = BasicEnvironment(parse_map("se", "pair"))
        env.reset()
        obs, at_goal = env.step("right")
        assert at_goal

    def test_checkpoint_tokens_intern_states(self, maze_a):
        env = BasicEnvironment(maze_a)
        env.reset()
        t0 = env.checkpoint()
        env.step("right")
        t1 = env.checkpoint()
        env.restore(t0)
        assert env.checkpoint() == t0
        assert t0 != t1

    def test_playback(self, maze_a, solver_hypothesis):
        from gridnav import solve

        plan = solve(maze_a, solver_hypothesis)
        assert playback(maze_a, plan.labels)[0]
        assert not playback(maze_a, plan.labels[:-1])[0]

    def test_requires_endpoints(self):
        from gridnav import MapError, zero_map

        with pytest.raises(MapError):
            BasicEnvironment(zero_map())


def endpoint_copies(grid, count, seed):
    """``count`` copies of ``grid`` with seeded random endpoints."""
    rng = random.Random(seed)
    cells = sorted(grid.passable_cells())
    return [with_endpoints(grid, *rng.sample(cells, 2)) for _ in range(count)]


def shared_cache_sources():
    """The five lake fixtures and two perfect mazes."""
    return ([fixture_map(name) for name in lake_fixture_names()]
            + [generate_maze(21, 21, seed) for seed in range(2)])


def explore(env, ref, order, limit=None):
    """Depth-first over every move out of each state the environment
    reaches, through step, checkpoint and restore, each checked against the
    reference; stops after ``limit`` accepted moves."""
    token = env.checkpoint()
    assert token == ref.checkpoint()
    stack, seen, moves = [token], {token}, 0
    while stack and (limit is None or moves < limit):
        token = stack.pop()
        for a in order:
            env.restore(token)
            ref.restore(token)
            reply = env.step(a)
            assert reply == ref.step(a), a
            if reply is None:
                continue
            moves += 1
            reached = env.checkpoint()
            assert reached == ref.checkpoint()
            if reached not in seen:
                seen.add(reached)
                stack.append(reached)
    assert env.trail == ref.trail


class TestSharedLabelCache:
    @pytest.mark.parametrize("source", shared_cache_sources(), ids=lambda g: g.id)
    def test_cached_labels_equal_fresh_observations_whichever_copy_filled_them(self, source):
        """Endpoint copies that share one cache, explored in turn (all but
        the last only part way), give the reference's replies; every label
        in the cache, filled by whichever copy entered its cell first, is a
        fresh ``observe`` on the source and on every copy."""
        cache = source.layout.labels
        filled_by = {}
        copies = endpoint_copies(source, 6, source.id)
        rng = random.Random(source.id)
        for n, grid in enumerate(copies):
            assert grid.layout.labels is cache
            order = rng.sample(DIRECTIONS, 4)
            limit = None if n == len(copies) - 1 else 40
            explore(BasicEnvironment(grid), ReferenceEnvironment(grid), order, limit)
            for i, label in enumerate(cache):
                if label is not None:
                    filled_by.setdefault(i, n)
        width = source.width
        passable = {c.y * width + c.x for c in source.passable_cells()}
        assert set(filled_by) == passable
        assert len(set(filled_by.values())) > 3
        for i in passable:
            cell = Coord(i % width, i // width)
            assert {observe(g, cell) for g in (source, *copies)} == {cache[i]}
            # One shared string per label.
            assert cache[i] is fsc._LABELS[fsc._LABELS.index(cache[i])]

    def test_a_copy_observes_only_cells_no_run_on_its_layout_entered(
            self, monkeypatch, learned_controller):
        observed = count_calls(monkeypatch, executors, "observe")
        lake = fixture_map("lake_02")
        first = run_backtracking(learned_controller, BasicEnvironment(lake), ExecutorConfig())
        assert {pos for _, pos in observed} == set(first.path)
        assert len(observed) == len(set(first.path))
        entered = set(first.path)
        for grid in endpoint_copies(lake, 4, "lake_02"):
            observed.clear()
            run = run_backtracking(learned_controller, BasicEnvironment(grid), ExecutorConfig())
            new = set(run.path) - entered
            assert {pos for _, pos in observed} == new
            assert len(observed) == len(new)
            entered |= new
        observed.clear()
        run_backtracking(learned_controller, BasicEnvironment(lake), ExecutorConfig())
        assert observed == []

    def test_trail_reads_the_layouts_coords(self, learned_controller):
        """A cell's ``Coord`` is filled with its label, once per layout: the
        trails of endpoint copies share the objects."""
        lake = fixture_map("lake_04")
        coords = lake.layout.coords
        seen = {}
        for grid in endpoint_copies(lake, 4, "lake_04"):
            env = BasicEnvironment(grid)
            run_backtracking(learned_controller, env, ExecutorConfig())
            for c in env.trail:
                assert c is coords[c.y * lake.width + c.x] and type(c) is Coord
                assert seen.setdefault(c, c) is c
        assert {i for i, label in enumerate(lake.layout.labels) if label is not None} == {
            i for i, c in enumerate(coords) if c is not None}

    @pytest.mark.parametrize("kind, slam", [(BACKTRACKING, False), (BACKTRACKING, True),
                                            (REVERSING, False), (REVERSING, True)])
    def test_isolated_start_observes_uuuu_and_ends_exhausted_with_no_move(
            self, learned_controller, kind, slam):
        grid = parse_map("swe\n", "isolated")
        env = SpyEnvironment(BasicEnvironment(grid))
        result = execute(learned_controller, env, ExecutorConfig(kind, slam=slam))
        assert env.exchanged[0] == ("obs", "uuuu")
        assert [tag for tag, _ in env.exchanged if tag in ("obs", "action")] == ["obs"]
        assert (result.outcome, result.steps, result.trace) == (EXHAUSTED, 0, ())
        assert env.trail == (grid.start,)
        assert grid.layout.labels[0] == "uuuu" and grid.layout.labels[2] is None


class TestBacktracking:
    def test_solves_maze_a_with_its_controller(self, controller_a, maze_a):
        result = run_backtracking(controller_a, BasicEnvironment(maze_a), ExecutorConfig())
        assert result.outcome == SOLVED
        assert result.steps == 10
        assert result.steps == len(result.trace)

    def test_exhausts_on_maze_b_with_maze_a_controller(self, controller_a, maze_b):
        result = run_backtracking(controller_a, BasicEnvironment(maze_b), ExecutorConfig())
        assert result.outcome == EXHAUSTED

    def test_learned_controller_solves_both(self, learned_controller, maze_a, maze_b):
        for grid in (maze_a, maze_b):
            result = run_backtracking(learned_controller, BasicEnvironment(grid), ExecutorConfig())
            assert result.outcome == SOLVED

    def test_one_step_goal(self, learned_controller):
        env = BasicEnvironment(parse_map("se", "pair"))
        result = run_backtracking(learned_controller, env, ExecutorConfig())
        assert result.outcome == SOLVED
        assert result.steps == 1

    def test_trace_is_chained_and_replays(self, learned_controller, maze_b):
        result = run_backtracking(learned_controller, BasicEnvironment(maze_b), ExecutorConfig())
        assert is_chained(result.trace)
        assert playback(maze_b, [t.a for t in result.trace])[0]

    def test_needs_checkpoint_support(self, learned_controller, maze_a):
        env = SpyEnvironment(BasicEnvironment(maze_a), supports_checkpoint=False)
        with pytest.raises(ExecutorError, match="checkpoint"):
            run_backtracking(learned_controller, env, ExecutorConfig())

    def test_budget_exceeded(self, learned_controller, maze_a):
        env = BasicEnvironment(maze_a)
        result = run_backtracking(learned_controller, env, ExecutorConfig(step_budget=3))
        assert result.outcome == BUDGET_EXCEEDED

    def test_slam_never_checkpoints_a_state_twice(self, learned_controller):
        # SLAM vetoes every move into a visited cell, so each accepted move's
        # token is new and the visited check never prunes.
        checkpoints = 0
        for name in lake_fixture_names():
            lake = fixture_map(name)
            rng = random.Random(name)
            cells = lake.passable_cells()
            for _ in range(20):
                start, end = rng.sample(cells, 2)
                env = SpyEnvironment(BasicEnvironment(with_endpoints(lake, start, end)))
                run_backtracking(learned_controller, env, ExecutorConfig(slam=True))
                tokens = [value for tag, value in env.exchanged if tag == "token"]
                assert len(set(tokens)) == len(tokens) == env.checkpoint_calls, (name, start, end)
                checkpoints += len(tokens)
        assert checkpoints > 1000


class TestStepBudget:
    def test_negative_budget_rejected(self):
        with pytest.raises(ExecutorError, match="non-negative"):
            ExecutorConfig(step_budget=-3)

    def test_budget_of_minus_one_rejected(self):
        with pytest.raises(ExecutorError, match="non-negative, got -1"):
            ExecutorConfig(step_budget=-1)

    @pytest.mark.parametrize("kind", [BACKTRACKING, REVERSING])
    def test_zero_budget_is_valid_and_keeps_no_step(self, learned_controller, maze_a, kind):
        run = execute(learned_controller, BasicEnvironment(maze_a), ExecutorConfig(kind, step_budget=0))
        assert run.outcome == BUDGET_EXCEEDED
        assert run.trace == ()

    @pytest.mark.parametrize("kind", [BACKTRACKING, REVERSING])
    def test_a_mapless_environment_needs_a_step_budget(self, learned_controller, maze_a, kind):
        env = MaplessEnvironment(BasicEnvironment(maze_a))
        assert not hasattr(env, "grid")
        with pytest.raises(ExecutorError, match="^step_budget must be set for map-less environments$"):
            execute(learned_controller, env, ExecutorConfig(kind))
        cfg = ExecutorConfig(kind, step_budget=40)
        run = execute(learned_controller, MaplessEnvironment(BasicEnvironment(maze_a)), cfg)
        assert run.outcome == SOLVED
        assert run == execute(learned_controller, BasicEnvironment(maze_a), cfg)

    @pytest.mark.parametrize("kind, moves", [(BACKTRACKING, 33), (REVERSING, 26)])
    def test_budget_bounds_accepted_moves_exactly(self, learned_controller, maze_a, kind, moves):
        run = execute(learned_controller, BasicEnvironment(maze_a), ExecutorConfig(kind))
        assert run.outcome == SOLVED
        assert len(run.path) - 1 == moves
        exact = execute(learned_controller, BasicEnvironment(maze_a),
                        ExecutorConfig(kind, step_budget=moves))
        assert exact.outcome == SOLVED
        assert exact.path == run.path
        short = execute(learned_controller, BasicEnvironment(maze_a),
                        ExecutorConfig(kind, step_budget=moves - 1))
        assert short.outcome == BUDGET_EXCEEDED

    @pytest.mark.parametrize("kind", [BACKTRACKING, REVERSING])
    @pytest.mark.parametrize("slam", [False, True])
    @pytest.mark.parametrize("budget", [0, 1, 12])
    def test_overrun_path_stops_at_the_budget(self, learned_controller, maze_a, kind, slam, budget):
        # The move that overran the budget is not part of the reported path.
        run = execute(learned_controller, BasicEnvironment(maze_a),
                      ExecutorConfig(kind, slam=slam, step_budget=budget))
        assert run.outcome == BUDGET_EXCEEDED
        assert len(run.path) - 1 == budget
        assert run.path[0] == maze_a.require_endpoints()[0]


class TestReversing:
    def test_steps_dominate_backtracking(self, learned_controller, maze_a):
        bt = run_backtracking(learned_controller, BasicEnvironment(maze_a), ExecutorConfig())
        re = run_reversing(learned_controller, BasicEnvironment(maze_a), ExecutorConfig(REVERSING))
        assert re.outcome == SOLVED
        assert re.steps >= bt.steps

    def test_never_checkpoints(self, learned_controller, maze_a):
        env = SpyEnvironment(BasicEnvironment(maze_a))
        result = run_reversing(learned_controller, env, ExecutorConfig(REVERSING))
        assert result.outcome == SOLVED
        assert env.checkpoint_calls == 0
        assert env.restore_calls == 0

    def test_single_tuple_direct_goal_never_reverses(self):
        fsc = FSC.of([FSCTuple("q0", "upuu", "right", "q1")])
        env = BasicEnvironment(parse_map("se", "pair"))
        result = run_reversing(fsc, env, ExecutorConfig(REVERSING))
        assert result.outcome == SOLVED
        assert result.steps == 1
        assert not any(t.reversal for t in result.trace)

    def test_trace_chained_including_reversals(self, learned_controller, maze_a):
        result = run_reversing(learned_controller, BasicEnvironment(maze_a), ExecutorConfig(REVERSING))
        assert any(t.reversal for t in result.trace)
        assert is_chained(result.trace)

    def test_solved_trace_replays(self, learned_controller, maze_b):
        result = run_reversing(learned_controller, BasicEnvironment(maze_b), ExecutorConfig(REVERSING))
        assert playback(maze_b, [t.a for t in result.trace])[0]

    def test_exhausts_cleanly_without_matching_tuples(self, controller_a, maze_b):
        result = run_reversing(controller_a, BasicEnvironment(maze_b), ExecutorConfig(REVERSING))
        assert result.outcome == EXHAUSTED
        # retraced all the way back: net displacement zero
        deltas = {"up": (0, 1), "right": (1, 0), "down": (0, -1), "left": (-1, 0)}
        dx = sum(deltas[t.a][0] for t in result.trace)
        dy = sum(deltas[t.a][1] for t in result.trace)
        assert (dx, dy) == (0, 0)


def forward_entries_per_cell(env_trail, trace):
    """Count forward (non-reversal) entries into each cell from a run."""
    counts = {}
    for pos, step in zip(env_trail[1:], trace):
        if not step.reversal:
            counts[pos] = counts.get(pos, 0) + 1
    return counts


class TestSlamVariants:
    def test_plain_reversing_loops_on_plaza(self, learned_controller):
        plaza = parse_map("sffff\nfffff\nfffff\nfffff\nffffe", "plaza")
        result = run_reversing(learned_controller, BasicEnvironment(plaza), ExecutorConfig(REVERSING))
        assert result.outcome in (BUDGET_EXCEEDED, SOLVED)

    def test_slam_reversing_resolves_plaza(self, learned_controller):
        plaza = parse_map("sffff\nfffff\nfffff\nfffff\nffffe", "plaza")
        env = BasicEnvironment(plaza)
        cfg = ExecutorConfig(REVERSING, slam=True)
        result = run_reversing(learned_controller, env, cfg)
        assert result.outcome in (SOLVED, EXHAUSTED)
        assert result.steps < cfg.budget_for(env)
        counts = forward_entries_per_cell(env.trail, result.trace)
        assert all(v <= 1 for v in counts.values())

    def test_slam_vacuous_on_corridor(self, learned_controller):
        corridor = parse_map("sfffe", "corridor")
        plain = run_reversing(learned_controller, BasicEnvironment(corridor), ExecutorConfig(REVERSING))
        slammed = run_reversing(
            learned_controller, BasicEnvironment(corridor), ExecutorConfig(REVERSING, slam=True)
        )
        assert [t[:4] for t in plain.trace] == [t[:4] for t in slammed.trace]

    def test_slam_matches_plain_on_loop_free_maps(self, learned_controller):
        maze = generate_maze(9, 9, seed=11)
        for kind in (BACKTRACKING, REVERSING):
            plain = execute(learned_controller, BasicEnvironment(maze), ExecutorConfig(kind))
            slammed = execute(
                learned_controller, BasicEnvironment(maze), ExecutorConfig(kind, slam=True)
            )
            assert plain.outcome == slammed.outcome == SOLVED
            assert plain.slam_map is None
            assert slammed.slam_map is not None
            assert [t[:4] for t in plain.trace] == [t[:4] for t in slammed.trace]


class TestModelFreedom:
    @pytest.mark.parametrize("kind,slam", [
        (BACKTRACKING, False), (BACKTRACKING, True),
        (REVERSING, False), (REVERSING, True),
    ])
    def test_only_labels_flags_and_tokens_cross(self, learned_controller, maze_a, kind, slam):
        env = SpyEnvironment(BasicEnvironment(maze_a))
        cfg = ExecutorConfig(kind, slam=slam, step_budget=4900)
        result = execute(learned_controller, env, cfg)
        assert result.outcome == SOLVED
        assert_only_labels_cross(env)

    def test_reversing_kinds_never_restore(self, learned_controller, maze_a, maze_b):
        for slam in (False, True):
            for grid in (maze_a, maze_b):
                env = SpyEnvironment(BasicEnvironment(grid))
                execute(learned_controller, env, ExecutorConfig(REVERSING, slam=slam))
                assert env.checkpoint_calls == 0
                assert env.restore_calls == 0


class TestExecutionResult:
    def test_text_record(self, controller_a, maze_a):
        result = run_backtracking(controller_a, BasicEnvironment(maze_a), ExecutorConfig())
        text = result.to_text()
        assert text.startswith("outcome: solved\nsteps: 10\n")
        assert "q0,upuu,right,q1" in text

    def test_unknown_kind_rejected(self, learned_controller, maze_a):
        with pytest.raises(ExecutorError):
            execute(learned_controller, BasicEnvironment(maze_a), ExecutorConfig("sideways"))


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` (or a class's ``__new__``) with a wrapper that
    counts its calls and still returns what the original returns."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestValueObjectChurn:
    """Count guards: the hot loops build value objects only for what they
    return."""

    @pytest.mark.parametrize("budget, outcome", [(None, SOLVED), (12, BUDGET_EXCEEDED)])
    @pytest.mark.parametrize("slam", [False, True])
    def test_backtracking_builds_only_the_returned_trace_steps(
            self, monkeypatch, learned_controller, maze_a, budget, outcome, slam):
        built = count_calls(monkeypatch, executors, "TraceStep")
        cfg = ExecutorConfig(BACKTRACKING, slam=slam, step_budget=budget)
        result = run_backtracking(learned_controller, BasicEnvironment(maze_a), cfg)
        assert result.outcome == outcome
        assert result.trace
        assert len(built) == len(result.trace)

    def test_backtracking_observes_each_cell_once(self, monkeypatch, learned_controller):
        observed = count_calls(monkeypatch, executors, "observe")
        grid = fixture_map("lake_01")
        result = run_backtracking(learned_controller, BasicEnvironment(grid), ExecutorConfig())
        assert result.outcome == SOLVED
        cells = set(result.path)
        assert len(result.path) > 2 * len(cells)  # most moves re-enter a cell
        assert len(observed) <= len(cells)

    @pytest.mark.parametrize("slam", [False, True])
    def test_reversing_builds_no_controller_tuples(
            self, monkeypatch, learned_controller, maze_a, slam):
        built = count_calls(monkeypatch, FSCTuple, "__new__")
        result = run_reversing(learned_controller, BasicEnvironment(maze_a),
                               ExecutorConfig(REVERSING, slam=slam))
        assert result.outcome == SOLVED
        assert built == []

    @pytest.mark.parametrize("kind, slam", [(BACKTRACKING, False), (BACKTRACKING, True),
                                            (REVERSING, False), (REVERSING, True)])
    @pytest.mark.parametrize("budget", [None, 12])
    def test_trace_entries_are_trace_steps(self, learned_controller, maze_a, kind, slam, budget):
        result = execute(learned_controller, BasicEnvironment(maze_a),
                         ExecutorConfig(kind, slam=slam, step_budget=budget))
        assert result.trace
        assert all(type(step) is TraceStep for step in result.trace)
