from __future__ import annotations

import random
from itertools import product

import pytest

import gridnav.mil as mil
from gridnav import (
    ACTION_LABELS,
    CONTROLLER_STATES,
    DIRECTIONS,
    ActionBackground,
    Coord,
    DefiniteClause,
    FSC,
    FSCTuple,
    Hypothesis,
    LearningError,
    Metarule,
    OBSERVATION_LABELS,
    PlanningProblem,
    TupleBackground,
    UNKNOWN,
    UnlearnableError,
    fixture_map,
    generalized_example,
    generate_behaviours,
    generate_maze,
    hypothesis_to_tuples,
    lake_fixture_names,
    learn,
    learn_controller,
    learn_solver,
    observation_matrices,
    parse_map,
    problem_from_map,
    prove,
    with_endpoints,
    zero_map,
)
from gridnav.mil import first_derivation
from gridnav.model import StateTerm, unifies
from gridnav.workbench import controller_examples

from test_executors import count_calls
from test_fsc import NOT_LINE_ENDS, tuple_universe

SOLVER_TEXT = """\
s(A,B) :- step_down(A,B).
s(A,B) :- step_left(A,B).
s(A,B) :- step_right(A,B).
s(A,B) :- step_up(A,B).
s(A,B) :- step_down(A,C), s(C,B).
s(A,B) :- step_left(A,C), s(C,B).
s(A,B) :- step_right(A,C), s(C,B).
s(A,B) :- step_up(A,C), s(C,B).
"""


def zero_background():
    return ActionBackground(zero_map())


def behaviour_goal(behaviour):
    """The resolution goal of one behaviour, from its own first state."""
    return tuple(behaviour), ()


def body_symbols(hypothesis, metarule):
    """The body symbols of one metarule's clauses, in canonical order."""
    return tuple(c.body_symbol for c in hypothesis.ordered() if c.metarule is metarule)


class TestProve:
    def test_minimal_map_identity_and_both_tailrecs(self):
        # The refutation right, left, right re-enters the start, so both
        # steps have a Tailrec instance.
        grid = parse_map("se", "pair")
        background = ActionBackground(grid)
        problem = problem_from_map(grid)
        subs = prove(problem.initial, problem.goal, background)
        assert subs == frozenset({(Metarule.IDENTITY, "step_right"),
                                  (Metarule.TAILREC, "step_left"),
                                  (Metarule.TAILREC, "step_right")})

    def test_unsatisfiable_goal_empty_set(self):
        # A full wall row splits the map into two components.
        grid = parse_map("sf\nww\nfe", "split")
        background = ActionBackground(grid)
        problem = problem_from_map(grid)
        assert prove(problem.initial, problem.goal, background) == frozenset()

    def test_generalized_open_floor_halts_with_all_eight(self):
        # Every simple derivation on an open 3x3 floor, with no depth budget.
        grid = parse_map("sff\nfff\nffe", "open")
        background = ActionBackground(grid)
        problem = generalized_example(grid.id)
        subs = prove(problem.initial, problem.goal, background)
        assert subs == {(rule, f"step_{d}") for rule in (Metarule.IDENTITY, Metarule.TAILREC)
                        for d in ("down", "left", "right", "up")}

    def test_generalized_zero_example_collects_all_eight(self):
        problem = generalized_example("zero")
        subs = prove(problem.initial, problem.goal, zero_background())
        assert len(subs) == 8
        assert {m for m, _ in subs} == {Metarule.IDENTITY, Metarule.TAILREC}
        assert {s for _, s in subs} == {"step_down", "step_left", "step_right", "step_up"}


class TestLearn:
    def test_zero_map_learns_the_eight_clause_program(self):
        hypothesis = learn([generalized_example("zero")], zero_background(), target="s")
        assert hypothesis.to_text() == SOLVER_TEXT

    def test_two_cell_map_learns_identity_and_both_tailrecs(self):
        grid = parse_map("se", "pair")
        hypothesis = learn([problem_from_map(grid)], ActionBackground(grid), target="s")
        assert hypothesis.to_text() == (
            "s(A,B) :- step_right(A,B).\n"
            "s(A,B) :- step_left(A,C), s(C,B).\n"
            "s(A,B) :- step_right(A,C), s(C,B).\n")

    def test_deterministic(self):
        first = learn([generalized_example("zero")], zero_background(), target="s")
        second = learn([generalized_example("zero")], zero_background(), target="s")
        assert first == second

    def test_unlearnable_example_raises(self):
        grid = parse_map("sf\nww\nfe", "split")
        background = ActionBackground(grid)
        with pytest.raises(UnlearnableError):
            learn([problem_from_map(grid)], background, target="s")

    def test_unlearnable_error_names_the_earliest_unlearnable_example(self):
        # Two components, {0/0, 1/0} and {0/2, 1/2}; goals 1/2 and 0/0 in
        # that order of first use.  Examples 2 and 3 cross the wall, and the
        # earlier one is in the second goal's group.
        grid = parse_map("sf\nww\nfe", "split")

        def state(x, y):
            return StateTerm(grid.id, Coord(x, y), grid.tile_at(Coord(x, y)))

        def problem(start, goal):
            return PlanningProblem(grid.id, state(*start), state(*goal))

        examples = [problem((0, 2), (1, 2)), problem((1, 0), (0, 0)), problem((0, 2), (0, 0)),
                    problem((1, 0), (1, 2)), problem((1, 2), (1, 2))]
        with pytest.raises(UnlearnableError) as raised:
            learn(examples, ActionBackground(grid), target="s")
        assert str(raised.value) == f"no derivation exists for example {examples[2]!r}"
        learnable = [examples[0], examples[1], examples[4]]
        assert learn(learnable, ActionBackground(grid), target="s").to_text() == (
            "s(A,B) :- step_left(A,B).\n"
            "s(A,B) :- step_right(A,B).\n"
            "s(A,B) :- step_left(A,C), s(C,B).\n"
            "s(A,B) :- step_right(A,C), s(C,B).\n")

    def test_requires_examples(self):
        with pytest.raises(ValueError):
            learn([], zero_background(), target="s")

    def test_learned_clauses_are_metarule_instances(self):
        hypothesis = learn([generalized_example("zero")], zero_background(), target="s")
        for clause in hypothesis.clauses:
            assert clause.metarule in (Metarule.IDENTITY, Metarule.TAILREC)
            assert clause.target == "s"
            assert clause.body_symbol.startswith("step_")

    def test_hypothesis_size_bound(self):
        hypothesis = learn([generalized_example("zero")], zero_background(), target="s")
        assert len(hypothesis) <= 2 * len(DIRECTIONS)

    def test_soundness_examples_replay(self):
        background = zero_background()
        example = generalized_example("zero")
        hypothesis = learn([example], background, target="s")
        assert first_derivation(background, hypothesis, example.initial, example.goal) is not None

    def test_soundness_via_plan_interpreter(self):
        # every ground instance of the training example replays through solve
        from gridnav import Coord, PlanningProblem, StateTerm, solve

        grid = zero_map()
        hypothesis = learn([generalized_example("zero")], zero_background(), target="s")
        cells = grid.passable_cells()
        for a in cells:
            for b in cells:
                if a == b:
                    continue
                problem = PlanningProblem(
                    "zero",
                    StateTerm("zero", Coord(*a), "f"),
                    StateTerm("zero", Coord(*b), "f"),
                )
                plan = solve(grid, hypothesis, problem)
                assert plan.actions[0].input.pos == a
                assert plan.actions[-1].output.pos == b

    def test_entails_large_maze_within_recursion_limit(self, solver_hypothesis):
        from gridnav import generate_maze

        maze = generate_maze(201, 201, seed=1)
        problem = problem_from_map(maze)
        background = ActionBackground(maze)
        derivation = first_derivation(background, solver_hypothesis, problem.initial, problem.goal)
        assert derivation is not None


def assert_chained_steps(background, steps, initial, goal):
    """Each (symbol, next state) step is an atom of the background out of
    the state before it, starting at ``initial``; the last state unifies
    with the goal."""
    state = initial
    for step in steps:
        assert len(step) == 2
        assert step in list(background.successors(state))
        state = step[1]
    assert unifies(state, goal)


class TestFirstDerivationSteps:
    def test_action_steps_chain_from_initial_to_goal(self, solver_hypothesis):
        from gridnav import generate_maze

        maze = generate_maze(51, 51, seed=0)
        problem = problem_from_map(maze)
        background = ActionBackground(maze)
        steps = first_derivation(background, solver_hypothesis, problem.initial, problem.goal)
        assert len(steps) > 1
        assert_chained_steps(background, steps, problem.initial, problem.goal)

    def test_tuple_steps_chain_from_initial_to_goal(self, learned_controller, maze_a):
        from gridnav import BasicEnvironment, ExecutorConfig, execute

        run = execute(learned_controller, BasicEnvironment(maze_a), ExecutorConfig())
        behaviour = [step[:4] for step in run.trace]
        initial, goal = behaviour_goal(behaviour)
        background = TupleBackground()
        program = learn([(initial, goal)], background, target="c")
        steps = first_derivation(background, program, initial, goal)
        assert [sym for sym, _ in steps] == behaviour
        assert_chained_steps(background, steps, initial, goal)


class MatchingBackground:
    """A background's atoms with ``matches_only_equals`` false for every
    goal, so both engines test every goal with ``unifies``."""

    def __init__(self, inner):
        self.successors = inner.successors

    @staticmethod
    def matches_only_equals(goal) -> bool:
        return False


def goal_terms(grid):
    """Goals at every passable cell with every passable tile kind, then
    goals leaving the tile or the position unbound."""
    cells = grid.passable_cells()
    ground = [StateTerm(grid.id, pos, tile) for pos in cells for tile in "fse"]
    unbound = ([StateTerm(grid.id, pos, UNKNOWN) for pos in cells]
               + [StateTerm(grid.id, UNKNOWN, tile) for tile in "fse"])
    return ground, unbound


class TestFirstDerivationGoalTest:
    def test_equality_and_matches_give_the_same_derivation(self, monkeypatch, solver_hypothesis):
        """Over every 3x2 map and its endpoint copies, from every passable
        cell: ground goals are tested by equality, never by ``unifies``,
        and give the derivation ``unifies`` gives; unbound goals keep
        ``unifies``."""
        from test_top_program import bound_instances, maps_of  # it imports this module

        matched = count_calls(monkeypatch, mil, "unifies")
        found = {True: 0, False: 0}
        unbound_matches = 0
        grids = list(maps_of(3, 2))
        grids += [g for grid in grids[::7] for g in bound_instances([grid])]
        for grid in grids:
            ground, unbound = goal_terms(grid)
            for pos in grid.passable_cells():
                initial = StateTerm(grid.id, pos, grid.tile_at(pos))
                for goal in ground + unbound:
                    matched.clear()
                    steps = first_derivation(ActionBackground(grid), solver_hypothesis,
                                             initial, goal)
                    if goal in unbound:
                        unbound_matches += len(matched)
                    else:
                        assert matched == [], goal
                    reference = first_derivation(MatchingBackground(ActionBackground(grid)),
                                                 solver_hypothesis, initial, goal)
                    assert steps == reference, (grid, initial, goal)
                    found[steps is not None] += 1
        assert found[True] > 1000 and found[False] > 1000 and unbound_matches > 1000

    def test_unknown_nested_in_a_suffix_keeps_unifies(self):
        """A top-level ``UNKNOWN in goal`` test cannot see an UNKNOWN label
        inside a suffix's quadruples; over the tuple background such a goal
        still matches the ground suffix it unifies with."""
        ground = FSCTuple("q0", "pppp", "up", "q1")
        initial = (("q0", "pppp", "up", "q1"), ("q1", "pppp", "up", "q1"))
        goal = (("q1", UNKNOWN, "up", "q1"),)
        assert UNKNOWN not in goal
        hypothesis = Hypothesis.of([DefiniteClause(Metarule.IDENTITY, "c", ground)], "c")
        steps = first_derivation(TupleBackground(), hypothesis, initial, goal)
        assert steps == [(ground, initial[1:])]

    @pytest.mark.parametrize("tailrec, labels", [
        (("step_up",), ("up", "right")),
        (("step_right",), ("right", "up")),
        (("step_down", "step_left"), None),
    ])
    def test_only_tailrec_symbols_expand(self, tailrec, labels):
        """Tailrec clauses for a strict subset of the map's actions expand
        only those actions."""
        clauses = ([DefiniteClause(Metarule.IDENTITY, "s", sym) for sym in ("step_right", "step_up")]
                   + [DefiniteClause(Metarule.TAILREC, "s", sym) for sym in tailrec])
        initial = StateTerm("zero", Coord(0, 0), "f")
        goal = StateTerm("zero", Coord(1, 1), "f")
        steps = first_derivation(zero_background(), Hypothesis.of(clauses, "s"), initial, goal)
        assert (None if steps is None else tuple(n.removeprefix("step_") for n, _ in steps)) == labels


class ReplyLog:
    """A background that keeps each reply of ``inner`` beside a snapshot of
    it, and returns the reply itself or, with ``copy``, ``copy(reply)``."""

    def __init__(self, inner, copy=None):
        self.inner, self.copy, self.replies = inner, copy, []
        self.matches_only_equals = inner.matches_only_equals

    def successors(self, state):
        reply = self.inner.successors(state)
        self.replies.append((reply, tuple(reply)))
        return reply if self.copy is None else self.copy(reply)


class TestBackgroundProtocol:
    def test_first_derivation_reads_any_sequence_and_mutates_no_reply(
            self, solver_hypothesis, maze_a):
        """A background whose ``successors`` returns tuple copies gives the
        derivations of the plain one, on ``maze_a``, the lake fixtures and a
        21x21 maze and on endpoint copies of each; every list the plain
        background returned, its layout's own among them, is unchanged
        after the search."""
        sources = [maze_a, *map(fixture_map, lake_fixture_names()), generate_maze(21, 21, 0)]
        solved = lists = 0
        for source in sources:
            rng = random.Random(source.id)
            cells = source.passable_cells()
            for grid in [source, *(with_endpoints(source, *rng.sample(cells, 2)) for _ in range(4))]:
                problem = problem_from_map(grid)
                plain = ReplyLog(ActionBackground(grid))
                copied = ReplyLog(ActionBackground(grid), tuple)
                steps = first_derivation(plain, solver_hypothesis, problem.initial, problem.goal)
                assert first_derivation(copied, solver_hypothesis,
                                        problem.initial, problem.goal) == steps
                solved += steps is not None
                for reply, snapshot in plain.replies:
                    assert tuple(reply) == snapshot
                    lists += type(reply) is list
        assert solved > 30 and lists > 1000


class TestHypothesisText:
    def test_round_trip(self):
        hypothesis = Hypothesis.from_text(SOLVER_TEXT)
        assert hypothesis.to_text() == SOLVER_TEXT
        assert len(hypothesis) == 8

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            Hypothesis.from_text("s(A,B) :- nonsense\n")

    def test_bom_and_crlf_read_as_plain_lf(self):
        hypothesis = Hypothesis.from_text("\ufeff" + SOLVER_TEXT.replace("\n", "\r\n"))
        assert hypothesis.to_text() == SOLVER_TEXT

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_only_lf_ends_a_line(self, sep):
        first, second = SOLVER_TEXT.splitlines()[:2]
        with pytest.raises(LearningError, match="^line 0: not a metarule instance"):
            Hypothesis.from_text(f"{first}{sep}{second}\n")

    def test_rejects_wrong_recursive_call(self):
        with pytest.raises(Exception):
            Hypothesis.from_text("s(A,B) :- step_up(A,C), t(C,B).\n")

    def test_recursive_call_error_names_both_predicates(self):
        with pytest.raises(LearningError,
                           match=r"^line 1: recursive call on 't', expected 's'$"):
            Hypothesis.from_text("s(A,B) :- step_up(A,B).\ns(A,B) :- step_up(A,C), t(C,B).\n")

    @pytest.mark.parametrize("second", ["t(A,B) :- step_up(A,B).",
                                        "t(A,B) :- step_up(A,C), t(C,B)."])
    def test_rejects_mixed_target_predicates(self, second):
        # Comment and blank lines count in the line number.
        text = f"% solver\ns(A,B) :- step_up(A,B).\n\n{second}\n"
        with pytest.raises(LearningError, match=r"^line 3: mixed target predicates$"):
            Hypothesis.from_text(text)

    @pytest.mark.parametrize("text", ["", "\n \n", "% a comment\n  % another\n"])
    def test_rejects_text_without_clauses(self, text):
        with pytest.raises(LearningError, match=r"^no clauses in hypothesis text$"):
            Hypothesis.from_text(text)

    def test_controller_clause_text_names_the_tuple(self):
        body = FSCTuple("q0", "upuu", "right", "q1")
        assert (DefiniteClause(Metarule.IDENTITY, "c", body).to_text()
                == "c(A,B) :- tuple(q0,upuu,right,q1,A,B).")
        assert (DefiniteClause(Metarule.TAILREC, "c", body).to_text()
                == "c(A,B) :- tuple(q0,upuu,right,q1,A,C), c(C,B).")

    def test_planning_never_sorts_the_clauses(self, monkeypatch):
        hypothesis = Hypothesis.from_text(SOLVER_TEXT)
        keys = []
        original = mil._symbol_key

        def counting(symbol):
            keys.append(symbol)
            return original(symbol)

        monkeypatch.setattr(mil, "_symbol_key", counting)
        assert hypothesis.to_text() == SOLVER_TEXT
        assert list(hypothesis) == list(hypothesis.ordered())
        assert body_symbols(hypothesis, Metarule.IDENTITY) == body_symbols(hypothesis, Metarule.TAILREC)
        keys.clear()
        grid = parse_map("se", "pair")
        problem = problem_from_map(grid)
        for _ in range(2):
            first_derivation(ActionBackground(grid), hypothesis, problem.initial, problem.goal)
        assert keys == []


    def test_symbol_sets_are_built_once(self):
        hypothesis = Hypothesis.from_text(SOLVER_TEXT)
        identity, tailrec = hypothesis.symbol_sets
        assert identity == set(body_symbols(hypothesis, Metarule.IDENTITY))
        assert tailrec == set(body_symbols(hypothesis, Metarule.TAILREC))
        assert hypothesis.symbol_sets is hypothesis.symbol_sets


class TestSuffixes:
    def test_suffixes_of_tuples_equal_and_hash_as_their_labels(self):
        # A suffix of the behaviour's own FSCTuples equals, and hashes as,
        # the suffix of their plain label quadruples, as does a goal whose
        # head ``controller_examples`` rebuilt as a plain quadruple.
        behaviour = (FSCTuple("q0", "upuu", "right", "q1"), FSCTuple("q1", "pppp", "up", "q0"))
        one = behaviour_goal(behaviour)[0]
        two = tuple(tuple(t) for t in behaviour)
        assert one == two and hash(one) == hash(two)
        assert len({one, two, one[1:], two[1:]}) == 2
        assert one != one[1:]
        mixed = (tuple(behaviour[0]),) + behaviour[1:]
        assert mixed == one and hash(mixed) == hash(one)

    def test_unification_needs_equal_lengths_then_unifying_labels(self):
        state = (("q0", "upuu", "right", "q1"),)
        pattern = ((UNKNOWN, "upuu", UNKNOWN, "q1"),)
        assert unifies(state, pattern) and unifies(pattern, state)
        assert not unifies(state, (("q0", "upuu", "left", "q1"),))
        longer = ((UNKNOWN, "upuu", "right", "q1"), (UNKNOWN,) * 4)
        assert not unifies(state, longer) and not unifies(longer, state)
        assert unifies(state[1:], ())


def reference_matching(index, heads):
    """The matching rule over an explicit tuple universe: the lookup by key
    for ground heads, else every unifying key in sorted tuple order."""
    if UNKNOWN not in heads:
        t = index.get(heads)
        return [t] if t is not None else []
    return sorted(t for key, t in index.items() if all(map(unifies, heads, key)))


class TestTupleBackground:
    def test_successors_equal_the_universe_index(self):
        # Each field is UNKNOWN, one of its alphabet's labels, or a label
        # outside it; successors must match the indexed universe in order.
        index = {(t.q, t.o, t.a, t.q_next): t for t in tuple_universe()}
        fields = [(UNKNOWN, *alphabet, "x")
                  for alphabet in (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS,
                                   CONTROLLER_STATES)]
        background = TupleBackground()
        second = ("q1", "pppp", "up", "q0")
        patterns = 0
        for heads in product(*fields):
            state = (heads, second)
            expected = reference_matching(index, heads)
            got = list(background.successors(state))
            assert [sym for sym, _ in got] == expected, heads
            assert all(nxt == (second,) for _, nxt in got)
            patterns += 1
        assert patterns == 6 * 17 * 6 * 6

    def test_one_quadruple_states_yield_the_shared_empty_suffix(self):
        # Every one-quadruple state: each field UNKNOWN, a label of its
        # alphabet or a label outside it.  No suffix is built per state.
        empty = ()
        fields = [(UNKNOWN, *alphabet, "x")
                  for alphabet in (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS,
                                   CONTROLLER_STATES)]
        background = TupleBackground()
        yielded = 0
        for heads in product(*fields):
            for _, nxt in background.successors((heads,)):
                assert nxt is empty, heads
                yielded += 1
        # Each tuple unifies with the 2**4 patterns of its labels and UNKNOWN.
        assert yielded == len(tuple_universe()) * 2 ** 4
        examples = controller_examples(generate_behaviours(observation_matrices(), learn_solver()))
        for initial, _ in examples:
            assert [nxt is empty for _, nxt in background.successors(initial)] == [True]

    def test_learning_validates_fewer_tuples_than_the_universe(self, monkeypatch):
        universe_size = len(tuple_universe())
        validated = count_calls(monkeypatch, FSCTuple, "__new__")
        controller = learn_controller(learn_solver())
        assert len(controller.tuples) == 128
        assert len(validated) < universe_size

    def test_ground_streams_match_exactly_one_symbol(self):
        background = TupleBackground()
        initial, goal = behaviour_goal([FSCTuple("q0", "upuu", "right", "q1")])
        cands = list(background.successors(initial))
        assert len(cands) == 1
        assert cands[0][0] == FSCTuple("q0", "upuu", "right", "q1")

    def test_unknown_head_enumerates(self):
        background = TupleBackground()
        state = ((UNKNOWN, "upuu", "right", "q1"),)
        cands = list(background.successors(state))
        assert len(cands) == 4  # one per controller state

    def test_the_empty_suffix_has_no_candidates(self):
        assert list(TupleBackground().successors(())) == []

    def test_learn_from_single_behaviour(self):
        behaviour = [FSCTuple("q0", "upuu", "right", "q1")]
        program = learn([behaviour_goal(behaviour)], TupleBackground(), target="c")
        fsc = hypothesis_to_tuples(program)
        assert fsc.tuples == frozenset(behaviour)

    def test_chained_behaviour_learns_tailrec_too(self):
        behaviour = [
            FSCTuple("q0", "upuu", "right", "q1"),
            FSCTuple("q1", "upup", "right", "q1"),
        ]
        program = learn([behaviour_goal(behaviour)], TupleBackground(), target="c")
        assert {c.metarule for c in program.clauses} == {Metarule.IDENTITY, Metarule.TAILREC}
        assert hypothesis_to_tuples(program).tuples == frozenset(behaviour)


class TestHypothesisToTuples:
    def test_empty_hypothesis(self):
        assert hypothesis_to_tuples(Hypothesis.of([], "c")) == FSC(frozenset())

    def test_rejects_non_tuple_bodies(self):
        clause = DefiniteClause(Metarule.IDENTITY, "s", "step_up")
        with pytest.raises(Exception, match="not a controller tuple"):
            hypothesis_to_tuples(Hypothesis.of([clause], "s"))
