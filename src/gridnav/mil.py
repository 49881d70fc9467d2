"""A minimal meta-interpretive learner and the interpreter of its programs.

Second-order resolution over exactly two clause templates — Identity
``P(x,y) :- Q(x,y)`` and Tailrec ``P(x,y) :- Q(x,z), P(z,y)`` — against a
ground background.  Every refutation of a training goal yields
substitutions (template, body symbol); applying them gives the learned
first-order program.

A background is a set of dyadic ground atoms ``symbol(state, next)``, given
as any object with two methods over hashable states.  ``successors(state)``
returns a sequence of (symbol, next state), one for every atom whose first
argument unifies with the state, in sorted symbol order (the order of
``Hypothesis.ordered``); callers may iterate it twice, and it may be a list
the background keeps and returns again, so they must not mutate it.
``matches_only_equals(goal)`` says whether the goal matches exactly its
equals among the states the background yields, so that both engines test
reached states by ``==`` rather than by ``model.unifies``.
``ActionBackground`` (the step actions of a map, read off its tiles) and
``TupleBackground`` (the controller tuples, read off the head of a
behaviour suffix) implement it.  A controller-learning state is the part
of a behaviour not yet consumed, a plain tuple of (q, o, a, q')
quadruples, and its goal is the empty suffix ``()``;
``controller_examples`` encodes behaviours so.

Two engines run over it: ``learn`` (``prove`` for one example) collects
the metasubstitutions of every refutation, for learning; ``first_derivation``
returns the first derivation of a program, for planning and behaviours.

Learning builds the Top program (Patsantzis & Muggleton, *Top program
construction and reduction for polynomial time meta-interpretive
learning*, MLJ 2021) without enumerating refutations: one pass forward
over the states reachable from the initial states, one ``successors``
call each, and one pass back from the goal over the atoms found.  The Top
program of several examples is the union of each one's, so ``learn``
makes one pass per distinct goal: one for the 128 controller examples.
The cost is linear in the reached atoms, so the solver learns in time
linear in any map.  ``first_derivation`` never re-enters a state on one
derivation, so it halts on cyclic maps without a depth budget.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import partial
from itertools import product
from operator import eq
from typing import Iterable, NamedTuple

from .fsc import (ACTION_LABELS, CONTROLLER_STATES, FSC, OBSERVATION_LABELS, FSCError, FSCTuple,
                  _INTERNED, interned)
from .grid import text_lines
from .model import UNKNOWN, PlanningProblem, _new_tuple, unifies
from .record import FrozenRecord


class Metarule(Enum):
    IDENTITY = "identity"
    TAILREC = "tailrec"

    # Members are singletons; Enum's own hash is a Python-level call.
    __hash__ = object.__hash__


# The members as module globals too: reading one off the Enum class is a
# Python-level descriptor call, and ``learn`` reads one per clause.
IDENTITY, TAILREC = METARULES = (Metarule.IDENTITY, Metarule.TAILREC)


class LearningError(Exception):
    pass


class UnlearnableError(LearningError):
    """No derivation exists for some training example."""


def _symbol_key(symbol) -> str:
    return symbol.as_line() if isinstance(symbol, FSCTuple) else str(symbol)


def _symbol_text(symbol, args: str) -> str:
    if isinstance(symbol, FSCTuple):
        return f"tuple({symbol.as_line()},{args})"
    return f"{symbol}({args})"


class DefiniteClause(NamedTuple):
    """A first-order clause: one metarule instantiated with the target
    predicate in the head and a background symbol in the body."""

    metarule: Metarule
    target: str
    body_symbol: object

    def to_text(self) -> str:
        if self.metarule is Metarule.IDENTITY:
            return f"{self.target}(A,B) :- {_symbol_text(self.body_symbol, 'A,B')}."
        body = _symbol_text(self.body_symbol, "A,C")
        return f"{self.target}(A,B) :- {body}, {self.target}(C,B)."


class Hypothesis(FrozenRecord):
    """A duplicate-free set of learned clauses for one target predicate.

    The canonical clause order and the body-symbol sets are built on first
    use and kept, once per hypothesis."""

    __slots__ = ("clauses", "target", "_ordered", "_symbol_sets")
    _fields = ("clauses", "target")

    def __init__(self, clauses: frozenset[DefiniteClause], target: str) -> None:
        set_field = object.__setattr__
        set_field(self, "clauses", clauses)
        set_field(self, "target", target)
        set_field(self, "_ordered", None)
        set_field(self, "_symbol_sets", None)

    @classmethod
    def of(cls, clauses: Iterable[DefiniteClause], target: str) -> "Hypothesis":
        return cls(frozenset(clauses), target)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self.ordered())

    def ordered(self) -> tuple[DefiniteClause, ...]:
        """Canonical clause order: Identity instances before Tailrec ones,
        each group sorted by body symbol."""
        ordered = self._ordered
        if ordered is None:
            ordered = tuple(
                sorted(
                    self.clauses,
                    key=lambda c: (METARULES.index(c.metarule), _symbol_key(c.body_symbol)),
                )
            )
            object.__setattr__(self, "_ordered", ordered)
        return ordered

    @property
    def symbol_sets(self) -> tuple[frozenset, frozenset]:
        """The Identity and the Tailrec body symbols, as sets."""
        sets = self._symbol_sets
        if sets is None:
            sets = (frozenset(c.body_symbol for c in self.clauses if c.metarule is IDENTITY),
                    frozenset(c.body_symbol for c in self.clauses if c.metarule is TAILREC))
            object.__setattr__(self, "_symbol_sets", sets)
        return sets

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self.ordered()) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypothesis":
        identity = re.compile(r"^(\w+)\(A,B\)\s*:-\s*(\w+)\(A,B\)\.$")
        tailrec = re.compile(r"^(\w+)\(A,B\)\s*:-\s*(\w+)\(A,C\),\s*(\w+)\(C,B\)\.$")
        clauses = []
        target = None
        for n, line in enumerate(text_lines(text)):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            m = identity.match(line)
            if m:
                head, body = m.groups()
                clauses.append(DefiniteClause(Metarule.IDENTITY, head, body))
            else:
                m = tailrec.match(line)
                if not m:
                    raise LearningError(f"line {n}: not a metarule instance: {line!r}")
                head, body, rec = m.groups()
                if rec != head:
                    raise LearningError(f"line {n}: recursive call on {rec!r}, expected {head!r}")
                clauses.append(DefiniteClause(Metarule.TAILREC, head, body))
            if target is None:
                target = clauses[-1].target
            elif clauses[-1].target != target:
                raise LearningError(f"line {n}: mixed target predicates")
        if not clauses:
            raise LearningError("no clauses in hypothesis text")
        return cls.of(clauses, target)


class TupleBackground:
    """The controller tuples as a ground background over behaviour suffixes:
    each well-formed 4-tuple is one dyadic symbol that consumes a matching
    head quadruple of a suffix and leads to the rest of it.

    The matching tuples are read off the head, so no tuple universe is
    built: a ground head names at most one tuple, and an UNKNOWN field
    ranges over its alphabet.  Tuples are the shared ones of
    ``fsc.interned``, so a head seen before is one table lookup."""

    def __init__(self):
        self._alphabets = (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS, CONTROLLER_STATES)

    @staticmethod
    def matches_only_equals(goal: tuple) -> bool:
        """Whether the goal matches exactly its equals among the suffixes
        this background yields: they may hold UNKNOWN labels, so only the
        empty suffix does."""
        return not goal

    def _matching(self, head: tuple) -> list[FSCTuple]:
        """Every well-formed tuple unifying with the head, in sorted order."""
        choices = [alphabet if h is UNKNOWN else (h,)
                   for h, alphabet in zip(head, self._alphabets, strict=True)]
        try:
            return sorted(interned(*fields) for fields in product(*choices))
        except FSCError:
            return []

    def successors(self, state: tuple) -> list:
        if not state:
            return []
        t = _INTERNED.get(state[0])
        if t is not None:
            return [(t, state[1:])]
        rest = state[1:]
        return [(t, rest) for t in self._matching(state[0])]


def controller_examples(behaviours) -> list:
    """Encode behaviours as controller-learning examples: per behaviour and
    per incoming controller state, the whole behaviour as the suffix still
    to consume, its first controller state replaced, with the empty suffix
    ``()`` as goal."""
    examples = []
    for behaviour in behaviours:
        if not behaviour:
            raise ValueError("behaviour must contain at least one tuple")
        first = behaviour[0][1:]
        rest = tuple(behaviour[1:])
        for q in CONTROLLER_STATES:
            examples.append((((q,) + first,) + rest, ()))
    return examples


def _goal_test(background, goal):
    """The test a reached state passes when it matches the goal: ``==`` when
    the background's ``matches_only_equals`` holds for the goal, else
    ``unifies``."""
    return partial(eq if background.matches_only_equals(goal) else unifies, goal)


def _top_program(initials, goal, background) -> tuple[set, set, set]:
    """The Identity and the Tailrec body symbols of every refutation of the
    goal from the initial states, and the reached states that have one.

    A refutation may re-enter a state, so both are read off reachability:
    a forward pass from every distinct initial state calls
    ``background.successors`` once per reached state and keeps the atoms
    into each; a backward pass over those atoms, from the states that match
    the goal, collects an atom as Identity when it enters such a state and
    as Tailrec when it enters a state that reaches one.  The cost is linear
    in the reached atoms.  A state reaches the goal or not by the states
    reached from it alone, so the result is the union of each initial's.
    """
    successors = background.successors
    # Each reached state's atoms in, as (symbol, source state) pairs; the
    # keys are the reached states.
    atoms_in = {initial: [] for initial in initials}
    reached = list(atoms_in)
    for state in reached:
        for sym, nxt in successors(state):
            into = atoms_in.get(nxt)
            if into is None:
                atoms_in[nxt] = [(sym, state)]
                reached.append(nxt)
            else:
                into.append((sym, state))
    identity = set()
    tailrec = set()
    # States with an atom into a goal state, then every state that reaches one.
    reaching = set()
    for state in filter(_goal_test(background, goal), reached):
        for sym, src in atoms_in[state]:
            identity.add(sym)
            reaching.add(src)
    work = list(reaching)
    for state in work:
        for sym, src in atoms_in[state]:
            tailrec.add(sym)
            if src not in reaching:
                reaching.add(src)
                work.append(src)
    return identity, tailrec, reaching


def prove(initial, goal, background) -> frozenset:
    """Return the metasubstitutions (metarule, body symbol) that the
    refutations of the goal use: the Top program of one example, read off
    one reachability pass.  Returns the empty set when it has none."""
    identity, tailrec, reaching = _top_program((initial,), goal, background)
    if initial not in reaching:
        return frozenset()
    return frozenset([(IDENTITY, sym) for sym in identity] + [(TAILREC, sym) for sym in tailrec])


def learn(examples, background, *, target: str) -> Hypothesis:
    """Learn a hypothesis covering every example.

    The Top program of the examples is the union of each one's, so each
    distinct goal costs one reachability pass seeded with all its initial
    states.  Raises ``UnlearnableError`` naming the first example, in input
    order, that has no refutation; otherwise instantiates the collected
    metasubstitutions into clauses.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("at least one example is required")
    initials_by_goal: dict = {}
    for example in examples:
        initial, goal = ((example.initial, example.goal) if isinstance(example, PlanningProblem)
                         else example)
        initials = initials_by_goal.get(goal)
        if initials is None:
            initials_by_goal[goal] = [initial]
        else:
            initials.append(initial)
    clauses = set()
    reaching_by_goal = {}
    learnable = True
    for goal, initials in initials_by_goal.items():
        identity, tailrec, reaching = _top_program(initials, goal, background)
        reaching_by_goal[goal] = reaching
        clauses.update([_new_tuple(DefiniteClause, (IDENTITY, target, sym)) for sym in identity])
        clauses.update([_new_tuple(DefiniteClause, (TAILREC, target, sym)) for sym in tailrec])
        if not reaching.issuperset(initials):
            learnable = False
    if not learnable:
        for example in examples:
            initial, goal = ((example.initial, example.goal) if isinstance(example, PlanningProblem)
                             else example)
            if initial not in reaching_by_goal[goal]:
                raise UnlearnableError(f"no derivation exists for example {example!r}")
    return Hypothesis.of(clauses, target)


def first_derivation(background, hypothesis: Hypothesis, initial, goal):
    """Depth-first interpretation of the hypothesis over a background.

    Each visited state costs one ``background.successors`` call, split by
    clause: an Identity completion reaching the goal is tried before any
    Tailrec expansion, each in the background's symbol order (the
    hypothesis's canonical clause order).  Visited states are never
    re-entered, so cyclic maps terminate.  Returns the (symbol, next state)
    steps of the first derivation found, chained from ``initial``, or None.

    A reached state matches the goal by ``_goal_test``.
    """
    identity_syms, tailrec_syms = hypothesis.symbol_sets
    successors = background.successors
    goal_matches = _goal_test(background, goal)
    visited = {initial}
    steps: list = []  # the steps into the states of the current derivation
    frames = []  # per state on it, from the initial: an iterator over its untried steps
    state = initial
    while state is not None:
        out = successors(state)
        for step in out:
            if step[0] in identity_syms and goal_matches(step[1]):
                steps.append(step)
                return steps
        frames.append(iter(out))
        # Enter the next unvisited Tailrec step, backtracking past spent frames.
        state = None
        while frames and state is None:
            for step in frames[-1]:
                if step[0] in tailrec_syms and step[1] not in visited:
                    state = step[1]
                    visited.add(state)
                    steps.append(step)
                    break
            else:
                frames.pop()
                if steps:
                    steps.pop()
    return None


def hypothesis_to_tuples(hypothesis: Hypothesis) -> FSC:
    """Project a controller program onto its tuple set: the deduplicated
    ground 4-tuples named by the clause bodies."""
    bodies = [clause.body_symbol for clause in hypothesis.clauses]
    # One C-level pass over the body types; only when some body is not
    # exactly an ``FSCTuple`` does the scan run, to name a non-tuple body.
    if not {FSCTuple}.issuperset(map(type, bodies)):
        for body in bodies:
            if not isinstance(body, FSCTuple):
                raise LearningError(f"clause body {body!r} is not a controller tuple")
    return FSC.of(bodies)
