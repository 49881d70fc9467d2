"""A minimal meta-interpretive learner and the interpreter of its programs.

Second-order resolution over exactly two clause templates — Identity
``P(x,y) :- Q(x,y)`` and Tailrec ``P(x,y) :- Q(x,z), P(z,y)`` — against a
ground background.  Every refutation of a training goal yields
substitutions (template, body symbol); applying them gives the learned
first-order program.

A background is a set of dyadic ground atoms ``symbol(state, next)``, given
as any object with one method over hashable states that have
``matches(goal)``: ``successors(state)`` returns an iterable of (symbol,
next state), one for every atom whose first argument unifies with the
state, in sorted symbol order (the order of ``Hypothesis.ordered``).
``ActionBackground`` (the step actions of a map, read off its tiles) and
``TupleBackground`` (the controller tuples that consume the heads of label
streams, read off those heads; no tuple universe is built) implement it.
Label streams are a NamedTuple; streams of one label each all have the one
shared empty tail, ``EMPTY_STREAMS``, so expanding a one-tuple example
builds no new state, and its tuple is the shared one of ``fsc.interned``.
A background may also define ``matches_only_equals(goal)``, true when the
goal matches exactly its equals among the background's states:
``ActionBackground`` does for goals with no UNKNOWN field, and
``TupleBackground`` for ``EMPTY_STREAMS``.  Both engines then find the goal
by equality: ``first_derivation`` tests states with ``==`` and learning
reads the goal's atoms with one dict lookup.

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
from typing import Iterable, NamedTuple, Sequence

from .fsc import (ACTION_LABELS, CONTROLLER_STATES, FSC, OBSERVATION_LABELS, FSCError, FSCTuple,
                  _INTERNED, interned)
from .model import UNKNOWN, PlanningProblem, _new_tuple, unifies
from .record import FrozenRecord


class Metarule(Enum):
    IDENTITY = "identity"
    TAILREC = "tailrec"

    # Members are singletons; Enum's own hash is a Python-level call.
    __hash__ = object.__hash__


METARULES = (Metarule.IDENTITY, Metarule.TAILREC)


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
            sets = (frozenset(c.body_symbol for c in self.clauses if c.metarule is Metarule.IDENTITY),
                    frozenset(c.body_symbol for c in self.clauses if c.metarule is Metarule.TAILREC))
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
        for n, line in enumerate(text.removeprefix("\ufeff").splitlines()):
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


class LabelStreams(NamedTuple):
    """Resolution state for controller learning: four label streams consumed
    in lockstep, one (q, o, a, q') quadruple per applied tuple.

    A plain NamedTuple, so it hashes and compares in C and equals the plain
    tuple of its streams (no container mixes the two).  Streams of one
    label each have the shared ``EMPTY_STREAMS`` as their tails."""

    q_seq: tuple
    o_seq: tuple
    a_seq: tuple
    q_next_seq: tuple

    def heads(self) -> tuple | None:
        q, o, a, q_next = self
        if q and o and a and q_next:
            return q[0], o[0], a[0], q_next[0]
        return None

    def tails(self) -> "LabelStreams":
        q, o, a, q_next = self
        if len(q) <= 1 and len(o) <= 1 and len(a) <= 1 and len(q_next) <= 1:
            return EMPTY_STREAMS
        return _new_tuple(LabelStreams, (q[1:], o[1:], a[1:], q_next[1:]))

    def matches(self, other: "LabelStreams") -> bool:
        q, o, a, q_next = self
        q2, o2, a2, q_next2 = other
        if len(q) != len(q2) or len(o) != len(o2) or len(a) != len(a2) or len(q_next) != len(q_next2):
            return False
        return (all(map(unifies, q, q2)) and all(map(unifies, o, o2))
                and all(map(unifies, a, a2)) and all(map(unifies, q_next, q_next2)))


EMPTY_STREAMS = LabelStreams((), (), (), ())


def behaviour_goals(behaviour: Sequence[FSCTuple], initial_qs: Iterable[str]) -> list:
    """Encode a behaviour as resolution goals, one per initial controller
    state: initial streams threading its labels, with the first controller
    state replaced, and the empty goal.  The behaviour's streams are read
    once; the goals differ only in the first controller state."""
    if not behaviour:
        raise ValueError("behaviour must contain at least one tuple")
    q_seq, o_seq, a_seq, q_next_seq = zip(*behaviour)
    q_rest = q_seq[1:]
    return [(_new_tuple(LabelStreams, ((q,) + q_rest, o_seq, a_seq, q_next_seq)), EMPTY_STREAMS)
            for q in initial_qs]


class TupleBackground:
    """The controller tuples as a ground background: each well-formed 4-tuple
    is one dyadic symbol that consumes a matching quadruple of stream heads.

    The matching tuples are read off the heads, so no tuple universe is
    built: ground heads name at most one tuple, and an UNKNOWN head ranges
    over its field's alphabet.  Tuples are the shared ones of
    ``fsc.interned``, so heads seen before are not validated again."""

    def __init__(self):
        self._alphabets = (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS, CONTROLLER_STATES)

    @staticmethod
    def matches_only_equals(goal: LabelStreams) -> bool:
        """Whether the goal matches exactly its equals among the states this
        background yields: the tails it yields may hold UNKNOWN labels, so
        only the goal of all-empty streams does."""
        return goal == EMPTY_STREAMS

    def _matching(self, heads: tuple) -> list[FSCTuple]:
        """Every well-formed tuple unifying with the heads, in sorted order."""
        if UNKNOWN not in heads:
            try:
                return [interned(*heads)]
            except FSCError:
                return []
        choices = [alphabet if h is UNKNOWN else (h,)
                   for h, alphabet in zip(heads, self._alphabets)]
        try:
            return sorted(interned(*fields) for fields in product(*choices))
        except FSCError:
            return []

    def successors(self, state: LabelStreams) -> list:
        q, o, a, q_next = state
        if not (q and o and a and q_next):
            return []
        if len(q) == len(o) == len(a) == len(q_next) == 1:
            tails = EMPTY_STREAMS
        else:
            tails = state.tails()
        heads = (q[0], o[0], a[0], q_next[0])
        t = _INTERNED.get(heads)
        if t is not None:
            return [(t, tails)]
        return [(t, tails) for t in self._matching(heads)]


def _matches_only_equals(background, goal) -> bool:
    """Whether the background's ``matches_only_equals`` holds for the goal,
    so a reached state matches it exactly when it equals it.  A background
    without that method never claims so."""
    only_equals = getattr(background, "matches_only_equals", None)
    return only_equals is not None and only_equals(goal)


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

    When the background's ``matches_only_equals`` holds for the goal, the
    goal's atoms in are one dict lookup rather than a ``matches`` test of
    every reached state.  An initial state that no atom enters adds nothing
    either way, so it does not matter whether it is one the background
    yields.
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
    if _matches_only_equals(background, goal):
        goal_atoms = atoms_in.get(goal, [])
    else:
        goal_atoms = [atom for state in reached if state.matches(goal) for atom in atoms_in[state]]
    for sym, src in goal_atoms:
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
    return frozenset([(Metarule.IDENTITY, sym) for sym in identity]
                     + [(Metarule.TAILREC, sym) for sym in tailrec])


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
    pairs = [(example.initial, example.goal) if isinstance(example, PlanningProblem) else example
             for example in examples]
    initials_by_goal: dict = {}
    for initial, goal in pairs:
        initials_by_goal.setdefault(goal, []).append(initial)
    clauses = set()
    reaching_by_goal = {}
    for goal, initials in initials_by_goal.items():
        identity, tailrec, reaching_by_goal[goal] = _top_program(initials, goal, background)
        clauses.update([_new_tuple(DefiniteClause, (Metarule.IDENTITY, target, sym)) for sym in identity])
        clauses.update([_new_tuple(DefiniteClause, (Metarule.TAILREC, target, sym)) for sym in tailrec])
    for example, (initial, goal) in zip(examples, pairs):
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

    A goal for which the background's ``matches_only_equals`` holds is
    tested with ``==``; any other goal with ``goal.matches``.
    """
    identity_syms, tailrec_syms = hypothesis.symbol_sets
    successors = background.successors
    goal_matches = partial(eq, goal) if _matches_only_equals(background, goal) else goal.matches
    visited = {initial}
    steps: list = []  # the steps into the states of the current derivation
    frames = []  # per state on it, from the initial: its untried Tailrec steps
    state = initial
    while state is not None:
        expansions = []
        for step in successors(state):
            sym, nxt = step
            if sym in identity_syms and goal_matches(nxt):
                steps.append(step)
                return steps
            if sym in tailrec_syms:
                expansions.append(step)
        frames.append(iter(expansions))
        # Enter the next unvisited Tailrec step, backtracking past spent frames.
        state = None
        while frames and state is None:
            for step in frames[-1]:
                if step[1] not in visited:
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
    tuples = set()
    for clause in hypothesis.clauses:
        if not isinstance(clause.body_symbol, FSCTuple):
            raise LearningError(
                f"clause body {clause.body_symbol!r} is not a controller tuple"
            )
        tuples.add(clause.body_symbol)
    return FSC.of(tuples)
