"""A minimal meta-interpretive learner and the interpreter of its programs.

Second-order resolution over exactly two clause templates — Identity
``P(x,y) :- Q(x,y)`` and Tailrec ``P(x,y) :- Q(x,z), P(z,y)`` — against a
ground background.  Every successful derivation of a training goal yields a
substitution (template, body symbol); applying the substitutions gives the
learned first-order program.

A background is a set of dyadic ground atoms ``symbol(state, next)``, given
as any object with one method over hashable states that have
``matches(goal)``: ``successors(state)`` yields (symbol, next state) for
every atom whose first argument unifies with the state, in sorted symbol
order (the order of ``Hypothesis.ordered``).  ``ActionBackground`` (the
step actions of a map, read off its tiles) and ``TupleBackground`` (the
controller tuples that consume the heads of label streams, read off those
heads; no tuple universe is built) implement it.

Two engines run over it: ``prove`` collects every simple derivation, for
learning; ``first_derivation`` returns the first derivation of a program,
for planning and behaviour generation.  Neither re-enters a state on one
derivation, so both halt without a depth budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .fsc import ACTION_LABELS, CONTROLLER_STATES, FSC, OBSERVATION_LABELS, FSCError, FSCTuple
from .model import UNKNOWN, PlanningProblem, unifies


class Metarule(Enum):
    IDENTITY = "identity"
    TAILREC = "tailrec"


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


@dataclass(frozen=True)
class DefiniteClause:
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


@dataclass(frozen=True)
class Hypothesis:
    """A duplicate-free set of learned clauses for one target predicate."""

    clauses: frozenset[DefiniteClause]
    target: str

    @classmethod
    def of(cls, clauses: Iterable[DefiniteClause], target: str) -> "Hypothesis":
        return cls(frozenset(clauses), target)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self._ordered)

    @cached_property
    def _ordered(self) -> tuple[DefiniteClause, ...]:
        """The canonical clause order, sorted once per hypothesis."""
        return tuple(
            sorted(
                self.clauses,
                key=lambda c: (METARULES.index(c.metarule), _symbol_key(c.body_symbol)),
            )
        )

    def ordered(self) -> tuple[DefiniteClause, ...]:
        """Canonical clause order: Identity instances before Tailrec ones,
        each group sorted by body symbol."""
        return self._ordered

    def body_symbols(self, metarule: Metarule) -> tuple:
        return tuple(c.body_symbol for c in self._ordered if c.metarule is metarule)

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self._ordered) + "\n"

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


class LabelStreams:
    """Resolution state for controller learning: four label streams consumed
    in lockstep, one (q, o, a, q') quadruple per applied tuple.  Treated as
    immutable: the hash is computed once, on construction."""

    __slots__ = ("q_seq", "o_seq", "a_seq", "q_next_seq", "_hash")

    def __init__(self, q_seq: tuple, o_seq: tuple, a_seq: tuple, q_next_seq: tuple):
        self.q_seq = q_seq
        self.o_seq = o_seq
        self.a_seq = a_seq
        self.q_next_seq = q_next_seq
        self._hash = hash((q_seq, o_seq, a_seq, q_next_seq))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not LabelStreams:
            return NotImplemented
        return (self._hash == other._hash
                and self.q_seq == other.q_seq and self.o_seq == other.o_seq
                and self.a_seq == other.a_seq and self.q_next_seq == other.q_next_seq)

    def __repr__(self) -> str:
        return (f"LabelStreams(q_seq={self.q_seq!r}, o_seq={self.o_seq!r}, "
                f"a_seq={self.a_seq!r}, q_next_seq={self.q_next_seq!r})")

    def heads(self) -> tuple | None:
        q, o, a, q_next = self.q_seq, self.o_seq, self.a_seq, self.q_next_seq
        if q and o and a and q_next:
            return q[0], o[0], a[0], q_next[0]
        return None

    def tails(self) -> "LabelStreams":
        return LabelStreams(self.q_seq[1:], self.o_seq[1:], self.a_seq[1:], self.q_next_seq[1:])

    def matches(self, other: "LabelStreams") -> bool:
        if (len(self.q_seq) != len(other.q_seq) or len(self.o_seq) != len(other.o_seq)
                or len(self.a_seq) != len(other.a_seq)
                or len(self.q_next_seq) != len(other.q_next_seq)):
            return False
        return (all(map(unifies, self.q_seq, other.q_seq))
                and all(map(unifies, self.o_seq, other.o_seq))
                and all(map(unifies, self.a_seq, other.a_seq))
                and all(map(unifies, self.q_next_seq, other.q_next_seq)))


EMPTY_STREAMS = LabelStreams((), (), (), ())


def behaviour_goal(behaviour: Sequence[FSCTuple], initial_q: str | None = None):
    """Encode a behaviour as a resolution goal: initial streams threading its
    labels (optionally rebasing the first controller state), empty goal."""
    if not behaviour:
        raise ValueError("behaviour must contain at least one tuple")
    q_seq = tuple(t.q for t in behaviour)
    if initial_q is not None:
        q_seq = (initial_q,) + q_seq[1:]
    initial = LabelStreams(
        q_seq,
        tuple(t.o for t in behaviour),
        tuple(t.a for t in behaviour),
        tuple(t.q_next for t in behaviour),
    )
    return initial, EMPTY_STREAMS


class TupleBackground:
    """The controller tuples as a ground background: each well-formed 4-tuple
    is one dyadic symbol that consumes a matching quadruple of stream heads.

    The matching tuples are read off the heads, so no tuple universe is
    built: ground heads name at most one tuple, and an UNKNOWN head ranges
    over its field's alphabet."""

    def __init__(self):
        self._alphabets = (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS, CONTROLLER_STATES)

    def _matching(self, heads: tuple) -> list[FSCTuple]:
        """Every well-formed tuple unifying with the heads, in sorted order."""
        if UNKNOWN not in heads:
            try:
                return [FSCTuple(*heads)]
            except FSCError:
                return []
        choices = [alphabet if h is UNKNOWN else (h,)
                   for h, alphabet in zip(heads, self._alphabets)]
        try:
            return sorted(FSCTuple(*fields) for fields in product(*choices))
        except FSCError:
            return []

    def successors(self, state: LabelStreams):
        heads = state.heads()
        if heads is None:
            return
        tails = state.tails()
        for t in self._matching(heads):
            yield t, tails


class _Frame:
    __slots__ = ("state", "entered_via", "children", "idx", "success")

    def __init__(self, state, entered_via, children):
        self.state = state
        self.entered_via = entered_via
        self.children = children
        self.idx = 0
        self.success = False


def prove(initial, goal, background) -> frozenset:
    """Enumerate all successful simple derivations of the goal and return the
    metasubstitutions (metarule, body symbol) they use.

    A derivation never revisits a state it already passed through, so every
    derivation is finite and cyclic state graphs terminate.  Returns the
    empty set when the goal is unsatisfiable.

    The cost grows with the number of simple paths, exponentially in the
    map: the generalized example over an open floor takes 0.01 s at 3x3,
    0.44 s at 4x4 and 43 s at 5x5 (on a 2-CPU host).  That is why the
    solver is learned on the 2x2 map.
    """
    metasubs: set[tuple[Metarule, object]] = set()

    def make_frame(state, entered_via) -> _Frame:
        grouped: dict[object, set] = {}
        for sym, nxt in background.successors(state):
            grouped.setdefault(nxt, set()).add(sym)
        frame = _Frame(state, entered_via, list(grouped.items()))
        for nxt, syms in frame.children:
            if nxt.matches(goal):
                metasubs.update((Metarule.IDENTITY, sym) for sym in syms)
                frame.success = True
        return frame

    # A frame's success propagates to every frame beneath it on the stack,
    # so metasubs stays empty unless the root succeeds.
    stack = [make_frame(initial, None)]
    path = {initial}
    while stack:
        top = stack[-1]
        if top.idx < len(top.children):
            nxt, syms = top.children[top.idx]
            top.idx += 1
            if nxt in path:
                continue
            path.add(nxt)
            stack.append(make_frame(nxt, syms))
        else:
            stack.pop()
            path.discard(top.state)
            if top.success and stack:
                metasubs.update((Metarule.TAILREC, sym) for sym in top.entered_via)
                stack[-1].success = True
    return frozenset(metasubs)


def _goal_pair(example):
    if isinstance(example, PlanningProblem):
        return example.initial, example.goal
    initial, goal = example
    return initial, goal


def learn(examples, background, *, target: str) -> Hypothesis:
    """Learn a hypothesis covering every example.

    Collects the metasubstitutions of all successful derivations of each
    example and instantiates them into clauses.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("at least one example is required")
    all_subs: set[tuple[Metarule, object]] = set()
    for example in examples:
        initial, goal = _goal_pair(example)
        subs = prove(initial, goal, background)
        if not subs:
            raise UnlearnableError(f"no derivation exists for example {example!r}")
        all_subs |= subs
    clauses = {DefiniteClause(rule, target, sym) for rule, sym in all_subs}
    return Hypothesis.of(clauses, target)


def first_derivation(background, hypothesis: Hypothesis, initial, goal):
    """Depth-first interpretation of the hypothesis over a background.

    Each visited state costs one ``background.successors`` call, split by
    clause: an Identity completion reaching the goal is tried before any
    Tailrec expansion, each in the background's symbol order (the
    hypothesis's canonical clause order).  Visited states are never
    re-entered, so cyclic maps terminate.  Returns the (symbol, next state)
    steps of the first derivation found, chained from ``initial``, or None.
    """
    identity_syms = set(hypothesis.body_symbols(Metarule.IDENTITY))
    tailrec_syms = set(hypothesis.body_symbols(Metarule.TAILREC))

    def expand(state):
        """(completing step or None, Tailrec step list)."""
        expansions = []
        for step in background.successors(state):
            sym, nxt = step
            if sym in identity_syms and nxt.matches(goal):
                return step, expansions
            if sym in tailrec_syms:
                expansions.append(step)
        return None, expansions

    final, cands = expand(initial)
    if final is not None:
        return [final]
    visited = {initial}
    frames = [[cands, 0]]
    steps: list = []
    while frames:
        cands, idx = frames[-1]
        if idx < len(cands):
            frames[-1][1] += 1
            step = cands[idx]
            nxt = step[1]
            if nxt in visited:
                continue
            visited.add(nxt)
            final, nxt_cands = expand(nxt)
            if final is not None:
                return steps + [step, final]
            steps.append(step)
            frames.append([nxt_cands, 0])
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
