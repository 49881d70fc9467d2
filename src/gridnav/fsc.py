"""Nondeterministic finite state controllers over fixed label alphabets.

A controller is a set of 4-tuples (q, o, a, q') mapping a controller state
and an observation to an action and a next controller state.  Controllers
carry no map knowledge: they exchange only labels with whatever runs them.
An ``FSCTuple`` equals the plain tuple of its labels, which is safe because
no container in the package mixes the two.
"""

from __future__ import annotations

from itertools import groupby, product
from operator import itemgetter
from typing import Iterable, NamedTuple

from .grid import DIRECTIONS, OPPOSITE, PASSABLE_TILES, Coord, GridMap, MapError, blocked, text_lines
from .record import FrozenRecord

CONTROLLER_STATES = ("q0", "q1", "q2", "q3")
ACTION_LABELS = DIRECTIONS
# Every p/u label, indexed by its ``grid.blocked`` mask: ``u`` marks a blocked
# side.  ``observe`` returns these strings, so every observation of one label
# is the one shared string.  All 16 can cross the controller boundary;
# ``uuuu`` (a cell with no passable neighbour) is the last, and the 15 others
# are the controller's observation alphabet.
_LABELS = tuple("".join(chars) for chars in product("pu", repeat=4))
OBSERVATION_LABELS = _LABELS[:-1]

# Controller state reached after taking each action ("last action" indexing).
STATE_FOR_ACTION = dict(zip(ACTION_LABELS, CONTROLLER_STATES))

_Q_INDEX = {q: i for i, q in enumerate(CONTROLLER_STATES)}
_A_INDEX = {a: i for i, a in enumerate(ACTION_LABELS)}
_O_SET = frozenset(OBSERVATION_LABELS)


class FSCError(ValueError):
    """Raised for labels outside the alphabets or malformed controller files."""


def observe(grid: GridMap, pos: Coord) -> str:
    """Observation label at ``pos``: one character per direction (up, right,
    down, left), ``p`` if that neighbor is passable and ``u`` otherwise.
    Off-map neighbors read as unpassable: the label is the planner's neighbour
    rule, ``grid.blocked``.  A cell with no passable neighbor observes
    ``uuuu``, which is in no controller's alphabet."""
    x, y = pos
    if not (0 <= x < grid.width and 0 <= y < grid.height):
        raise MapError(f"map {grid.id!r}: observation position {pos!r} out of bounds")
    if grid.tiles[y][x] not in PASSABLE_TILES:
        raise MapError(f"map {grid.id!r}: observation position {pos!r} is unpassable")
    return _LABELS[blocked(grid, x, y)]


_Labels = NamedTuple("_Labels", [("q", str), ("o", str), ("a", str), ("q_next", str)])


class FSCTuple(_Labels):
    """One controller tuple (q, o, a, q'), validated on construction.

    Repr, hash, field order and ordering are those of the frozen ordered
    dataclass it replaces; pickling, copying and ``_replace`` validate too.
    It also equals the plain tuple of its labels.  That is safe: equal
    values hash alike, and controllers and clause bodies hold only
    ``FSCTuple``s, so no set or dict mixes the two kinds.
    """

    __slots__ = ()

    def __new__(cls, q: str, o: str, a: str, q_next: str) -> "FSCTuple":
        self = tuple.__new__(cls, (q, o, a, q_next))
        if q not in _Q_INDEX or q_next not in _Q_INDEX:
            raise FSCError(f"bad controller state in {self.as_line()!r}")
        if o not in _O_SET:
            raise FSCError(f"bad observation label in {self.as_line()!r}")
        if a not in _A_INDEX:
            raise FSCError(f"bad action label in {self.as_line()!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "FSCTuple":
        return cls(*iterable)

    def as_line(self) -> str:
        return "%s,%s,%s,%s" % self


# Each validated tuple, keyed by the plain tuple of its labels (equal and
# hashing alike): at most 4 * 15 * 4 * 4 = 960 entries.  Malformed labels
# raise in ``FSCTuple`` before anything is stored.
_INTERNED: dict[tuple, FSCTuple] = {}


def interned(q: str, o: str, a: str, q_next: str) -> FSCTuple:
    """The one shared ``FSCTuple`` of these labels, validated on first use."""
    labels = (q, o, a, q_next)
    t = _INTERNED.get(labels)
    if t is None:
        t = _INTERNED[labels] = FSCTuple(q, o, a, q_next)
    return t


class FSC(FrozenRecord):
    """A set of controller tuples; nondeterministic when some (q, o) pair
    admits more than one (a, q') choice."""

    __slots__ = ("tuples", "_pairs")
    _fields = ("tuples",)

    def __init__(self, tuples: frozenset[FSCTuple]) -> None:
        object.__setattr__(self, "tuples", tuples)
        object.__setattr__(self, "_pairs", None)

    @classmethod
    def of(cls, tuples: Iterable[FSCTuple]) -> "FSC":
        return cls(frozenset(tuples))

    def lookup(self, q: str, o: str) -> tuple[tuple[str, str], ...]:
        """All (action, next state) pairs for (q, o), in a fixed order:
        actions up/right/down/left first, ties broken by next state."""
        pairs = self._pairs
        if pairs is None:
            pairs = self._index_pairs()
        return pairs.get((q, o), ())

    def _index_pairs(self) -> dict[tuple[str, str], tuple[tuple[str, str], ...]]:
        """The lookup pairs of every (q, o) key the tuples name, grouped off
        ``ordered()``, which lists each key's pairs in lookup order; built on
        first use, so controllers that are only learned or printed never pay
        for it."""
        pairs = {key: tuple(t[2:] for t in group)
                 for key, group in groupby(self.ordered(), itemgetter(0, 1))}
        object.__setattr__(self, "_pairs", pairs)
        return pairs

    def is_deterministic(self) -> bool:
        """True when no (q, o) key has more than one lookup pair."""
        pairs = self._pairs
        if pairs is None:
            pairs = self._index_pairs()
        return all(len(group) == 1 for group in pairs.values())

    def ordered(self) -> tuple[FSCTuple, ...]:
        return tuple(sorted(self.tuples, key=lambda t: (_Q_INDEX[t.q], t.o, _A_INDEX[t.a], _Q_INDEX[t.q_next])))

    def to_text(self) -> str:
        return "\n".join(t.as_line() for t in self.ordered()) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FSC":
        tuples: set[FSCTuple] = set()
        for n, line in enumerate(text_lines(text)):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FSCError(f"line {n}: expected q,o,a,q' but got {line!r}")
            t = FSCTuple(*parts)
            if t in tuples:
                raise FSCError(f"line {n}: duplicate tuple {line!r}")
            tuples.add(t)
        return cls.of(tuples)


def reverse_pair(a: str, q_next: str) -> tuple[str, str]:
    """Reverse of an (action, next state) decision: the opposite action,
    paired with that action's own controller state."""
    if a not in OPPOSITE:
        raise FSCError(f"action {a!r} has no reverse")
    rev = OPPOSITE[a]
    return rev, STATE_FOR_ACTION[rev]

