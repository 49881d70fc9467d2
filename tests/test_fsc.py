from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from itertools import product

import pytest

from gridnav import (
    ACTION_LABELS,
    CONTROLLER_STATES,
    Coord,
    DIRECTIONS,
    FSC,
    FSCError,
    FSCTuple,
    MapError,
    OBSERVATION_LABELS,
    STATE_FOR_ACTION,
    fixture_map,
    generate_lake,
    map_fixture_names,
    observe,
    observation_matrices,
    parse_map,
    reverse_pair,
    zero_map,
)
from gridnav.fsc import _INTERNED, interned


# The characters other than LF at which ``str.splitlines`` breaks a line.
# A line of map, controller or solver text ends only at LF (or CRLF), so
# each of these stays inside its line.
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029\r"


def tuple_universe() -> frozenset[FSCTuple]:
    """All 960 well-formed controller tuples."""
    alphabets = (CONTROLLER_STATES, OBSERVATION_LABELS, ACTION_LABELS, CONTROLLER_STATES)
    return frozenset(FSCTuple(*fields) for fields in product(*alphabets))


def is_chained(steps) -> bool:
    """True when each (q, o, a, q') step's next state is its successor's state."""
    return all(a[3] == b[0] for a, b in zip(steps, steps[1:]))


class TestAlphabets:
    def test_sizes(self):
        assert len(CONTROLLER_STATES) == 4
        assert len(ACTION_LABELS) == 4
        assert len(OBSERVATION_LABELS) == 15

    def test_all_unpassable_label_excluded(self):
        assert "uuuu" not in OBSERVATION_LABELS
        assert all(len(o) == 4 and set(o) <= {"u", "p"} for o in OBSERVATION_LABELS)

    def test_state_for_action(self):
        assert STATE_FOR_ACTION == {"up": "q0", "right": "q1", "down": "q2", "left": "q3"}


def reference_observe(grid, pos):
    """The observation label by its definition, one passability test per
    neighbor."""
    return "".join("p" if grid.passable(pos.shifted(d)) else "u" for d in DIRECTIONS)


def reference_lookup(fsc, q, o):
    """Lookup pairs by their definition: scan every tuple, then sort by
    action and next state in alphabet order."""
    pairs = [(t.a, t.q_next) for t in fsc.tuples if t.q == q and t.o == o]
    pairs.sort(key=lambda p: (ACTION_LABELS.index(p[0]), CONTROLLER_STATES.index(p[1])))
    return tuple(pairs)


class TestObserve:
    def test_zero_map_corner(self):
        assert observe(zero_map(), Coord(0, 0)) == "ppuu"

    def test_corridor_cell(self):
        grid = parse_map("sfe", "corridor")
        assert observe(grid, Coord(1, 0)) == "upup"

    def test_matrix_centers_realize_their_labels(self):
        for matrix in observation_matrices():
            label = matrix.id.removeprefix("obs_")
            assert observe(matrix, Coord(1, 1)) == label

    def test_out_of_bounds(self):
        for pos in (Coord(5, 5), Coord(-1, 0), Coord(0, -1), Coord(2, 0)):
            with pytest.raises(MapError, match="out of bounds"):
                observe(zero_map(), pos)

    def test_equals_reference_on_every_passable_cell(self):
        grids = [zero_map(), generate_lake(21, 21, seed=4)]
        grids += [fixture_map(name) for name in map_fixture_names()]
        for grid in grids:
            for cell in grid.passable_cells():
                assert observe(grid, cell) == reference_observe(grid, cell), (grid.id, cell)

    def test_unpassable_position(self):
        grid = parse_map("sw\nfe", "tiny")
        with pytest.raises(MapError, match="unpassable"):
            observe(grid, Coord(1, 1))


class TestLookup:
    def test_single_pair(self, controller_a):
        assert controller_a.lookup("q0", "upuu") == (("right", "q1"),)

    def test_missing_pair_is_empty(self, controller_a):
        assert controller_a.lookup("q3", "pppp") == ()

    def test_learned_controller_four_choices(self, learned_controller):
        pairs = learned_controller.lookup("q0", "pppp")
        assert pairs == (("up", "q0"), ("right", "q1"), ("down", "q2"), ("left", "q3"))

    def test_index_equals_scan(self, learned_controller, controller_a, controller_b):
        rng = random.Random(7)
        nondeterministic = FSC.of(rng.sample(sorted(tuple_universe()), 200))
        assert not nondeterministic.is_deterministic()
        for fsc in (learned_controller, controller_a, controller_b, nondeterministic):
            for q in CONTROLLER_STATES:
                for o in OBSERVATION_LABELS:
                    assert fsc.lookup(q, o) == reference_lookup(fsc, q, o), (q, o)
        assert nondeterministic.lookup("q9", "zzzz") == ()

    def test_example_controllers_are_deterministic(self, controller_a, controller_b):
        assert controller_a.is_deterministic()
        assert controller_b.is_deterministic()

    def test_learned_controller_is_nondeterministic(self, learned_controller):
        assert not learned_controller.is_deterministic()


class TestReversePair:
    def test_up_reverses_to_down(self):
        assert reverse_pair("up", "q0") == ("down", "q2")

    def test_left_reverses_to_right(self):
        assert reverse_pair("left", "q3") == ("right", "q1")

    def test_involution_on_canonical_pairs(self):
        for action in ACTION_LABELS:
            pair = (action, STATE_FOR_ACTION[action])
            assert reverse_pair(*reverse_pair(*pair)) == pair

    def test_unknown_action(self):
        with pytest.raises(FSCError):
            reverse_pair("jump", "q0")


class TestTupleValidation:
    def test_universe_containment(self, learned_controller):
        assert learned_controller.tuples <= tuple_universe()

    def test_bad_labels_rejected(self):
        with pytest.raises(FSCError):
            FSCTuple("q9", "upuu", "right", "q1")
        with pytest.raises(FSCError):
            FSCTuple("q0", "uuuu", "right", "q1")
        with pytest.raises(FSCError):
            FSCTuple("q0", "upuu", "jump", "q1")


class TestInternTable:
    def test_equal_fields_give_the_identical_tuple(self):
        t = interned("q0", "pupu", "up", "q0")
        # Equal labels that are not the same string objects.
        fresh = ["".join(label) for label in (["q", "0"], ["pu", "pu"], ["u", "p"], ["q", "0"])]
        assert fresh[1] is not t.o
        assert interned(*fresh) is t
        assert type(t) is FSCTuple and t == FSCTuple("q0", "pupu", "up", "q0")
        assert _INTERNED[("q0", "pupu", "up", "q0")] is t

    @pytest.mark.parametrize("fields", [
        ("q9", "upuu", "right", "q1"),
        ("q0", "uuuu", "right", "q1"),
        ("q0", "upuu", "jump", "q1"),
        ("q0", "upuu", "right", "q4"),
    ])
    def test_malformed_fields_raise_and_are_not_stored(self, fields):
        before = dict(_INTERNED)
        for _ in range(2):
            with pytest.raises(FSCError):
                interned(*fields)
        assert fields not in _INTERNED
        assert _INTERNED == before

    def test_the_table_holds_at_most_the_universe(self):
        universe = tuple_universe()
        for t in universe:
            assert interned(*t) == t
        assert set(_INTERNED) == universe and len(_INTERNED) == 960
        assert all(type(t) is FSCTuple and key == t for key, t in _INTERNED.items())


@dataclasses.dataclass(frozen=True, order=True)
class ReferenceTuple:
    """What ``FSCTuple`` was: a frozen ordered dataclass over the fields."""

    q: str
    o: str
    a: str
    q_next: str


def as_reference(t: FSCTuple) -> ReferenceTuple:
    return ReferenceTuple(t.q, t.o, t.a, t.q_next)


class TestTupleValueSemantics:
    """``FSCTuple`` behaves as the frozen ordered dataclass it replaces, over
    the whole 960-tuple universe."""

    def test_fields_repr_and_hash(self):
        for t in tuple_universe():
            ref = as_reference(t)
            assert (t.q, t.o, t.a, t.q_next) == (ref.q, ref.o, ref.a, ref.q_next)
            assert repr(t) == repr(ref).replace("ReferenceTuple", "FSCTuple")
            assert hash(t) == hash(ref)
            assert t.as_line() == f"{ref.q},{ref.o},{ref.a},{ref.q_next}"

    def test_equality_and_ordering_match_the_dataclass(self):
        universe = list(tuple_universe())
        random.Random(3).shuffle(universe)
        assert [as_reference(t) for t in sorted(universe)] == sorted(map(as_reference, universe))
        rng = random.Random(4)
        pairs = [(t, t) for t in universe] + [(t, copy.copy(t)) for t in universe]
        pairs += [(rng.choice(universe), rng.choice(universe)) for _ in range(5000)]
        for x, y in pairs:
            rx, ry = as_reference(x), as_reference(y)
            assert (x == y, x != y) == (rx == ry, rx != ry)
            assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)

    def test_equals_its_plain_tuple(self):
        # The one difference from the dataclass: a NamedTuple equals, hashes
        # and orders as the plain tuple of its fields.
        t = FSCTuple("q0", "upuu", "right", "q1")
        plain = ("q0", "upuu", "right", "q1")
        assert t == plain and plain == t
        assert not (t != plain) and not (plain != t)
        assert len({t, plain}) == 1
        assert t <= plain and plain >= t and not t < plain
        assert t < ("q0", "upuu", "right", "q2")
        with pytest.raises(TypeError):
            t > 0

    def test_constructors_validate(self):
        t = FSCTuple("q0", "upuu", "right", "q1")
        assert t._replace(a="up") == FSCTuple("q0", "upuu", "up", "q1")
        assert type(FSCTuple._make(t)) is FSCTuple
        with pytest.raises(FSCError, match="bad action label in 'q0,upuu,jump,q1'"):
            t._replace(a="jump")
        with pytest.raises(FSCError, match="bad controller state"):
            FSCTuple._make(("q9", "upuu", "right", "q1"))

    def test_immutable_and_picklable(self):
        t = FSCTuple("q0", "upuu", "right", "q1")
        with pytest.raises(AttributeError):
            t.q = "q1"
        assert pickle.loads(pickle.dumps(t)) == t
        assert type(copy.deepcopy(t)) is FSCTuple

    @pytest.mark.parametrize("fields, message", [
        (("q9", "upuu", "right", "q1"), "bad controller state in 'q9,upuu,right,q1'"),
        (("q0", "upuu", "right", "q9"), "bad controller state in 'q0,upuu,right,q9'"),
        (("q0", "uuuu", "right", "q1"), "bad observation label in 'q0,uuuu,right,q1'"),
        (("q0", "upuu", "jump", "q1"), "bad action label in 'q0,upuu,jump,q1'"),
    ])
    def test_validation_messages(self, fields, message):
        with pytest.raises(FSCError) as raised:
            FSCTuple(*fields)
        assert str(raised.value) == message


class TestControllerFiles:
    def test_round_trip(self, learned_controller):
        assert FSC.from_text(learned_controller.to_text()) == learned_controller

    def test_duplicate_lines_rejected(self):
        with pytest.raises(FSCError, match="duplicate"):
            FSC.from_text("q0,upuu,right,q1\nq0,upuu,right,q1\n")

    def test_duplicate_message_names_the_later_line(self):
        text = "# header\nq0,upuu,right,q1\nq1,pppp,up,q0\n q0,upuu,right,q1 \n"
        with pytest.raises(FSCError, match=r"^line 3: duplicate tuple 'q0,upuu,right,q1'$"):
            FSC.from_text(text)

    def test_universe_round_trips(self):
        universe = FSC(tuple_universe())
        text = universe.to_text()
        assert len(text.splitlines()) == 960
        assert FSC.from_text(text) == universe
        with pytest.raises(FSCError, match=r"^line 960: duplicate tuple"):
            FSC.from_text(text + text.splitlines()[0] + "\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(FSCError):
            FSC.from_text("q0,upuu,right\n")

    def test_comments_and_blanks_ignored(self):
        fsc = FSC.from_text("# header\n\nq0,upuu,right,q1\n")
        assert len(fsc.tuples) == 1

    def test_bom_and_crlf_read_as_plain_lf(self, learned_controller):
        text = learned_controller.to_text()
        assert FSC.from_text("\ufeff" + text.replace("\n", "\r\n")) == learned_controller

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_only_lf_ends_a_line(self, sep):
        with pytest.raises(FSCError, match="^line 0: expected q,o,a,q'"):
            FSC.from_text(f"q0,pppp,up,q0{sep}q1,pppp,up,q0\n")

