import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcrystal import crystal, rootsys
from nilcrystal.crystal import (
    CONVENTION,
    LusztigDatum,
    datum,
    transition,
    transport,
    weight,
)
from nilcrystal.errors import (
    CapExceeded,
    InvalidMovePosition,
    LengthMismatch,
    NonReducedWord,
)
from nilcrystal.fields import RationalField, default_field
from nilcrystal.prepmod import build_filtered, extract_datum
from nilcrystal.rootsys import a_n, d4

A2 = a_n(2)
A3 = a_n(3)
W121 = (1, 2, 1)
A3_LONGEST = (1, 2, 1, 3, 2, 1)
D4_LONGEST = (1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4)


def test_datum_validation():
    d = datum(A2, W121, (1, 0, 2))
    assert d.a == (1, 0, 2)
    with pytest.raises(LengthMismatch):
        datum(A2, W121, (1, 0))
    with pytest.raises(NonReducedWord):
        datum(A2, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        datum(A2, W121, (1, -1, 0))


def test_datum_entries_and_word_letters_must_be_ints():
    # int() would truncate each of these silently.
    for a in ((0.5, 0, 0), (1.0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError, match="must be integers"):
            datum(A2, W121, a)
    for word, a in (([1.9, 2.0, 1], [1, 0, 0]), ([1, 2, 1], [1.7, 0, 0])):
        with pytest.raises(ValueError, match="must be integers"):
            datum(A2, rootsys.WeylWord(word), a)


def test_weight_is_mu():
    d = datum(A2, W121, (1, 1, 1))
    assert weight(A2, d) == (2, 2)


def test_transition_3move_example():
    d = datum(A2, W121, (1, 0, 0))
    d2 = transition(A2, d, 0, "3-move")
    assert d2.word == (2, 1, 2)
    assert d2.a == (0, 0, 1)


def test_transition_2move():
    g = A3
    d = datum(g, (1, 3), (2, 5))
    d2 = transition(g, d, 0, "2-move")
    assert d2.word == (3, 1) and d2.a == (5, 2)


def test_transition_bad_position():
    d = datum(A2, W121, (0, 0, 0))
    with pytest.raises(InvalidMovePosition, match="no 3-move at position 5"):
        transition(A2, d, 5, "3-move")
    with pytest.raises(InvalidMovePosition, match="no 2-move at position 0"):
        transition(A2, d, 0, "2-move")
    with pytest.raises(InvalidMovePosition, match="no 4-move at position 0"):
        transition(A2, d, 0, "4-move")


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)))
def test_3move_involution_and_weight(a):
    d = datum(A2, W121, a)
    d2 = transition(A2, d, 0, "3-move")
    assert weight(A2, d2) == weight(A2, d)
    back = transition(A2, d2, 0, "3-move")
    assert back.a == d.a and back.word == d.word


def test_transport_and_equal():
    d = datum(A2, W121, (1, 0, 0))
    assert transport(A2, d) == {W121: d, (2, 1, 2): LusztigDatum((2, 1, 2), (0, 0, 1))}
    # s1 s2 and s2 s1 are different elements, so neither word carries to the other.
    carried = transport(A2, datum(A2, (1, 2), (1, 0)))
    assert list(carried) == [(1, 2)] and (2, 1) not in carried


def test_transport_raises_past_its_cap():
    d = datum(A3, A3_LONGEST, (1, 0, 2, 0, 1, 0))
    with pytest.raises(CapExceeded, match="cap 15"):
        transport(A3, d, cap=15)
    # The longest word has 16 reduced words, so a cap of 16 reaches all of them.
    assert len(transport(A3, d, cap=16)) == 16


@pytest.mark.parametrize("g, d, words", [
    (A3, datum(A3, A3_LONGEST, (1, 0, 2, 0, 1, 0)), 16),
    (d4(), datum(d4(), D4_LONGEST, (1, 0) * 6), 2316),
], ids=["A3", "D4"])
def test_transport_is_one_walk_carrying_each_parent_by_transition(monkeypatch, g, d, words):
    walks = []

    def recorded(*args):
        walks.append(list(rootsys.braid_walk(*args)))
        return iter(walks[-1])

    monkeypatch.setattr(crystal, "braid_walk", recorded)
    carried = transport(g, d)
    assert len(walks) == 1
    assert len(carried) == len(walks[0]) == words
    for word, parent, move in walks[0]:
        assert carried[word] == (d if parent is None else transition(g, carried[parent], *move))


@pytest.mark.parametrize("fld", [default_field(), RationalField()], ids=["prime", "rat"])
def test_carry_matches_the_module_on_every_word_of_the_a3_longest_element(fld):
    # The paper on the whole class: one sample of a datum's stratum reads, on
    # each reduced word, the datum carried to that word. Its dimension vector
    # is fixed, so this also says that the carry keeps the weight.
    for seed, a in enumerate(itertools.product((0, 1), repeat=6)):
        x = build_filtered(A3, A3_LONGEST, a, random.Random(seed), field=fld)
        carried = transport(A3, datum(A3, A3_LONGEST, a))
        assert len(carried) == 16
        for v, e in carried.items():
            assert extract_datum(A3, v, x) == e.a, (a, v)


def test_carry_matches_the_module_on_every_word_of_the_d4_longest_element():
    g, a = d4(), (1, 0) * 6
    x = build_filtered(g, D4_LONGEST, a, random.Random(0), field=default_field())
    carried = transport(g, datum(g, D4_LONGEST, a))
    assert len(carried) == 2316
    for v, e in carried.items():
        assert extract_datum(g, v, x) == e.a, v


def test_datum_serialization():
    d = datum(A2, W121, (1, 0, 2))
    data = d.to_dict()
    assert data == {"convention": CONVENTION, "word": [1, 2, 1], "a": [1, 0, 2]}
    assert datum(A2, rootsys.WeylWord(data["word"]), data["a"]) == d


def test_convention_string_mentions_order():
    assert "application-order" in CONVENTION
