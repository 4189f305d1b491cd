import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcrystal import rootsys
from nilcrystal.crystal import (
    CONVENTION,
    datum,
    transition,
    transport,
    weight,
)
from nilcrystal.errors import (
    CapExceeded,
    DifferentWeylElement,
    InvalidMovePosition,
    LengthMismatch,
    NonReducedWord,
)
from nilcrystal.rootsys import a_n

A2 = a_n(2)
A3 = a_n(3)
W121 = (1, 2, 1)


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
    moved = transport(A2, d, (2, 1, 2))
    assert moved.a == (0, 0, 1)


def test_transport_different_element_rejected():
    d = datum(A2, (1, 2), (1, 0))
    with pytest.raises(DifferentWeylElement):
        transport(A2, d, (2, 1))


def test_transport_rejects_a_non_reduced_target():
    # s1 s1 is the identity, so (1, 1, 1, 2, 1) names the element of (1, 2, 1).
    d = datum(A2, W121, (1, 0, 0))
    with pytest.raises(NonReducedWord, match=r"\(1, 1, 1, 2, 1\) is not reduced"):
        transport(A2, d, (1, 1, 1, 2, 1))


def test_transport_that_runs_out_of_braid_moves_names_matsumoto_tits(monkeypatch):
    # Unreachable with sound braid moves; a walk with no moves runs out.
    monkeypatch.setattr(rootsys, "braid_moves", lambda g, w: [])
    with pytest.raises(RuntimeError, match="Matsumoto-Tits") as info:
        transport(A2, datum(A2, W121, (1, 0, 0)), (2, 1, 2))
    assert not isinstance(info.value, CapExceeded)


def test_transport_raises_past_its_cap():
    d = datum(A3, (1, 2, 1, 3, 2, 1), (1, 0, 2, 0, 1, 0))
    target = (3, 2, 3, 1, 2, 3)
    with pytest.raises(CapExceeded, match="cap 1"):
        transport(A3, d, target, cap=1)
    # The longest word has 16 reduced words, so a cap of 16 reaches any of them.
    assert transport(A3, d, target, cap=16).word == target


def test_datum_serialization():
    d = datum(A2, W121, (1, 0, 2))
    data = d.to_dict()
    assert data == {"convention": CONVENTION, "word": [1, 2, 1], "a": [1, 0, 2]}
    assert datum(A2, rootsys.WeylWord(data["word"]), data["a"]) == d


def test_convention_string_mentions_order():
    assert "application-order" in CONVENTION
