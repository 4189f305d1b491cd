import itertools
import json

import pytest

from nilcrystal.errors import CapExceeded, NonReducedWord
from nilcrystal.rootsys import (
    CartanGraph,
    WeylWord,
    a_n,
    affine_a1,
    all_reduced_words_upto,
    apply_word_to_weight,
    beta_sequence,
    braid_moves,
    braid_walk,
    d4,
    is_reduced,
    mu,
    reduced_words,
    reflect_root,
    reflect_weight,
    require_reduced,
    unit,
)


def test_a2_cartan():
    g = a_n(2)
    assert [list(r) for r in g.cartan()] == [[2, -1], [-1, 2]]


def test_affine_a1_cartan():
    g = affine_a1()
    assert [list(r) for r in g.cartan()] == [[2, -2], [-2, 2]]


def _e(n):
    # Bourbaki labels: the chain 1 - 3 - 4 - ... - n, with 2 joined to 4.
    return CartanGraph(n, ((1, 3), (3, 4), (2, 4)) + tuple((i, i + 1) for i in range(4, n)))


def test_finite_type_table(monkeypatch):
    dynkin = [a_n(k) for k in range(1, 6)] + [
        d4(), CartanGraph(5, ((1, 2), (2, 3), (3, 4), (3, 5))), _e(6), _e(7), _e(8)]
    k4 = CartanGraph(4, tuple(itertools.combinations(range(1, 5), 2)))
    # K4's Cartan matrix 3I - J is invertible (eigenvalues 3, 3, 3, -1) but indefinite.
    others = [affine_a1(), CartanGraph(3, ((1, 2), (2, 3), (1, 3))), k4,
              CartanGraph(5, ((1, 5), (2, 5), (3, 5), (4, 5)))]
    assert [g.finite_type for g in dynkin] == [True] * 10
    assert [g.finite_type for g in others] == [False] * 4
    # Computed once per graph.
    calls = []
    real = CartanGraph.cartan
    monkeypatch.setattr(CartanGraph, "cartan", lambda g: calls.append(g) or real(g))
    g = a_n(4)
    assert g.finite_type and g.finite_type
    assert calls == [g]


def test_d4_shape():
    g = d4()
    assert g.n == 4
    assert g.edge_count(1, 2) == 1
    assert g.edge_count(2, 3) == 1
    assert g.edge_count(2, 4) == 1
    assert g.edge_count(1, 3) == 0


def test_graph_roundtrip(tmp_path):
    g = d4()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_dict()))
    assert CartanGraph.from_file(str(path)) == g


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        CartanGraph(2, ((1, 1),))


def test_simple_reflection_on_root():
    g = a_n(2)
    assert reflect_root(g, 1, unit(2, 1)) == (-1, 0)
    assert reflect_root(g, 1, unit(2, 2)) == (1, 1)


def test_simple_reflection_on_weight():
    g = a_n(2)
    lam = unit(2, 1)
    assert reflect_weight(g, 1, lam) == (-1, 1)
    assert reflect_weight(g, 2, lam) == lam


def test_beta_sequence_a2():
    g = a_n(2)
    betas = beta_sequence(g, (1, 2, 1))
    assert betas == [(1, 0), (1, 1), (0, 1)]


def test_non_reduced_raises():
    g = a_n(2)
    with pytest.raises(NonReducedWord):
        beta_sequence(g, (1, 1))
    assert not is_reduced(g, (1, 2, 1, 2))


def test_require_reduced_asks_rootsys_is_reduced_each_time(monkeypatch):
    # bench/layers.py counts is_reduced by rebinding the name in each module
    # that holds it, so the guard must look it up in rootsys at every call.
    from nilcrystal import rootsys

    calls, orig = [], rootsys.is_reduced
    monkeypatch.setattr(rootsys, "is_reduced", lambda g, w: calls.append(w) or orig(g, w))
    g = a_n(2)
    require_reduced(g, (1, 2, 1))
    with pytest.raises(NonReducedWord, match=r"^word \(1, 2, 1, 2\) is not reduced$"):
        require_reduced(g, (1, 2, 1, 2))
    assert calls == [(1, 2, 1), (1, 2, 1, 2)]


def test_affine_word_reduced():
    # Infinite Weyl group: alternating words never shorten.
    g = affine_a1()
    assert is_reduced(g, (1, 2, 1, 2, 1, 2))


def test_mu_a2():
    g = a_n(2)
    assert mu(g, (1, 2, 1), (1, 1, 1)) == (2, 2)
    assert mu(g, (1, 2, 1), (0, 0, 0)) == (0, 0)


def test_braid_moves_a2():
    g = a_n(2)
    moves = braid_moves(g, (1, 2, 1))
    assert len(moves) == 1
    pos, kind, moved = moves[0]
    assert (pos, kind) == (0, "3-move")
    assert moved == (2, 1, 2)


def test_braid_moves_disjoint_letters():
    g = a_n(3)
    moves = braid_moves(g, (1, 3))
    assert moves == [(0, "2-move", (3, 1))]


def test_word_letters_must_be_ints():
    # int() would truncate each of these silently.
    assert WeylWord([1, 2, 1]) == (1, 2, 1) and WeylWord() == ()
    for letters in ((1.9, 2.2, True), (1, 2.0), (True,)):
        with pytest.raises(ValueError, match="must be integers"):
            WeylWord(letters)


def test_braid_walk_a2():
    assert list(braid_walk(a_n(2), (1, 2, 1))) == [
        ((1, 2, 1), None, None), ((2, 1, 2), (1, 2, 1), (0, "3-move"))]


def test_braid_walk_reaches_each_word_by_its_move():
    g = a_n(3)
    w0 = (1, 2, 1, 3, 2, 1)
    walk = list(braid_walk(g, w0))
    assert walk[0] == (w0, None, None)
    assert len({w for w, _, _ in walk}) == len(walk) == 16
    seen = {w0}
    for word, parent, move in walk[1:]:
        # Each parent is yielded before its children, and its move gives the word.
        assert parent in seen
        assert (*move, word) in braid_moves(g, parent)
        seen.add(word)
    # The cap counts the words seen, not the words yielded.
    assert len(list(braid_walk(g, w0, cap=16))) == 16
    with pytest.raises(CapExceeded, match="cap 15"):
        list(braid_walk(g, w0, cap=15))


def test_reduced_words_closure_a2():
    g = a_n(2)
    words = reduced_words(g, (1, 2, 1))
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_reduced_words_closure_a3_longest():
    g = a_n(3)
    w0 = all_reduced_words_upto(g, 6)[6][0]
    assert len(reduced_words(g, w0)) == 16


def test_reduced_words_cap():
    g = a_n(3)
    w0 = all_reduced_words_upto(g, 6)[6][0]
    with pytest.raises(CapExceeded):
        reduced_words(g, w0, cap=3)


def test_word_counts_a3():
    by_len = all_reduced_words_upto(a_n(3), 6)
    assert len(by_len[1]) == 3
    assert len(by_len[6]) == 16  # the longest element's words


def test_apply_word_matches_stepwise():
    # The Cartan matrix maps the root basis into the weight basis and
    # commutes with each reflection, so the word acts alike on both sides.
    g = d4()
    w = (1, 2, 3, 2)
    v = (1, 0, 2, 1)  # every letter of w moves it
    step = v
    for i in w:
        step = reflect_root(g, i, step)
    as_weight = tuple(sum(r[j] * v[j] for j in range(4)) for r in g.cartan())
    want = tuple(sum(r[j] * step[j] for j in range(4)) for r in g.cartan())
    assert apply_word_to_weight(g, w, as_weight) == want


def test_weight_application_order():
    # letters[0] acts first; compare against explicit composition.
    g = a_n(2)
    lam = unit(2, 2)
    w = (1, 2)
    expect = reflect_weight(g, 2, reflect_weight(g, 1, lam))
    assert apply_word_to_weight(g, w, lam) == expect
