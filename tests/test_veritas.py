import hashlib
import itertools
import json
import random

import pytest

from nilcrystal import veritas
from nilcrystal.errors import NotInGenericStratum
from nilcrystal.fields import RationalField, default_field
from nilcrystal.prepmod import direct_sum, functors, m_module, simple
from nilcrystal.prepmod import module as pmodule
from nilcrystal.rootsys import CartanGraph, a_n, affine_a1, all_reduced_words_upto, braid_moves, d4


def test_derive_seed_deterministic():
    assert veritas.derive_seed(7, "x") == veritas.derive_seed(7, "x")
    assert veritas.derive_seed(7, "x") != veritas.derive_seed(8, "x")
    assert veritas.derive_seed(7, "x") != veritas.derive_seed(7, "y")


def test_cross_witness_presence():
    f = default_field()
    assert veritas.cross_witness(a_n(2), f) is None
    assert veritas.cross_witness(affine_a1(), f) is None
    for g in (a_n(3), d4()):
        w = veritas.cross_witness(g, f)
        assert w is not None
        w.validate()


def test_reflection_contracts_small_pass():
    r = veritas.check_reflection_contracts(a_n(2), 8, random.Random(0))
    assert r.passed
    assert r.details["contracts_checked"] > 0
    assert r.confidence is not None


def test_reflection_contracts_empty_corpus_vacuous():
    r = veritas.check_reflection_contracts(a_n(2), 0, random.Random(0))
    assert r.outcome == "vacuous-pass"


def test_reflection_contracts_mutated_fails_with_witness():
    r = veritas.check_reflection_contracts(a_n(3), 5, random.Random(1), twist=-1)
    assert r.outcome == "fail"
    assert r.witness is not None
    assert r.check_id == "reflection-contracts-mutated"


# Graphs with no vertex fed from two places, so no cross witness: on them
# both sign conventions build valid modules.
NO_WITNESS = {
    "A1": a_n(1),
    "A2": a_n(2),
    "affA1": affine_a1(),
    "Kronecker3": CartanGraph(2, ((1, 2),) * 3),
    "A2+A1": CartanGraph(3, ((1, 2),)),
}


@pytest.mark.parametrize("fld", [default_field(), RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", list(NO_WITNESS.values()), ids=list(NO_WITNESS))
def test_sign_mutation_without_a_witness_is_vacuous(g, fld):
    assert veritas.cross_witness(g, fld) is None
    r = veritas.check_reflection_contracts(g, 5, random.Random(0), fld=fld, twist=-1)
    assert r.check_id == "reflection-contracts-mutated"
    assert r.outcome == "vacuous-pass" and r.confidence is None
    assert r.details == {"warning": "no sign witness on this graph"}


def test_sign_mutation_fails_off_finite_type_and_draws_nothing():
    # Affine A2 has a witness but is not of finite type; the mutation reflects
    # the witness alone, so it draws no corpus.
    g, fld = CartanGraph(3, ((1, 2), (2, 3), (1, 3))), RationalField()
    assert not g.finite_type
    rng = random.Random(5)
    state = rng.getstate()
    r = veritas.check_reflection_contracts(g, 5, rng, fld=fld, twist=-1)
    assert r.outcome == "fail"
    assert r.witness == {
        "kind": "construction",
        "module": veritas.cross_witness(g, fld).to_dict(),
        "extra": "forward reflection at 2 broke relations: relation fails at vertex 1",
    }
    assert r.details == {"contracts_checked": 1}
    assert rng.getstate() == state


def test_modules_small():
    r = veritas.check_modules(a_n(2), 3, rng=random.Random(2),
                              socle_chain_oracle=True)
    assert r.passed
    assert r.details["words_checked"] == 6


def test_cross_model_bound_zero_trivial():
    r = veritas.check_cross_model(a_n(2), (1, 2, 1), 0, 1,
                                random.Random(3))
    assert r.outcome == "pass"
    assert r.details["grid_points"] == 1


def test_transitions_vacuous_without_moves():
    r = veritas.check_transitions(affine_a1(), (1, 2, 1), 1,
                                  random.Random(4))
    assert r.outcome == "vacuous-pass"


def test_replayability():
    def run():
        return veritas.check_cross_model(a_n(2), (1, 2, 1), 1, 2,
                                       random.Random(5))

    r1, r2 = run(), run()
    # Everything except wall time must replay identically.
    assert (r1.outcome, r1.details, r1.witness, r1.params) == (
        r2.outcome, r2.details, r2.witness, r2.params)


def test_write_reports(tmp_path):
    r = veritas.check_reflection_contracts(a_n(2), 3, random.Random(6))
    cp = tmp_path / "r.csv"
    veritas.write_reports([r], str(cp))
    lines = cp.read_text().strip().splitlines()
    assert lines[0] == "check_id,outcome,wall_time" and len(lines) == 2
    assert lines[1].startswith("reflection-contracts,probabilistic-pass,")


def _always_missing(*args, **kwargs):
    raise NotInGenericStratum("forced miss")


def test_cross_model_with_every_sample_missing_is_vacuous(monkeypatch):
    monkeypatch.setattr(veritas, "extract_datum", _always_missing)
    r = veritas.check_cross_model(a_n(2), (1, 2, 1), 1, 1,
                                  random.Random(3))
    assert r.outcome == "vacuous-pass" and not r.witness
    assert r.details["sampling_misses"] == r.details["samples"] == 8
    assert "generic stratum" in r.details["warning"]


def test_transitions_with_every_sample_missing_is_vacuous(monkeypatch):
    r = veritas.check_transitions(a_n(2), (1, 2, 1), 1, random.Random(4))
    assert r.outcome == "probabilistic-pass" and "warning" not in r.details
    monkeypatch.setattr(veritas, "extract_datum", _always_missing)
    r = veritas.check_transitions(a_n(2), (1, 2, 1), 1, random.Random(4))
    assert r.outcome == "vacuous-pass" and not r.witness
    assert r.details["sampling_misses"] == r.details["samples"] == 8
    assert "generic stratum" in r.details["warning"]


def test_cross_model_of_the_empty_word_passes():
    r = veritas.check_cross_model(a_n(2), (), 1, 3, random.Random(3))
    assert r.passed and not r.witness
    assert r.details["grid_points"] == 1 and r.details["samples"] == 3


def _count_builds(monkeypatch):
    builds = []
    real = veritas.build_filtered
    monkeypatch.setattr(veritas, "build_filtered",
                        lambda *a, **k: builds.append(a) or real(*a, **k))
    return builds


def test_transitions_build_each_sample_once_for_all_moves(monkeypatch):
    # Each of the 16 A3 longest words has 2 or 3 braid moves and 64 grid
    # points at bound 1; each sample is read under every neighbour word.
    builds = _count_builds(monkeypatch)
    rng = random.Random(7)
    words = all_reduced_words_upto(a_n(3), 6)[6]
    assert len(words) == 16
    reads = 0
    for w in words:
        r = veritas.check_transitions(a_n(3), w, 1, rng)
        assert r.outcome == "probabilistic-pass" and r.details["sampling_misses"] == 0
        assert r.details["samples"] == r.details["pairs_checked"]
        reads += r.details["samples"]
    assert len(builds) == 16 * 64 == 1024
    assert reads > len(builds)


def test_transitions_count_every_read_of_every_sample(monkeypatch):
    builds = _count_builds(monkeypatch)
    r = veritas.check_transitions(a_n(3), (1, 2, 1, 3, 2, 1), 1,
                                  random.Random(7), samples=3)
    assert r.outcome == "probabilistic-pass" and r.details["sampling_misses"] == 0
    moves = len(braid_moves(a_n(3), (1, 2, 1, 3, 2, 1)))
    assert r.details["pairs_checked"] == 64 * moves
    assert r.details["samples"] == r.details["pairs_checked"] * 3
    assert len(builds) == 64 * 3


def test_cross_model_reflects_each_sample_once_per_letter(monkeypatch):
    # Each read walks the word once, with one backward reflection per
    # letter, except where the residual lives at that letter alone (the
    # zero module too), whose reflection is zero and is not built: 8 grid
    # points, one sample each, 10 reflections of at most 24.
    calls = []
    real = functors._backward
    monkeypatch.setattr(functors, "_backward", lambda *a: calls.append(a) or real(*a))
    r = veritas.check_cross_model(a_n(2), (1, 2, 1), 1, 1, random.Random(3))
    assert r.passed and r.details["sampling_misses"] == 0
    assert len(calls) == 10


@pytest.mark.parametrize("fld", [default_field(), RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4()], ids=["A3", "D4"])
def test_reflection_contracts_reflect_each_module_once_per_vertex(monkeypatch, g, fld):
    # Per corpus module m and vertex i: sigma(i, m), sigma(i, sigma*(i, m)),
    # and the extension x and its quotient once each; per single edge, two
    # reflections on each side of the braid, which starts from sigma(u, m)
    # and sigma(v, m). The modules are kept alive, so no id is reused.
    calls = []
    real = functors._forward

    def counted(i, m):
        calls.append((i, m))
        return real(i, m)

    monkeypatch.setattr(functors, "_forward", counted)
    r = veritas.check_reflection_contracts(g, 5, random.Random(7), fld=fld)
    assert r.outcome == "probabilistic-pass", r.witness
    modules = 5 + 1  # the corpus and the cross witness
    edges = len({frozenset(e) for e in g.edges})
    assert len(calls) == modules * (4 * g.n + 4 * edges)
    keys = [(i, id(m)) for i, m in calls]
    assert len(set(keys)) == len(keys)


def test_contracts_and_the_cokernel_route_build_no_basis_to_count(monkeypatch):
    # Each dimension they read is one rank, or dims alone once a rank has
    # shown a map onto or one-to-one: no kernel or column basis is built in
    # the module layer (the reflections build theirs in functors).
    calls = []
    for name in ("nullspace", "col_basis"):
        real = getattr(pmodule, name)
        monkeypatch.setattr(pmodule, name,
                            lambda m, name=name, real=real: calls.append(name) or real(m))
    r = veritas.check_reflection_contracts(a_n(3), 2, random.Random(7), fld=RationalField())
    assert r.outcome == "probabilistic-pass"
    assert calls == []
    m_module(a_n(3), (1, 2, 1, 3, 2, 1), 6, route="cokernel", rng=random.Random(7))
    assert calls == []


@pytest.mark.parametrize("g, maxlen, words", [(a_n(3), 3, 19), (d4(), 4, 112)],
                         ids=["A3", "D4"])
def test_modules_builds_one_cokernel_layer_per_word(monkeypatch, g, maxlen, words):
    # Layer k of a word is the last layer of its length-k prefix, which is
    # checked as a word of its own, so only each word's last layer is built.
    routes = []
    real = veritas.m_module
    monkeypatch.setattr(veritas, "m_module",
                        lambda *a, **k: routes.append(k["route"]) or real(*a, **k))
    r = veritas.check_modules(g, maxlen, rng=random.Random(2))
    assert r.passed and r.details["words_checked"] == words
    assert routes.count("cokernel") == words


def test_modules_reports_an_injective_past_its_cap():
    r = veritas.check_modules(affine_a1(), 2, socle_chain_oracle=True)
    assert r.outcome == "fail"
    assert r.witness == {
        "kind": "injectives",
        "vertex": 1,
        "error": "graded algebra did not terminate; graph is not of finite type",
    }
    assert r.details == {"words_checked": 0}


# Failure reports, pinned: each test forces one failure through a veritas
# import and fixes the outcome, the whole witness and the counters.


def test_reflection_contracts_report_a_missing_surjection(monkeypatch):
    monkeypatch.setattr(veritas, "find_surjective_hom", lambda *a, **k: None)
    r = veritas.check_reflection_contracts(a_n(3), 2, random.Random(1))
    assert r.outcome == "fail" and r.check_id == "reflection-contracts"
    assert r.witness == {
        "kind": "no-surjection",
        "module": veritas.cross_witness(a_n(3), default_field()).to_dict(),
        "extra": {"vertex": 1},
    }
    assert r.details == {"contracts_checked": 1}
    assert r.confidence is not None


def test_mutated_reflection_report_is_pinned():
    r = veritas.check_reflection_contracts(a_n(3), 5, random.Random(1), twist=-1)
    assert r.outcome == "fail"
    assert r.witness == {
        "kind": "construction",
        "module": veritas.cross_witness(a_n(3), default_field()).to_dict(),
        "extra": "forward reflection at 1 broke relations: relation fails at vertex 2",
    }
    assert r.details == {"contracts_checked": 0}


# sha256 of the canonical JSON of the D4 contract reports over Q at seed 7,
# `wall_time` dropped. D4's branch vertex has three incoming arrows, so its
# assemblies stack more blocks than any A3 vertex does.
D4_CONTRACTS_SHA256 = {
    1: "0cf61de97fb37f01498d667cc2425b4b88c73340c61825dd52c94762a6cc39a6",
    -1: "20f610058bfcca9aaaf1a3ebb458295299955158a47854ac3509f20c75a81980",
}


@pytest.mark.parametrize("twist", list(D4_CONTRACTS_SHA256))
def test_d4_reflection_contract_reports_are_pinned(twist):
    r = veritas.check_reflection_contracts(d4(), 5, random.Random(7), fld=RationalField(),
                                           twist=twist)
    payload = r.to_dict()
    del payload["wall_time"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == D4_CONTRACTS_SHA256[twist]


def test_modules_report_a_nontrivial_top(monkeypatch):
    monkeypatch.setattr(veritas, "top_i_dim", lambda m, i: 1)
    r = veritas.check_modules(a_n(3), 3, rng=random.Random(2))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "nhat-top", "word": [1, 2], "i": 2}
    assert r.details == {"words_checked": 4}
    assert r.confidence is not None


def _miss_at(monkeypatch, full):
    """Make extract_datum miss every read while the grid is at `full`;
    returns the grid points visited so far, the current one last."""
    at = []
    real_datum, real_extract = veritas.datum, veritas.extract_datum

    def datum(g, w, a):
        at.append(tuple(a))
        return real_datum(g, w, a)

    def extract(g, w, x, trace=None):
        if at[-1] == full:
            raise NotInGenericStratum("forced miss")
        return real_extract(g, w, x)

    monkeypatch.setattr(veritas, "datum", datum)
    monkeypatch.setattr(veritas, "extract_datum", extract)
    return at


def test_cross_model_report_a_chain_mismatch(monkeypatch):
    at = _miss_at(monkeypatch, (0, 1, 0))
    real = veritas.extract_datum

    def extract(g, w, x, trace=None):
        got = real(g, w, x)
        return (1, 1, 1) if at[-1] == (1, 0, 1) else got

    monkeypatch.setattr(veritas, "extract_datum", extract)
    r = veritas.check_cross_model(a_n(2), (1, 2, 1), 1, 2, random.Random(3))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "chain-mismatch", "a": [1, 0, 1], "got": (1, 1, 1)}
    assert r.details == {"grid_points": 6, "samples": 11, "sampling_misses": 2,
                         "miss_rate": 2 / 11}
    assert r.confidence is not None


def test_transitions_report_a_cross_model_mismatch(monkeypatch):
    _miss_at(monkeypatch, (0, 0, 1))
    calls = []
    real = veritas.extract_datum

    def extract(g, w, x, trace=None):
        calls.append(w)
        got = real(g, w, x)
        return (9, 9, 9) if len(calls) == 14 else got

    monkeypatch.setattr(veritas, "extract_datum", extract)
    r = veritas.check_transitions(a_n(3), (1, 2, 1), 1, random.Random(4))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "cross-model", "a": [1, 0, 1], "pos": 0,
                         "got": (9, 9, 9)}
    assert r.details == {"pairs_checked": 6, "samples": 6, "sampling_misses": 1}
    assert r.confidence is not None


def test_every_check_that_did_no_work_is_a_vacuous_pass_that_says_why():
    rng = random.Random(0)
    reports = [
        veritas.check_modules(a_n(2), 0),
        veritas.check_modules(a_n(2), -1),
        veritas.check_reflection_contracts(a_n(2), -3, rng),
        veritas.check_reflection_contracts(a_n(3), 0, rng),
        veritas.check_cross_model(a_n(2), (1, 2, 1), 1, 0, rng),
        veritas.check_transitions(a_n(2), (1, 2, 1), 1, rng, samples=0),
        veritas.check_transitions(affine_a1(), (1, 2, 1), 1, rng),
    ]
    for r in reports:
        assert r.outcome == "vacuous-pass" and r.passed and not r.witness
        assert r.details["warning"]
    assert reports[0].details == {"words_checked": 0,
                                  "warning": "nothing was checked: words_checked is 0"}
    assert reports[2].details == reports[3].details == {"warning": "empty corpus"}
    assert reports[4].details == {"grid_points": 8, "samples": 0, "sampling_misses": 0,
                                  "miss_rate": 0.0,
                                  "warning": "nothing was sampled: samples is 0"}
    assert reports[4].confidence is None
    assert reports[5].details == {"pairs_checked": 8, "samples": 0, "sampling_misses": 0,
                                  "warning": "nothing was sampled: samples is 0"}
    assert reports[5].confidence is None


def test_modules_checks_n_dims_off_finite_type(monkeypatch):
    # C . dim N = lam - w lam holds on every symmetric Kac-Moody type.
    tilde_a2 = CartanGraph(3, ((1, 2), (2, 3), (1, 3)))
    k4 = CartanGraph(4, tuple(itertools.combinations(range(1, 5), 2)))
    for g, maxlen in ((affine_a1(), 6), (tilde_a2, 5), (k4, 4)):
        assert veritas.check_modules(g, maxlen, rng=random.Random(7)).passed
    # A quotient-family module with one extra simple fails the law first.
    real = veritas.n_module
    monkeypatch.setattr(veritas, "n_module", lambda g, w, lam, fld: direct_sum(
        real(g, w, lam, fld), simple(g, 1, field=fld)))
    r = veritas.check_modules(affine_a1(), 2, rng=random.Random(7))
    assert r.witness["kind"] == "n-dims"
