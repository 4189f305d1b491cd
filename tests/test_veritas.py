import json
import random

from nilcrystal import veritas
from nilcrystal.errors import NotInGenericStratum
from nilcrystal.fields import default_field
from nilcrystal.rootsys import WeylWord, a_n, affine_a1, d4


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


def test_modules_small():
    r = veritas.check_modules(a_n(2), 3, rng=random.Random(2),
                              socle_chain_oracle=True)
    assert r.passed
    assert r.details["words_checked"] == 6


def test_cross_model_bound_zero_trivial():
    r = veritas.check_cross_model(a_n(2), WeylWord((1, 2, 1)), 0, 1,
                                random.Random(3))
    assert r.outcome == "pass"
    assert r.details["grid_points"] == 1


def test_transitions_vacuous_without_moves():
    r = veritas.check_transitions(affine_a1(), WeylWord((1, 2, 1)), 1,
                                  random.Random(4))
    assert r.outcome == "vacuous-pass"


def test_replayability():
    def run():
        return veritas.check_cross_model(a_n(2), WeylWord((1, 2, 1)), 1, 2,
                                       random.Random(5))

    r1, r2 = run(), run()
    # Everything except wall time must replay identically.
    assert (r1.outcome, r1.details, r1.witness, r1.params) == (
        r2.outcome, r2.details, r2.witness, r2.params)


def test_write_reports(tmp_path):
    r = veritas.check_reflection_contracts(a_n(2), 3, random.Random(6))
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    veritas.write_reports([r], json_path=str(jp), csv_path=str(cp))
    data = json.loads(jp.read_text())
    assert data[0]["check_id"] == "reflection-contracts"
    lines = cp.read_text().strip().splitlines()
    assert lines[0].startswith("check_id") and len(lines) == 2
    assert veritas.all_pass([r])


def test_cartan_invertible():
    assert not veritas._cartan_invertible(affine_a1())
    assert veritas._cartan_invertible(a_n(3))
    assert veritas._cartan_invertible(d4())


def _always_missing(*args, **kwargs):
    raise NotInGenericStratum("forced miss")


def test_cross_model_with_every_sample_missing_is_vacuous(monkeypatch):
    monkeypatch.setattr(veritas, "extract_datum", _always_missing)
    r = veritas.check_cross_model(a_n(2), WeylWord((1, 2, 1)), 1, 1,
                                  random.Random(3))
    assert r.outcome == "vacuous-pass" and not r.witness
    assert r.details["sampling_misses"] == r.details["samples"] == 8
    assert "generic stratum" in r.details["warning"]


def test_transitions_with_every_sample_missing_is_vacuous(monkeypatch):
    r = veritas.check_transitions(a_n(2), WeylWord((1, 2, 1)), 1, random.Random(4))
    assert r.outcome == "probabilistic-pass" and "warning" not in r.details
    monkeypatch.setattr(veritas, "extract_datum", _always_missing)
    r = veritas.check_transitions(a_n(2), WeylWord((1, 2, 1)), 1, random.Random(4))
    assert r.outcome == "vacuous-pass" and not r.witness
    assert r.details["sampling_misses"] == r.details["samples"] == 8
    assert "generic stratum" in r.details["warning"]


def test_cross_model_steps_through_the_module_it_read(monkeypatch):
    built, stepped = [], []
    real_build, real_extract, real_star = (
        veritas.build_filtered, veritas.extract_datum, veritas.sigma_star)

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def extract(g, w, x, trace=None):
        if x is built[0]:
            raise NotInGenericStratum("forced miss")
        return real_extract(g, w, x)

    def star(i, x):
        stepped.append(x)
        return real_star(i, x)

    monkeypatch.setattr(veritas, "build_filtered", build)
    monkeypatch.setattr(veritas, "extract_datum", extract)
    monkeypatch.setattr(veritas, "sigma_star", star)
    r = veritas.check_cross_model(a_n(2), WeylWord((1, 2, 1)), 0, 1,
                                  random.Random(3))
    assert r.outcome == "pass" and r.details["sampling_misses"] == 0
    assert len(built) == 2 and stepped[0] is built[1]


def test_cross_model_counts_stepwise_misses(monkeypatch):
    word = WeylWord((1, 2, 1))
    real = veritas.extract_datum

    def tails_miss(g, w, x, trace=None):
        if len(w) < len(word):
            raise NotInGenericStratum("forced miss")
        return real(g, w, x)

    r = veritas.check_cross_model(a_n(2), word, 1, 1, random.Random(3))
    assert "stepwise_misses" not in r.details
    monkeypatch.setattr(veritas, "extract_datum", tails_miss)
    r = veritas.check_cross_model(a_n(2), word, 1, 1, random.Random(3))
    assert r.passed and r.details["sampling_misses"] == 0
    assert r.details["stepwise_misses"] == 8 * len(word)
