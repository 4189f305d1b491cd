"""A catalogue of deliberate faults, each of which a check must catch.

Each mutant is monkeypatched into the module namespace where the program
looks the function up, and the test asserts that a check fails with the
witness that names the fault. Where a check that could be expected to
catch a mutant passes, the test pins that too, as a known gap. The sign
mutation, which the reflection contracts catch, is tested in test_veritas
and test_acceptance.
"""

import json
import random
from itertools import compress
from pathlib import Path

import pytest

from nilcrystal import fields, linalg, veritas
from nilcrystal.cli import main
from nilcrystal.errors import NotInGenericStratum
from nilcrystal.fields import RationalField
from nilcrystal.linalg import Mat, frame_projection, nullspace, rref, vstack_all
from nilcrystal.prepmod import (ModuleMap, Submodule, arrows_into, arrows_out_of, functors, hom,
                               injectives, semisimple, sigma_star, strata, zero_module)
from nilcrystal.prepmod import module as pmodule
from nilcrystal.rootsys import a_n, d4


def _soc_chain_mutant(project, update):
    """`soc_chain` with the projections onto M/U left out of each step's
    kernel (project=False), or never updated after a step (update=False).
    Either way a step takes the plain socle ker(out_j) of M."""

    def soc_chain(m, seq):
        g, f = m.graph, m.field
        bases = [Mat.zero(f, d, 0) for d in m.dims]
        frames = [[] for _ in m.dims]
        projs = [Mat.identity(f, d) for d in m.dims]
        for j in seq:
            blocks = [projs[a.tgt - 1] @ m.arrow_map(a) if project else m.arrow_map(a)
                      for a in arrows_out_of(g, j)]
            bases[j - 1], frames[j - 1] = nullspace(vstack_all(f, blocks, m.dim_at(j)))
            if update:
                projs[j - 1] = frame_projection(bases[j - 1], frames[j - 1])
        return Submodule(m, bases, frames)

    return soc_chain


def _soc_chain_with_frames_reversed(m, seq):
    """The right bases, each read at its frame rows in reverse order."""
    chain = pmodule.soc_chain(m, seq)
    return Submodule(m, chain.bases, [frame[::-1] for frame in chain.frames])


def test_the_socle_chain_law_passes_unmutated():
    assert veritas.check_modules(a_n(3), 2, socle_chain_oracle=True).passed


@pytest.mark.parametrize("mutant", [_soc_chain_mutant(project=False, update=True),
                                    _soc_chain_mutant(project=True, update=False)],
                         ids=["projection-dropped", "projections-stale"])
def test_socle_chain_mutants_fail_the_socle_chain_law(monkeypatch, mutant):
    monkeypatch.setattr(veritas, "soc_chain", mutant)
    r = veritas.check_modules(a_n(3), 2, socle_chain_oracle=True)
    assert r.outcome == "fail"
    assert r.witness == {"kind": "v-socle-chain", "word": [1, 2], "k": 2}


def test_misread_frames_fail_the_socle_chain_closure(monkeypatch):
    # The restricted maps are read at the frames and checked by one product
    # per arrow; read at the reversed frames, the first chain whose target
    # frame has two rows fails that product, and the check reports it.
    assert veritas.check_modules(a_n(3), 4, rng=random.Random(7), socle_chain_oracle=True).passed
    monkeypatch.setattr(veritas, "soc_chain", _soc_chain_with_frames_reversed)
    r = veritas.check_modules(a_n(3), 4, rng=random.Random(7), socle_chain_oracle=True)
    assert r.outcome == "fail"
    assert r.witness == {"kind": "socle-chain-closure", "word": [2, 1, 3, 2], "k": 4,
                         "error": "subspace is not closed under arrow "
                                  "Arrow(edge=0, dir=1, src=1, tgt=2, sign=1)"}


def test_unsigned_relations_fail_the_injectives(monkeypatch):
    # Every arrow into a vertex taken with sign +1: e_i Lambda is built
    # modulo the wrong relations, so I_i fails the module check.
    real = injectives.arrows_into
    monkeypatch.setattr(injectives, "arrows_into",
                        lambda g, v: tuple(a._replace(sign=+1) for a in real(g, v)))
    r = veritas.check_modules(a_n(3), 2, socle_chain_oracle=True)
    assert r.outcome == "fail"
    assert r.witness["kind"] == "injectives"


# The A3 longest word, and the shortest A3 word whose transitions catch the
# skipped back substitution.
LONGEST = (1, 2, 1, 3, 2, 1)
SHORT = (2, 1, 2, 3, 2)


def _split_kernel_vectors(m, fill):
    """The zero solutions, with nothing drawn: every random extension is the
    direct sum. fill([]) gives one empty list per copy."""
    return [[m.field.zero] * m.ncols for _ in fill([])]


def _kernel_vectors_without_back_substitution(m, fill):
    """The free unknowns drawn as before, every pivot unknown left at zero:
    the extension blocks do not solve the relations."""
    pivots = set(rref(m)[1])
    free = [j for j in range(m.ncols) if j not in pivots]
    out = []
    for values in fill(free):
        x = [m.field.zero] * m.ncols
        for j, v in zip(free, values):
            x[j] = v
        out.append(x)
    return out


def _kernel_vectors_reusing_the_first_copy(m, fill):
    """Every copy's free values drawn as before, then every copy after the
    first solved with copy 0's: the copies of a layer extend alike."""
    def first_copy(free):
        values = fill(free)
        return [values[0]] * len(values)

    return linalg.kernel_vectors(m, first_copy)


@pytest.mark.parametrize("word", [LONGEST, SHORT], ids=["longest", "short"])
def test_the_transition_checks_pass_unmutated(word):
    r = veritas.check_transitions(a_n(3), word, 1, random.Random(7))
    assert r.outcome == "probabilistic-pass"


def test_split_extensions_fail_the_transition_check(monkeypatch):
    monkeypatch.setattr(strata, "kernel_vectors", _split_kernel_vectors)
    r = veritas.check_transitions(a_n(3), LONGEST, 1, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "cross-model"
    # The gap: a direct sum reads back the datum that built it, so the
    # cross-model check passes on every one of its 1,280 samples.
    r = veritas.check_cross_model(a_n(3), LONGEST, 1, 20, random.Random(7))
    assert r.outcome == "probabilistic-pass"
    assert r.details["samples"] == 1280 and r.details["sampling_misses"] == 0


def test_skipped_back_substitution_fails_the_transition_check(monkeypatch):
    # The stratum sampler checks the relations of each sample it builds, so
    # both sampled checks fail with `relations` on SHORT and on the longest
    # word, at seeds 0-4 and 7 alike, and on six of the A3 words of length
    # 4 at bound 1. Both still pass with this mutant on A2 (1,2,1) up to
    # bound 4 and on every A3 word of length 3 at bound 1 (seeds 0-4).
    monkeypatch.setattr(strata, "kernel_vectors", _kernel_vectors_without_back_substitution)
    r = veritas.check_transitions(a_n(3), SHORT, 1, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "relations", "a": [0, 1, 0, 1, 0],
                         "error": "relation fails at vertex 1"}
    r = veritas.check_cross_model(a_n(3), LONGEST, 1, 1, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "relations", "a": [0, 1, 0, 0, 1, 0],
                         "error": "relation fails at vertex 2"}


def test_skipped_back_substitution_fails_the_corpus_of_the_contracts(monkeypatch):
    # The corpus validates each module it draws; the relation failure is
    # reported as the check's failure, not raised out of it.
    monkeypatch.setattr(strata, "kernel_vectors", _kernel_vectors_without_back_substitution)
    r = veritas.check_reflection_contracts(a_n(3), 4, random.Random(2))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "corpus", "error": "relation fails at vertex 3"}


def test_copies_sharing_draws_fail_the_transition_check(monkeypatch):
    r = veritas.check_transitions(a_n(3), LONGEST, 2, random.Random(7))
    assert r.outcome == "probabilistic-pass"  # the control, unmutated
    monkeypatch.setattr(strata, "kernel_vectors", _kernel_vectors_reusing_the_first_copy)
    r = veritas.check_transitions(a_n(3), LONGEST, 2, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "cross-model"
    assert r.witness["a"] == [2, 0, 2, 0, 0, 0]
    # The gap: the sample still reads back the datum that built it, on every
    # one of the 3,645 samples at bound 2.
    r = veritas.check_cross_model(a_n(3), LONGEST, 2, 5, random.Random(7))
    assert r.outcome == "probabilistic-pass"
    assert r.details["samples"] == 3645 and r.details["sampling_misses"] == 0


def _block_system_with_contiguous_left_terms(field, shapes, equations):
    """The block-system writer with each left term L @ X_k written as one
    contiguous run from off + c * kr, instead of down column c of X_k with
    stride nc from off + c. The two agree where X_k has one row or column."""
    offsets, total = [], 0
    for kr, kc in shapes:
        offsets.append(total)
        total += kr * kc
    rows = []
    for (nr, nc), lefts, rights in equations:
        for r in range(nr):
            for c in range(nc):
                row = [field.zero] * total
                for L, k in lefts:
                    row[offsets[k] + c * L.ncols:offsets[k] + (c + 1) * L.ncols] = L.rows[r]
                for k, R in rights:
                    row[offsets[k] + r * R.nrows:offsets[k] + (r + 1) * R.nrows] = \
                        R.transpose().rows[c]
                rows.append(row)
    return Mat(field, len(rows), total, rows), offsets


def test_contiguous_left_terms_fail_the_surjection_contract(monkeypatch):
    # The morphism spaces and the extensions share the writer.
    for module in (hom, strata):
        monkeypatch.setattr(module, "block_system", _block_system_with_contiguous_left_terms)
    r = veritas.check_reflection_contracts(a_n(3), 10, random.Random(2026))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "no-surjection"


def test_contiguous_left_terms_in_the_extensions_fail_the_d4_corpus(monkeypatch):
    monkeypatch.setattr(strata, "block_system", _block_system_with_contiguous_left_terms)
    rng = random.Random(veritas.derive_seed(2026, "reflection-contracts:D4"))
    r = veritas.check_reflection_contracts(d4(), 100, rng)
    assert r.outcome == "fail"
    assert r.witness == {"kind": "corpus", "error": "relation fails at vertex 1"}
    # The gap: on A3 the corpus and both sampled checks pass. A layer M_k of
    # the sampled checks has an A3 root as its dimension vector, at most 1
    # at each vertex, so each copy's blocks have one column and the two
    # writes agree.
    r = veritas.check_reflection_contracts(a_n(3), 10, random.Random(2026))
    assert r.outcome == "probabilistic-pass"
    r = veritas.check_cross_model(a_n(3), LONGEST, 1, 20, random.Random(7))
    assert r.outcome == "probabilistic-pass"
    r = veritas.check_transitions(a_n(3), LONGEST, 1, random.Random(7))
    assert r.outcome == "probabilistic-pass"


# The shortest D4 word whose last layer has a 2 at the centre, so that some
# extension blocks have two columns.
D4_WORD = (2, 1, 3, 2, 4)


def test_contiguous_left_terms_in_the_extensions_fail_the_d4_samples(monkeypatch):
    # build_filtered trusts its extensions; the sampled checks check the
    # relations of each sample, and fail at the first sample that breaks one.
    assert veritas.check_cross_model(d4(), D4_WORD, 1, 2, random.Random(7)).passed
    assert veritas.check_transitions(d4(), D4_WORD, 1, random.Random(7)).passed
    monkeypatch.setattr(strata, "block_system", _block_system_with_contiguous_left_terms)
    witness = {"kind": "relations", "a": [1, 0, 1, 1, 1],
               "error": "relation fails at vertex 2"}
    r = veritas.check_cross_model(d4(), D4_WORD, 1, 2, random.Random(7))
    assert r.outcome == "fail" and r.witness == witness
    r = veritas.check_transitions(d4(), D4_WORD, 1, random.Random(7))
    assert r.outcome == "fail" and r.witness == witness


def _last_entry_off_by_one(g, w, x, trace=None):
    a = strata.extract_datum(g, w, x, trace=trace)
    return a[:-1] + (a[-1] + 1,)


def test_last_entry_off_by_one_fails_the_cross_model_and_transition_checks(monkeypatch):
    monkeypatch.setattr(veritas, "extract_datum", _last_entry_off_by_one)
    r = veritas.check_cross_model(a_n(3), LONGEST, 1, 5, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "chain-mismatch", "a": [0, 0, 0, 0, 0, 0],
                         "got": (0, 0, 0, 0, 0, 1)}
    r = veritas.check_transitions(a_n(3), LONGEST, 1, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "cross-model"


def _extract_datum_counting_the_first_incoming_arrow(g, w, x, trace=None):
    """`strata.extract_datum` with a_k read off the first arrow into the
    letter alone, as if out_i mapped into that one neighbour: a letter
    with two neighbours in the support reads a_k too large."""
    out = []
    for i in w:
        if x.total_dim == x.dim_at(i):
            a_k = x.dim_at(i)
            if a_k:
                x = zero_module(g, x.field)
        else:
            a_k = x.dim_at(i) - sum(x.dim_at(a.src) for a in arrows_into(g, i)[:1])
            x = sigma_star(i, x)
            a_k += x.dim_at(i)
        out.append(a_k)
    if x.total_dim != 0:
        raise NotInGenericStratum(f"residual module has dims {x.dims} after the word")
    return tuple(out)


def test_first_incoming_arrow_fails_the_cross_model_and_transition_checks(monkeypatch):
    # Vertex 2 of A3 has two neighbours; the first read of it on the longest
    # word with both in the support is too large by the dimension at 3.
    monkeypatch.setattr(veritas, "extract_datum", _extract_datum_counting_the_first_incoming_arrow)
    r = veritas.check_cross_model(a_n(3), LONGEST, 1, 5, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "chain-mismatch", "a": [0, 0, 0, 0, 0, 1],
                         "got": (0, 1, 0, 0, 0, 1)}
    r = veritas.check_transitions(a_n(3), LONGEST, 1, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness == {"kind": "cross-model", "a": [0, 0, 0, 0, 0, 1], "pos": 2,
                         "got": (0, 1, 0, 0, 0, 1)}


def _truncated_pivot_tail(width):
    """`PrimeField.elim_pivot` with the pivot row cut `width` columns past
    the pivot: entries further right are neither scaled nor used to clear
    the other rows, so systems wider than that are solved wrongly."""

    def elim_pivot(self, row, col):
        p, end = self.p, col + width
        inv = pow(row[col], -1, p)
        tail = []
        for j in compress(range(col, min(end, len(row))), row[col:end]):
            row[j] = x = inv * row[j] % p
            tail.append((j, x))
        return tail

    return elim_pivot


def test_truncated_pivot_tail_fails_the_prime_contracts(monkeypatch):
    # The contracts' corpus modules give the morphism searches and the
    # reflections systems wide enough to cut; `verify all` on A3 at seed 7
    # fails too, with no-surjection, while its sampled suites pass.
    assert veritas.check_reflection_contracts(d4(), 2, random.Random(7)).passed
    monkeypatch.setattr(fields.PrimeField, "elim_pivot", _truncated_pivot_tail(13))
    r = veritas.check_reflection_contracts(d4(), 2, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "braid-iso"
    assert r.witness["extra"] == {"pair": [2, 3]}


# The socle-chain oracle's injectives and chains are narrow systems: a cut
# 1 or 2 columns past the pivot breaks the relations of a D4 injective, and
# on A3 it moves a chain off V_k. The 13-column cut never fires there: the
# gap is pinned.
@pytest.mark.parametrize("width, g, kind", [
    (1, a_n(3), "v-socle-chain"), (2, a_n(3), "v-socle-chain"), (13, a_n(3), None),
    (1, d4(), "injectives"), (2, d4(), "injectives"), (13, d4(), None),
], ids=["A3-1", "A3-2", "A3-13-gap", "D4-1", "D4-2", "D4-13-gap"])
def test_narrow_pivot_cuts_fail_the_socle_chain_oracle(monkeypatch, width, g, kind):
    assert veritas.check_modules(g, 4, rng=random.Random(0), socle_chain_oracle=True).passed
    monkeypatch.setattr(fields.PrimeField, "elim_pivot", _truncated_pivot_tail(width))
    r = veritas.check_modules(g, 4, rng=random.Random(0), socle_chain_oracle=True)
    if kind is None:
        assert r.outcome == "probabilistic-pass"
    else:
        assert r.outcome == "fail"
        assert r.witness["kind"] == kind


def test_the_rational_contracts_pass_unmutated():
    r = veritas.check_reflection_contracts(a_n(3), 20, random.Random(0), fld=RationalField())
    assert r.outcome == "probabilistic-pass"


def test_truncating_rational_division_fails_the_contracts(monkeypatch):
    # Every inexact quotient of the eliminations rounds down to an int, so
    # the reflections and the morphism searches read off the wrong kernels.
    # The first check to fail is the braid isomorphism on the edge (2, 3):
    # no morphism drawn between the two sides is an isomorphism.
    monkeypatch.setattr(fields, "_ratio", lambda n, d: n // d)
    r = veritas.check_reflection_contracts(a_n(3), 20, random.Random(0), fld=RationalField())
    assert r.outcome == "fail"
    assert r.witness["kind"] == "braid-iso"
    assert r.witness["extra"] == {"pair": [2, 3]}
    assert r.witness["module"]["dims"] == [7, 2, 2]


def _extension_triples(g, corpus_size, rng):
    """The extension triples of the contracts' functor-on-map family, drawn
    as the contracts draw them: for each corpus module and vertex i, the
    inclusion and projection of one extension by a random semisimple."""
    fld, triples = RationalField(), []
    for m in veritas.random_corpus(g, corpus_size, rng, fld):
        for i in g.vertices():
            mults = [rng.randrange(2) for _ in range(g.n)]
            if sum(mults) == 0:
                mults[rng.randrange(g.n)] = 1
            quot = semisimple(g, mults, field=fld)
            x = strata.random_extension(m, quot, rng)
            triples.append((i, *strata.extension_maps(m, x, quot)))
    return triples


def test_truncating_rational_division_passes_the_functor_on_map_family(monkeypatch):
    # The gap: on sound extension triples, 60 over A3 and 80 over D4, both
    # functors on the maps still commute with every arrow under the mutant,
    # though 259 of their quotients are inexact and truncated. The
    # functor-on-map family alone catches nothing; braid-iso does (above).
    triples = [t for g in (a_n(3), d4()) for t in _extension_triples(g, 20, random.Random(0))]
    assert len(triples) == 60 + 80
    inexact = []
    monkeypatch.setattr(fields, "_ratio", lambda n, d: inexact.append(n % d != 0) or n // d)
    for i, incl, proj in triples:
        functors.sigma_on_map(i, incl)
        functors.sigma_on_map(i, proj)
        functors.sigma_star_on_map(i, proj)
    assert sum(inexact) == 259


def _nullspace_with_reversed_free_rows(m):
    k, free = linalg.nullspace(m)
    return k, free[::-1]


def _cokernel_with_reversed_units(b):
    units, p = linalg.cokernel(b)
    return units[::-1], p


# The reflections read their maps off the rows of the kernel basis and the
# columns of the cokernel projection where each is the identity; read at
# the right indices in the wrong order, a reflected morphism fails to commute.
@pytest.mark.parametrize("name, mutant, arrow", [
    ("nullspace", _nullspace_with_reversed_free_rows,
     "Arrow(edge=1, dir=-1, src=3, tgt=2, sign=-1)"),
    ("cokernel", _cokernel_with_reversed_units, "Arrow(edge=1, dir=1, src=2, tgt=3, sign=1)"),
], ids=["forward-free-rows", "backward-units"])
def test_permuted_identity_indices_fail_the_contracts(monkeypatch, name, mutant, arrow):
    monkeypatch.setattr(functors, name, mutant)
    r = veritas.check_reflection_contracts(a_n(3), 4, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "functor-on-map"
    assert r.witness["extra"] == f"morphism fails to commute with arrow {arrow}"


def test_top_dimension_zero_fails_the_forward_dimension_law(monkeypatch):
    monkeypatch.setattr(veritas, "top_i_dim", lambda m, i: 0)
    r = veritas.check_reflection_contracts(a_n(3), 4, random.Random(7))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "dims-forward"
    assert r.witness["extra"] == {"vertex": 2, "got": (1, 1, 1)}


def _sigma_on_map_zeroing_projections(i, f_map, source=None):
    """`sigma_on_map` with the block at i zeroed on every map that is not
    one-to-one: in the contracts, on sigma of each extension's projection."""
    s = functors.sigma_on_map(i, f_map, source=source)
    if f_map.is_injective():
        return s
    mats = list(s.mats)
    mats[i - 1] = Mat.zero(s.source.field, mats[i - 1].nrows, mats[i - 1].ncols)
    return ModuleMap(s.source, s.target, mats, check=False)


def _contracts():
    return veritas.check_reflection_contracts(a_n(3), 4, random.Random(7))


# The dimensions the checks read off ranks and dims, each misread in the
# name veritas looks up: the check that reads it fails with its own kind.
@pytest.mark.parametrize("name, mutant, check, kind", [
    ("soc_i_dim", lambda m, i: pmodule.soc_i_dim(m, i) + 1, _contracts, "kernel-not-socle"),
    ("soc_i_dim", lambda m, i: pmodule.soc_i_dim(m, i) + 1,
     lambda: veritas.check_cross_model(a_n(3), (1, 2, 1), 1, 1, random.Random(7)), "socle-law"),
    ("soc_i_dim", lambda m, i: 0, _contracts, "dims-backward"),
    ("socle_dims", lambda m: tuple(d + 1 for d in pmodule.socle_dims(m)),
     lambda: veritas.check_modules(a_n(3), 2, rng=random.Random(7)), "n-socle"),
    ("sigma_on_map", _sigma_on_map_zeroing_projections, _contracts, "left-exactness-middle"),
], ids=["socle-plus-one-contracts", "socle-plus-one-cross-model", "socle-zero",
        "socle-dims-plus-one", "zeroed-projection-block"])
def test_misread_dimensions_fail_the_checks_that_read_them(monkeypatch, name, mutant, check,
                                                           kind):
    assert check().passed
    monkeypatch.setattr(veritas, name, mutant)
    r = check()
    assert r.outcome == "fail"
    assert r.witness["kind"] == kind


def _rank_free_is_isomorphism(self):
    """Each block square, its rank never asked: every morphism between
    modules of equal dims counts as an isomorphism."""
    return all(m.nrows == m.ncols for m in self.mats)


# The unmutated outcomes of `verify all` below; the sign mutation fails by design.
VERIFY_ALL_OUTCOMES = {"reflection-contracts": "probabilistic-pass",
                       "reflection-contracts-mutated": "fail", "modules": "probabilistic-pass",
                       "cross-model": "probabilistic-pass", "transitions": "probabilistic-pass"}


@pytest.mark.parametrize("owner, name, mutant", [
    (veritas, "is_iso", lambda m, n, rng=None: True),
    (ModuleMap, "is_isomorphism", _rank_free_is_isomorphism),
], ids=["is-iso-always-true", "rank-free-is-isomorphism"])
def test_isomorphism_mutants_pass_verify_all(monkeypatch, capsys, owner, name, mutant):
    # The gap: every suite of `verify all` on A3 passes, and the run exits 0.
    # Each isomorphism the suites test (braid-iso in the reflection
    # contracts, m-routes and v-socle-chain in the modules) is one that
    # holds, so an is_iso that never says False passes them all. The check
    # that should catch both mutants is a negative control in the same
    # report: a pair of equal dims whose tops differ, such as S1 + S2 and
    # the non-split A2 extension, which is_iso must call not isomorphic. No
    # report runs one yet. Outside the reports,
    # test_prepmod::test_is_iso_tells_apart_modules_with_equal_dims catches
    # the rank-free mutant, but not the first, which lives in veritas alone.
    monkeypatch.setattr(owner, name, mutant)
    graph = Path(__file__).resolve().parent.parent / "graphs" / "a3.json"
    code = main(["--graph", str(graph), "--seed", "7", "--json", "--no-timestamp",
                 "verify", "all", "--word", "1", "2", "1", "--bound", "2"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == 0
    assert {r["check_id"]: r["outcome"] for r in reports} == VERIFY_ALL_OUTCOMES
    assert reports[1]["witness"]["kind"] == "construction"
