import itertools
import random

import pytest

from nilcrystal import veritas
from nilcrystal.errors import (
    InternalRelationFailure,
    InvalidModuleFile,
    NoEmbeddingFound,
    NotInGenericStratum,
)
from nilcrystal.fields import PrimeField, RationalField, default_field
from nilcrystal.linalg import Mat, cokernel, col_basis, hstack_all, nullspace, vstack_all
from nilcrystal.prepmod import families
from nilcrystal.prepmod import (
    ModuleMap,
    PModule,
    Submodule,
    arrows_into,
    arrows_of,
    arrows_out_of,
    build_filtered,
    direct_power,
    direct_sum,
    extension_maps,
    extract_datum,
    find_injective_hom,
    find_iso,
    find_surjective_hom,
    hom_space,
    injective_module,
    is_iso,
    m_module,
    n_hat,
    n_module,
    quotient,
    random_extension,
    random_hom,
    restrict_to_unprimed,
    retry_budget,
    reverse_arrow,
    semisimple,
    sigma,
    sigma_on_map,
    sigma_star,
    sigma_star_on_map,
    simple,
    soc_chain,
    soc_i,
    socle_dims,
    top_i_dim,
    v_module,
    zero_module,
)
from nilcrystal.prepmod.module import FILE_DIM_CAP
from nilcrystal.rootsys import (
    CartanGraph,
    a_n,
    affine_a1,
    all_reduced_words_upto,
    beta_sequence,
    d4,
    unit,
)

F = default_field()
A2 = a_n(2)
A3 = a_n(3)


def test_every_name_in_prepmod_all_resolves():
    # A stale entry breaks only `from nilcrystal.prepmod import *`.
    import nilcrystal.prepmod as prepmod

    assert [name for name in prepmod.__all__ if not hasattr(prepmod, name)] == []


def test_simple_module():
    s = simple(A2, 1, field=F)
    assert s.dims == (1, 0)
    assert socle_dims(s) == (1, 0)
    assert top_i_dim(s, 1) == 1


def test_direct_sum_dims():
    m = direct_sum(simple(A2, 1, field=F), simple(A2, 2, field=F))
    assert m.dims == (1, 1)
    assert socle_dims(m) == (1, 1)


def _broken_a2_maps():
    # Nonzero composite around the single A2 edge breaks the relation.
    from nilcrystal.linalg import Mat

    return {
        (0, 1): Mat(F, 1, 1, [[F.one]]),
        (0, -1): Mat(F, 1, 1, [[F.one]]),
    }


def test_relation_violation_rejected():
    with pytest.raises(InternalRelationFailure):
        PModule(A2, F, [1, 1], _broken_a2_maps())


def test_reflection_contracts_check_the_relations_of_functor_results(monkeypatch):
    # Derived modules are checked for shapes only, so a functor that breaks
    # the relations must be caught by the harness, as a construction failure.
    from nilcrystal.prepmod.module import arrows_into

    assert PModule(A2, F, [1, 1], _broken_a2_maps(), check=False).dims == (1, 1)
    real = veritas.sigma

    def flipped(i, m):
        sm = real(i, m)
        key = next((a.edge, a.dir) for a in arrows_into(m.graph, i))
        maps = dict(sm.maps)
        maps[key] = maps[key].neg()
        return PModule(sm.graph, sm.field, sm.dims, maps, check=False)

    monkeypatch.setattr(veritas, "sigma", flipped)
    r = veritas.check_reflection_contracts(A3, 3, random.Random(1))
    assert r.outcome == "fail"
    assert r.witness["kind"] == "construction"
    assert "relation fails" in r.witness["extra"]


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_relation_at_is_the_signed_sum_of_round_trips(f):
    from nilcrystal.linalg import Mat
    from nilcrystal.prepmod.module import arrows_into, arrows_of, reverse_arrow

    def signed_sum(m, i):
        d = m.dim_at(i)
        acc = [[f.zero] * d for _ in range(d)]
        for a in arrows_into(m.graph, i):
            term = (m.arrow_map(a) @ m.arrow_map(reverse_arrow(a))).rows
            acc = [[f.add(x, y if a.sign > 0 else f.neg(y)) for x, y in zip(r, t)]
                   for r, t in zip(acc, term)]
        return acc

    rng = random.Random(4)
    broken = 0
    for g in (a_n(3), d4(), affine_a1()):
        for m in veritas.random_corpus(g, 4, rng, f, max_total_dim=6):
            # The same shapes with random maps, so the relations do not hold.
            scrambled = PModule(g, f, m.dims, {
                (a.edge, a.dir): Mat(f, m.dim_at(a.tgt), m.dim_at(a.src),
                                     [[f.of_int(rng.randrange(-3, 4))
                                       for _ in range(m.dim_at(a.src))]
                                      for _ in range(m.dim_at(a.tgt))])
                for a in arrows_of(g)}, check=False)
            for x in (m, scrambled):
                for i in g.vertices():
                    r = x.relation_at(i)
                    assert (r.nrows, r.ncols) == (x.dim_at(i), x.dim_at(i))
                    assert r.rows == signed_sum(x, i)
            assert all(m.relation_at(i).is_zero() for i in g.vertices())
            broken += sum(not scrambled.relation_at(i).is_zero() for i in g.vertices())
    assert broken >= 10


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4()], ids=["A3", "D4"])
def test_each_module_assembles_its_boundary_maps_once_per_vertex(g, f):
    def assembled(m, i):
        """(in, out) at i, stacked pair by pair from the module's maps."""
        d = m.dim_at(i)
        in_i, out_i = Mat(f, d, 0, [[] for _ in range(d)]), Mat.zero(f, 0, d)
        for a in arrows_of(g):
            if a.tgt == i:
                blk = m.arrow_map(a) if a.sign > 0 else m.arrow_map(a).neg()
                in_i = hstack_all(f, [in_i, blk], d)
                out_i = vstack_all(f, [out_i, m.arrow_map(reverse_arrow(a))], d)
        return in_i, out_i

    rng = random.Random(9)
    modules = veritas.random_corpus(g, 4, rng, f, max_total_dim=6)
    modules.append(semisimple(g, [2, 0] + [1] * (g.n - 2), field=f))  # dim 0 at vertex 2
    for m in modules:
        for i in g.vertices():
            in_i, out_i = m.in_map(i), m.out_map(i)
            assert m.in_map(i) is in_i and m.out_map(i) is out_i
            assert (in_i, out_i) == assembled(m, i)
    # The kept assemblies are the module's own maps, so a module with broken
    # relations still fails its check after they were read.
    broken = PModule(A2, F, [1, 1], _broken_a2_maps(), check=False)
    for i in A2.vertices():
        broken.in_map(i), broken.out_map(i)
    with pytest.raises(InternalRelationFailure, match="relation fails at vertex 1"):
        broken.validate()


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_module_map_must_commute(f):
    from nilcrystal.linalg import Mat

    # 1 -> 2 nonzero, 2 -> 1 zero: a nilpotent module of A2.
    m = PModule(A2, f, [1, 1], {(0, 1): Mat(f, 1, 1, [[f.one]])})
    one, zero, two = (Mat(f, 1, 1, [[x]]) for x in (f.one, f.zero, f.of_int(2)))
    ModuleMap(m, m, [two, two])
    with pytest.raises(ValueError, match="fails to commute"):
        ModuleMap(m, m, [one, zero])
    assert ModuleMap(m, m, [one, zero], check=False).mats == (one, zero)


def test_nilpotency_required():
    # Valid relations on affine A1 but an invertible cycle is not nilpotent.
    g = affine_a1()
    from nilcrystal.linalg import Mat

    one = F.one
    maps = {
        (0, 1): Mat(F, 1, 1, [[one]]),
        (0, -1): Mat(F, 1, 1, [[one]]),
        (1, 1): Mat(F, 1, 1, [[one]]),
        (1, -1): Mat(F, 1, 1, [[F.neg(one)]]),
    }
    with pytest.raises(InternalRelationFailure, match="module is not nilpotent"):
        PModule(g, F, [1, 1], maps)


def test_sigma_kills_simple_at_vertex():
    assert sigma(1, simple(A2, 1, field=F)).dims == (0, 0)


def test_sigma_star_kills_simple_at_vertex():
    assert sigma_star(1, simple(A2, 1, field=F)).dims == (0, 0)


def test_sigma_composition_example():
    m = sigma(2, sigma(1, simple(A2, 2, field=F)))
    assert is_iso(m, simple(A2, 1, field=F))


def test_sigma_star_inverts_sigma_on_trivial_top():
    m = sigma(1, simple(A2, 2, field=F))
    back = sigma_star(1, m)
    assert is_iso(back, simple(A2, 2, field=F))


def test_dims_reflect_when_top_trivial():
    from nilcrystal.rootsys import reflect_root

    m = simple(A2, 2, field=F)
    assert top_i_dim(m, 1) == 0
    assert sigma(1, m).dims == reflect_root(A2, 1, m.dims)


def test_n_module_a2():
    lam = unit(2, 1)
    m = n_module(A2, (1,), lam, F)
    assert m.dims == (1, 0)
    m2 = n_module(A2, (2, 1), unit(2, 2), F)
    assert m2.dims == (1, 1)
    assert socle_dims(m2) == (0, 1)


def test_n_hat_top_vanishes_on_extension():
    lam = unit(2, 1)
    nh = n_hat(A2, (1,), lam, F)
    assert top_i_dim(nh, 2) == 0


def test_v_module_dims_a2():
    w = (1, 2, 1)
    assert v_module(A2, w, 1, field=F).dims == (1, 0)
    assert v_module(A2, w, 2, field=F).dims == (1, 1)
    assert v_module(A2, w, 3, field=F).dims == (1, 1)
    assert v_module(A2, w, 0, field=F).dims == (0, 0)


def test_m_module_routes_agree_a2():
    w = (1, 2, 1)
    rng = random.Random(0)
    betas = beta_sequence(A2, w)
    for k in (1, 2, 3):
        ref = m_module(A2, w, k, route="reflection", field=F)
        cok = m_module(A2, w, k, route="cokernel", field=F, rng=rng)
        assert ref.dims == betas[k - 1]
        assert is_iso(ref, cok, rng=rng)


def test_injective_module_a2():
    for i in (1, 2):
        inj = injective_module(A2, i, F)
        assert inj.dims == (1, 1)
        assert socle_dims(inj) == tuple(1 if j == i else 0 for j in (1, 2))


def test_injective_socle_chain_matches_v():
    w = (1, 2, 1)
    rng = random.Random(1)
    injs = {i: injective_module(A2, i, F) for i in (1, 2)}
    for k in (1, 2, 3):
        seq = w[:k][::-1]
        sub = soc_chain(injs[w[k - 1]], seq)
        got, _ = sub.as_module()
        assert is_iso(got, v_module(A2, w, k, field=F), rng=rng)


def _peel_by_quotient(m, u, j):
    """One socle-chain step by a quotient, its S_j-socle and a preimage at
    every vertex: the route that `soc_chain` replaces by one kernel at j."""
    q, proj = quotient(m, u)
    s = soc_i(q, j)
    return Submodule(m, [nullspace(cokernel(b)[1] @ proj.mat_at(i))[0]
                         for i, b in enumerate(s.bases, start=1)])


@pytest.mark.parametrize("f", [F, RationalField(), PrimeField(5)], ids=["prime", "rat", "F5"])
@pytest.mark.parametrize("g", [A2, A3, d4(), affine_a1()], ids=["A2", "A3", "D4", "affA1"])
def test_soc_chain_matches_the_quotient_route(g, f):
    modules = veritas.random_corpus(g, 4, random.Random(12), f, max_total_dim=6)
    if g != affine_a1():
        modules += [injective_module(g, i, f) for i in g.vertices()]
    # Every sequence up to length 4, repeats included, each after its prefix.
    seqs = [s for n in range(1, 5) for s in itertools.product(g.vertices(), repeat=n)]
    for m in modules:
        want = {(): Submodule(m, [Mat.zero(f, d, 0) for d in m.dims])}
        for seq in seqs:
            want[seq] = _peel_by_quotient(m, want[seq[:-1]], seq[-1])
            got = soc_chain(m, seq)
            assert [b.rows for b in got.bases] == [b.rows for b in want[seq].bases], seq


def test_injective_nonfinite_type_capped():
    from nilcrystal.errors import CapExceeded

    with pytest.raises(CapExceeded):
        injective_module(affine_a1(), 1, F)
    # A star with five arms: the spanning paths outgrow the cap at once.
    with pytest.raises(CapExceeded):
        injective_module(CartanGraph(6, tuple((k, 6) for k in range(1, 6))), 1, F)


D5 = CartanGraph(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
E6 = CartanGraph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))


@pytest.mark.parametrize("g, dim_algebra", [(a_n(7), 84), (D5, 60), (E6, 156)],
                         ids=["A7", "D5", "E6"])
def test_injectives_of_larger_dynkin_graphs(g, dim_algebra):
    # Each I_i has socle S_i and a simple top, and together they are as
    # large as the preprojective algebra.
    injs = {i: injective_module(g, i, F) for i in g.vertices()}
    for i, inj in injs.items():
        inj.validate(_nilpotency=False)
        assert inj.is_nilpotent()
        assert socle_dims(inj) == tuple(int(j == i) for j in g.vertices())
        assert sum(top_i_dim(inj, j) for j in g.vertices()) == 1
    assert sum(inj.total_dim for inj in injs.values()) == dim_algebra


def test_the_socle_chain_law_holds_on_d5():
    r = veritas.check_modules(D5, 2, socle_chain_oracle=True)
    assert r.outcome == "probabilistic-pass", r.witness


def test_hom_space_endomorphisms_of_simple():
    s = simple(A2, 1, field=F)
    assert len(hom_space(s, s)) == 1
    assert len(hom_space(s, simple(A2, 2, field=F))) == 0


def test_retry_budget():
    assert retry_budget(F, 12) == 1
    from nilcrystal.fields import PrimeField

    assert retry_budget(PrimeField(997), 12) > 1


def test_retry_budget_counts_the_rational_sampling_set():
    # RationalField.random draws from [0, 2^31): a sample misses with
    # probability up to d/2^31, so one sample cannot reach 2^-40.
    assert RationalField().sample_size == 2**31
    assert retry_budget(RationalField(), 10) > 1
    assert retry_budget(F, 10) == 1


def test_random_extension_relations_hold():
    rng = random.Random(2)
    base = simple(A3, 2, field=F)
    for _ in range(5):
        quot = semisimple(A3, [1, 0, 1], field=F)
        x = random_extension(base, quot, rng)
        incl, proj = extension_maps(base, x, quot)
        x.validate()
        assert incl.is_injective()
        assert proj.is_surjective()
        assert x.total_dim == base.total_dim + quot.total_dim


def test_build_and_extract_roundtrip_a2():
    w = (1, 2, 1)
    rng = random.Random(3)
    for a in [(0, 0, 0), (1, 0, 2), (2, 1, 2), (1, 1, 1)]:
        x = build_filtered(A2, w, a, rng, field=F)
        assert extract_datum(A2, w, x) == a
        assert soc_i(x, 1).dim_at(1) == a[0]


def _one_extension_per_layer(g, w, a, rng, f):
    """A stratum sample as one extension by each whole layer M_k^{a_k}."""
    x = zero_module(g, f)
    for k, mult in enumerate(a, 1):
        x = random_extension(x, direct_power(m_module(g, w, k, field=f), mult), rng)
    return x


@pytest.mark.parametrize("f", [PrimeField(2**61 - 1), PrimeField(3), RationalField()],
                         ids=["p61", "p3", "rat"])
@pytest.mark.parametrize("g, w", [(A3, (1, 2, 1, 3, 2, 1)), (A3, (2, 1, 2, 3, 2)),
                                        (d4(), (1, 2, 3, 2)), (d4(), (2, 1, 3, 4, 2))],
                         ids=["A3-longest", "A3-short", "D4-4", "D4-5"])
def test_build_filtered_solves_each_copy_like_the_whole_layer(f, g, w):
    # Solving one copy's system per copy must give the module and leave the
    # rng exactly as one extension by the direct power does: the same draws,
    # in the same order. Every a_k takes each value 0..3, next to others.
    data = [tuple((s + j * t) % 4 for j in range(len(w))) for t in (1, 3) for s in range(4)]
    for seed, a in enumerate(data + [(3,) * len(w)]):
        rng = random.Random(seed)
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        x = build_filtered(g, w, a, rng, field=f)
        want = _one_extension_per_layer(g, w, a, ref_rng, f)
        assert x.dims == want.dims
        assert {k: m.rows for k, m in x.maps.items()} == {k: m.rows for k, m in want.maps.items()}
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_random_extension_by_copies_is_the_extension_by_the_direct_power(f):
    rng = random.Random(4)
    for sub in veritas.random_corpus(d4(), 6, rng, f, max_total_dim=8):
        quot = semisimple(d4(), [rng.randrange(2) for _ in range(4)], field=f)
        for copies in range(4):
            ref_rng = random.Random()
            ref_rng.setstate(rng.getstate())
            x = random_extension(sub, quot, rng, copies)
            want = random_extension(sub, direct_power(quot, copies), ref_rng)
            assert x.dims == want.dims and x.maps == want.maps
            assert rng.getstate() == ref_rng.getstate()


def _read_reflecting_every_letter(g, w, x):
    """The datum read with one socle read and one backward reflection per
    letter: the tuple, the trace records and the residual's dims."""
    out, trace = [], []
    for i in w:
        out.append(soc_i(x, i).dim_at(i))
        x = sigma_star(i, x)
        trace.append((out[-1], x.dims))
    return tuple(out), trace, x.dims


def _stratum_samples_over_f3():
    # A3 longest word, bound 1, over F_3, each sample read under the word
    # and under its suffix (3, 2, 1), where many reads miss.
    w, f = (1, 2, 1, 3, 2, 1), PrimeField(3)
    rng = random.Random(5)
    samples = [build_filtered(A3, w, a, rng, field=f)
               for a in itertools.product(range(2), repeat=len(w))]
    return [(A3, v, x) for x in samples for v in (w, (3, 2, 1))]


def test_extraction_skips_only_reflections_that_are_zero():
    # A residual living at the letter read is not reflected; the read must
    # still agree with one reflection per letter: the tuple, the trace and
    # the residual's dims, on samples that miss too.
    cases = _stratum_samples_over_f3() + [
        (A3, (1, 2, 1, 3, 2, 1), semisimple(A3, [0, 0, 2], field=F)),
        (A2, (1, 2, 1), simple(A2, 2, field=F)),
        (A3, (1, 2, 1, 3, 2, 1), zero_module(A3, F)),
        (A3, (), zero_module(A3, F)),
        (A3, (), simple(A3, 2, field=F)),
    ]
    misses = 0
    for g, w, x in cases:
        want, want_trace, residual = _read_reflecting_every_letter(g, w, x)
        trace = []
        try:
            got = extract_datum(g, w, x, trace=trace)
        except NotInGenericStratum as exc:
            misses += 1
            assert any(residual) and exc.residual_dims == residual
        else:
            assert not any(residual) and got == want
        assert trace == want_trace
    assert 0 < misses < len(cases)


def test_extract_rejects_off_stratum():
    # S_1 has no filtration for the word starting with letter 2 only.
    w = (2,)
    with pytest.raises(NotInGenericStratum):
        extract_datum(A2, w, simple(A2, 1, field=F))


@pytest.mark.parametrize("g", [A3, d4(), affine_a1()], ids=["A3", "D4", "affA1"])
def test_extract_datum_reads_the_socle_multiplicities(g):
    # extract_datum reads a_k off the cokernel that sigma_star builds; it
    # must equal the socle multiplicity of the module before each step, also
    # on modules that are not generic and make the read raise at the end.
    rng = random.Random(8)
    words = all_reduced_words_upto(g, 4)[4][:3]
    cases = [(x, w) for x in veritas.random_corpus(g, 10, rng, F, max_total_dim=8)
             for w in words]
    cases += [(build_filtered(g, w, (1, 0, 2, 1), rng, field=F), w) for w in words]
    raised = read = 0
    for x, w in cases:
        trace = []
        try:
            extract_datum(g, w, x, trace=trace)
            read += 1
        except NotInGenericStratum:
            raised += 1
        assert len(trace) == len(w)
        for i, (a_k, dims) in zip(w, trace):
            assert a_k == soc_i(x, i).dim_at(i)
            x = sigma_star(i, x)
            assert dims == x.dims
    assert raised and read


def test_module_serialization_roundtrip(tmp_path):
    m = sigma(1, simple(A2, 2, field=F))
    path = tmp_path / "m.json"
    m.dump(str(path))
    back = PModule.load(str(path))
    assert back.dims == m.dims
    assert is_iso(back, m)


def test_module_files_above_1024_dimensions_round_trip(tmp_path):
    # The file dimension cap admits large valid modules. A semisimple one on
    # a single vertex has no arrow entries, so it loads in under a second.
    m = semisimple(CartanGraph(1, ()), [2048], field=F)
    assert 2048 < FILE_DIM_CAP
    path = tmp_path / "m.json"
    m.dump(str(path))
    assert PModule.load(str(path)).dims == (2048,)


def test_a_file_at_the_cap_with_no_arrow_entries_forms_no_product(monkeypatch):
    # With no incoming columns the relation at a vertex is zero by shape, so
    # loading checks it without forming the d x d product.
    data = semisimple(CartanGraph(1, ()), [FILE_DIM_CAP], field=F).to_dict()
    calls = []
    monkeypatch.setattr(Mat, "mul", lambda self, other: calls.append(other))
    assert PModule.from_dict(data).dims == (FILE_DIM_CAP,)
    assert calls == []


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"dims\": [1]}")
    with pytest.raises(InvalidModuleFile):
        PModule.load(str(path))


def _module_data(**changes):
    data = sigma(1, simple(A2, 2, field=F)).to_dict()
    data.update(changes)
    return data


@pytest.mark.parametrize("changes", [
    {"dims": [1]},
    {"dims": [1, 1, 0]},
    {"dims": [-1, 1]},
    {"dims": [1.0, 1]},
    {"dims": [True, 1]},
    {"field": {"kind": "real"}},
    {"field": {"kind": "prime", "p": 15}},
])
def test_from_dict_rejects_bad_schema(changes):
    PModule.from_dict(_module_data())
    with pytest.raises(InvalidModuleFile):
        PModule.from_dict(_module_data(**changes))


def test_from_dict_needs_each_arrow_exactly_once():
    arrows = _module_data()["arrows"]
    # The entry count is the one shape check on rows from a file.
    wrong_count = [[dict(arrows[0], entries=arrows[0]["entries"] * 2)] + arrows[1:],
                   arrows[:1] + [dict(arrows[1], entries=[])]]
    for bad in (arrows[:1], arrows + arrows[:1],
                arrows + [{"edge": 5, "dir": 1, "entries": []}], *wrong_count):
        with pytest.raises(InvalidModuleFile):
            PModule.from_dict(_module_data(arrows=bad))


def _same_module(a, b):
    return a.graph == b.graph and a.dims == b.dims and a.maps == b.maps


def _reflect_along(word, m):
    for i in word:
        m = sigma(i, m)
    return m


@pytest.mark.parametrize("g, maxlen", [(A3, 4), (d4(), 3)], ids=["A3", "D4"])
def test_reflection_memo_matches_direct_reflection(g, maxlen):
    families._reflected.cache_clear()
    words = [w for ws in all_reduced_words_upto(g, maxlen).values() for w in ws]
    for w in words:
        for k in range(1, len(w) + 1):
            rev = w[: k - 1][::-1]
            direct = _reflect_along(rev, simple(g, w[k - 1], field=F))
            assert _same_module(m_module(g, w, k, route="reflection", field=F), direct)
        for i in g.vertices():
            lam = unit(g.n, i)
            primed = semisimple(families.hat_graph(g), (0,) * g.n + lam, field=F)
            direct = _reflect_along(w, primed)
            assert _same_module(n_hat(g, w, lam, field=F), direct)
    assert families._reflected.cache_info().hits > 0


def test_cokernel_route_leaves_no_memo_entry_on_the_base_graph(monkeypatch):
    # Entries only arise from lookups, so recording every lookup (the memo
    # recurses through the module-level name) bounds what the route stored.
    memo = families._reflected
    graphs = []

    def spy(g, field, dims, letters):
        graphs.append(g)
        return memo(g, field, dims, letters)

    monkeypatch.setattr(families, "_reflected", spy)
    memo.cache_clear()
    w = (1, 2, 1, 3, 2, 1)
    rng = random.Random(5)
    for k in range(1, len(w) + 1):
        m_module(A3, w, k, route="cokernel", field=F, rng=rng)
    assert graphs and set(graphs) == {families.hat_graph(A3)}
    assert memo.cache_info().currsize > 0


def _n_module_by_quotient(g, w, lam, field):
    """N as a quotient of the hatted module by the Submodule of its primed
    part: the construction that `restrict_to_unprimed` reads off directly."""
    nh = n_hat(g, w, lam, field=field)
    primed = Submodule(nh, [Mat.identity(field, d) if j > g.n else Mat.zero(field, d, 0)
                            for j, d in enumerate(nh.dims, start=1)])
    q, _ = quotient(nh, primed)
    assert q.dims[g.n:] == (0,) * g.n
    return PModule(g, field, q.dims[: g.n],
                   {(a.edge, a.dir): q.arrow_map(a) for a in arrows_of(g)})


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g, maxlen", [(A3, 4), (d4(), 3), (affine_a1(), 6)],
                         ids=["A3", "D4", "affA1"])
def test_n_module_is_the_quotient_by_the_primed_part(g, maxlen, f):
    words = [w for ws in all_reduced_words_upto(g, maxlen).values() for w in ws]
    for w in words:
        for i in g.vertices():
            lam = unit(g.n, i)
            assert _same_module(n_module(g, w, lam, field=f),
                                _n_module_by_quotient(g, w, lam, f))


def test_restrict_to_unprimed_checks_that_the_primed_part_is_closed():
    # Over the hatted A2, vertex 3 is 1'. A map 1 -> 1' keeps the primed part
    # a submodule; a map 1' -> 1 does not, so there is no quotient to read.
    hat = families.hat_graph(A2)
    (out_of,) = arrows_out_of(hat, 3)
    into = reverse_arrow(out_of)
    one = Mat(F, 1, 1, [[F.one]])
    closed = PModule(hat, F, (1, 0, 1, 0), {(into.edge, into.dir): one})
    assert restrict_to_unprimed(closed, A2).dims == (1, 0)
    broken = PModule(hat, F, (1, 0, 1, 0), {(out_of.edge, out_of.dir): one})
    with pytest.raises(InternalRelationFailure, match="primed part is not closed"):
        restrict_to_unprimed(broken, A2)


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_is_iso_tells_apart_modules_with_equal_dims(f):
    # S1 + S2 and the non-split extension with 1 -> 2 equal to 1 both have
    # dims (1, 1), but their socles differ, so no morphism between them is an
    # isomorphism. A rank-free is_isomorphism would accept the split pair.
    split = direct_sum(simple(A2, 1, field=f), simple(A2, 2, field=f))
    nonsplit = PModule(A2, f, [1, 1], {(0, 1): Mat(f, 1, 1, [[f.one]])})
    assert socle_dims(split) != socle_dims(nonsplit)
    rng = random.Random(11)
    assert not is_iso(split, nonsplit, rng=rng)
    assert find_iso(split, nonsplit, rng=rng) is None
    assert find_iso(nonsplit, split, rng=rng) is None
    for m in (split, nonsplit):
        assert is_iso(m, m, rng=rng)


def test_zero_module_is_iso_to_itself():
    assert is_iso(zero_module(A2, F), zero_module(A2, F))


def test_find_injective_hom_into_bigger():
    small = simple(A2, 2, field=F)
    big = sigma(1, simple(A2, 2, field=F))
    h = find_injective_hom(small, big, rng=random.Random(4))
    assert h is not None and h.is_injective()


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_direct_power_matches_iterated_direct_sum(f):
    m = sigma(1, sigma(2, simple(A3, 3, field=f)))
    assert any(not mat.is_zero() for mat in m.maps.values())
    folded = zero_module(A3, f)
    for k in range(4):
        got = direct_power(m, k)
        assert got.dims == folded.dims and got.maps == folded.maps
        folded = direct_sum(folded, m)


def test_hom_searches_stop_at_the_retry_budget(monkeypatch):
    # Over F_101 the budget grows with d, so each search must size it by the
    # right module: the source for injections, the target for surjections.
    # Every draw is one call of the search's predicate.
    f = PrimeField(101)
    assert retry_budget(f, 1) < retry_budget(f, 2) < retry_budget(f, 4)
    calls = []
    for name in ("is_injective", "is_surjective", "is_isomorphism"):
        monkeypatch.setattr(ModuleMap, name, lambda self: calls.append(1) and False)
    s1 = simple(A3, 1, field=f)
    s1_4 = direct_power(s1, 4)
    s1_2 = direct_power(s1, 2)
    w = (1, 2, 1)
    searches = [
        (lambda: find_injective_hom(s1, s1_4), retry_budget(f, 1)),
        (lambda: find_surjective_hom(s1_4, s1), retry_budget(f, 1)),
        (lambda: find_iso(s1_2, s1_2), retry_budget(f, 2)),
    ]
    for search, budget in searches:
        calls.clear()
        assert search() is None
        assert len(calls) == budget
    calls.clear()
    with pytest.raises(NoEmbeddingFound):
        m_module(A2, w, 3, route="cokernel", field=f)
    assert len(calls) == retry_budget(f, v_module(A2, w, 1, field=f).total_dim)
    # Hom(S1, S2) = 0: the one try is the zero map, and nothing is drawn.
    calls.clear()
    rng = random.Random(4)
    state = rng.getstate()
    assert find_injective_hom(s1, simple(A3, 2, field=f), rng=rng) is None
    assert len(calls) == 1 and rng.getstate() == state


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4(), affine_a1()], ids=["A3", "D4", "affA1"])
def test_derived_modules_are_nilpotent(g, f):
    # sigma, sigma_star, random_extension, quotient and Submodule.as_module
    # check only shapes, and their morphisms are not checked; every module
    # they return must pass the full check, and every morphism must commute.
    rng = random.Random(3)
    modules = veritas.random_corpus(g, 3, rng, f, max_total_dim=6)
    w = all_reduced_words_upto(g, 3)[3][0]
    for k in range(1, len(w) + 1):
        modules += [m_module(g, w, k, field=f), v_module(g, w, k, field=f)]
    # A nonzero round trip through a vertex fed from two places.
    modules += [x for x in [veritas.cross_witness(g, f)] if x is not None]
    derived, morphisms = [], []
    for m in modules:
        u = soc_chain(m, g.vertices())
        derived += [sigma(i, m) for i in g.vertices()]
        derived += [sigma_star(i, m) for i in g.vertices()]
        x = random_extension(m, modules[0], rng)
        incl, proj = extension_maps(m, x, modules[0])
        q, q_proj = quotient(m, u)
        sub, sub_incl = u.as_module()
        derived += [x, q, sub]
        morphisms += [incl, proj, q_proj, sub_incl]
    for x in derived:
        x.validate()
    for h in morphisms:
        h.validate()


def test_round_trip_checks_no_nilpotency(monkeypatch):
    w = (1, 2, 1, 3, 2, 1)
    a = (1, 0, 1, 1, 0, 1)
    extract_datum(A3, w, build_filtered(A3, w, a, random.Random(5), field=F))
    calls = []
    real = PModule.is_nilpotent

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(PModule, "is_nilpotent", counting)
    x = build_filtered(A3, w, a, random.Random(6), field=F)
    assert extract_datum(A3, w, x) == a
    assert calls == []


def test_twisted_reflection_checks_nilpotency(monkeypatch):
    # The sign mutation negates the new maps at i, which is not a functor, so
    # each result gets the full check: the relations, and nilpotency off
    # finite type, where they do not imply it.
    affine_a2 = CartanGraph(3, ((1, 2), (2, 3), (1, 3)))
    witnesses = {A3: simple(A3, 2, field=F), affine_a2: veritas.cross_witness(affine_a2, F)}
    monkeypatch.setattr(veritas, "cross_witness", lambda g, fld: witnesses[g])
    monkeypatch.setattr(PModule, "is_nilpotent", lambda self: False)
    # On A3 no descent runs, so the twisted reflections of a simple all build.
    r = veritas.check_reflection_contracts(A3, 1, random.Random(0), fld=F, twist=-1)
    assert r.outcome == "probabilistic-pass" and r.details == {"contracts_checked": 3}
    # On affine A2 the twisted reflections at 1 of the witness keep the
    # relations, so the descent is what fails them.
    r = veritas.check_reflection_contracts(affine_a2, 1, random.Random(0), fld=F, twist=-1)
    assert r.witness["extra"] == "forward reflection at 1 broke relations: module is not nilpotent"
    assert r.details == {"contracts_checked": 0}


@pytest.mark.parametrize("g, w", [(A3, (1, 2, 1, 3, 2, 1)), (d4(), (2, 1, 3, 2, 4))],
                         ids=["A3", "D4"])
def test_finite_type_validation_runs_no_descent(g, w, monkeypatch):
    # On a Dynkin graph the relations imply nilpotency (Gelfand-Ponomarev).
    x = build_filtered(g, w, (1,) * len(w), random.Random(3), field=F)
    calls = []
    monkeypatch.setattr(PModule, "is_nilpotent", lambda self: calls.append(self))
    monkeypatch.setattr(Mat, "identity", staticmethod(lambda f, n: calls.append(n)))
    assert _same_module(PModule.from_dict(x.to_dict()), x)
    assert len(veritas.random_corpus(g, 6, random.Random(4), F)) == 6
    assert calls == []


def test_validate_runs_the_descent_off_finite_type(monkeypatch):
    calls = []
    real = PModule.is_nilpotent
    monkeypatch.setattr(PModule, "is_nilpotent", lambda self: calls.append(1) or real(self))
    corpus = veritas.random_corpus(affine_a1(), 4, random.Random(8), F)
    PModule.from_dict(corpus[0].to_dict())
    assert len(calls) == 5


def _descent_from_identities(m):
    """The radical-series descent started from d x d identities: the reference."""
    spaces = [Mat.identity(m.field, d) for d in m.dims]
    for _ in range(m.total_dim + 1):
        if all(s.ncols == 0 for s in spaces):
            return True
        nxt = []
        for i in m.graph.vertices():
            imgs = [m.arrow_map(a) @ spaces[a.src - 1] for a in arrows_into(m.graph, i)]
            nxt.append(col_basis(hstack_all(m.field, imgs, m.dim_at(i))))
        if [s.ncols for s in nxt] == [s.ncols for s in spaces]:
            return False
        spaces = nxt
    return all(s.ncols == 0 for s in spaces)


def test_descent_from_the_arrow_maps_gives_the_same_answer():
    g, one = affine_a1(), F.one
    cycle = PModule(g, F, [1, 1], {(0, 1): Mat(F, 1, 1, [[one]]), (0, -1): Mat(F, 1, 1, [[one]]),
                                   (1, 1): Mat(F, 1, 1, [[one]]),
                                   (1, -1): Mat(F, 1, 1, [[F.neg(one)]])}, check=False)
    corpus = veritas.random_corpus(g, 12, random.Random(9), F)
    mods = corpus + [cycle, zero_module(g, F)] + [direct_sum(cycle, m) for m in corpus[:4]]
    answers = [m.is_nilpotent() for m in mods]
    assert answers == [_descent_from_identities(m) for m in mods]
    assert answers == [True] * 12 + [False, True] + [False] * 4


def _first_hom(m, n, rng):
    """The first random morphism m -> n that a search draws."""
    return random_hom(m, n, rng, lambda h: True, m.total_dim)


def _compose(h, g):
    """h after g, vertex by vertex."""
    return ModuleMap(g.source, h.target, [x @ y for x, y in zip(h.mats, g.mats)], check=False)


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4(), affine_a1()], ids=["A3", "D4", "affA1"])
def test_functors_on_maps_keep_identities_and_composition(g, f):
    rng = random.Random(8)
    checked = 0
    for m in veritas.random_corpus(g, 4, rng, f, max_total_dim=6):
        one = ModuleMap(m, m, [Mat.identity(f, d) for d in m.dims])
        gm, hm = _first_hom(m, m, rng), _first_hom(m, m, rng)
        for i in g.vertices():
            for functor in (sigma_on_map, sigma_star_on_map):
                f_one = functor(i, one)
                assert [x.rows for x in f_one.mats] == [
                    Mat.identity(f, d).rows for d in f_one.source.dims]
                f_g, f_h = functor(i, gm), functor(i, hm)
                f_hg = functor(i, _compose(hm, gm))
                assert [x.rows for x in f_hg.mats] == [
                    x.rows for x in _compose(f_h, f_g).mats]
                checked += 1
    assert checked == 4 * g.n * 2


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4()], ids=["A3", "D4"])
def test_forward_reflection_keeps_the_kernel_inclusion(g, f):
    # The new outgoing maps at i are the row blocks of the kernel basis of
    # the incoming assembly, so the functor on maps can read it back.
    checked = 0
    for m in veritas.random_corpus(g, 10, random.Random(5), f):
        for i in g.vertices():
            assert sigma(i, m).out_map(i) == nullspace(m.in_map(i))[0]
            checked += 1
    assert checked == 10 * g.n


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4()], ids=["A3", "D4"])
def test_forward_functor_on_maps_with_shared_ends_is_the_same(g, f):
    # The contracts pass the source of each extension map already reflected.
    rng = random.Random(6)
    checked = 0
    for m in veritas.random_corpus(g, 6, rng, f):
        for i in g.vertices():
            quot = semisimple(g, [rng.randrange(2) for _ in g.vertices()], field=f)
            x = random_extension(m, quot, rng)
            incl, proj = extension_maps(m, x, quot)
            s_incl = sigma_on_map(i, incl, source=sigma(i, m))
            shared = [s_incl, sigma_on_map(i, proj, source=s_incl.target)]
            for got, want in zip(shared, [sigma_on_map(i, incl), sigma_on_map(i, proj)]):
                for end in ("source", "target"):
                    a, b = getattr(got, end), getattr(want, end)
                    assert a.dims == b.dims and a.maps == b.maps
                assert got.mats == want.mats
            checked += 1
    assert checked == 6 * g.n


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
@pytest.mark.parametrize("g", [a_n(3), d4(), affine_a1()], ids=["A3", "D4", "affA1"])
def test_hom_space_bases_commute_and_add_up_over_direct_sums(g, f):
    rng = random.Random(9)
    corpus = veritas.random_corpus(g, 4, rng, f, max_total_dim=6)
    for m in corpus:
        for k in corpus:
            basis = hom_space(m, k)
            for h in basis:
                ModuleMap(m, k, h.mats, check=True)
            # A wrong stride in the unknowns of f_src would break additivity.
            assert len(hom_space(m, direct_sum(m, k))) == len(hom_space(m, m)) + len(basis)
            assert len(hom_space(direct_sum(m, k), k)) == len(hom_space(m, k)) + len(
                hom_space(k, k))


@pytest.mark.parametrize("f", [F, RationalField()], ids=["prime", "rat"])
def test_random_hom_is_the_combination_of_its_draws(f):
    # A search's first candidate is the combination of the hom_space basis
    # with the coefficients it draws: the basis is the identity at the free
    # unknowns, and the search draws their values, one per basis map.
    rng = random.Random(10)
    corpus = veritas.random_corpus(d4(), 4, rng, f, max_total_dim=6)
    zero_pairs = 0
    for m in corpus:
        for n in corpus:
            basis = hom_space(m, n)
            state = rng.getstate()
            seen = []
            got = random_hom(m, n, rng, lambda h: seen.append(h) or True, m.total_dim)
            assert seen == [got]
            if not basis:
                zero_pairs += 1
                assert rng.getstate() == state  # nothing drawn
                assert all(x.is_zero() for x in got.mats)
                continue
            rng.setstate(state)
            coeffs = f.random(rng, len(basis))
            for i in d4().vertices():
                want = [[f.zero] * m.dim_at(i) for _ in range(n.dim_at(i))]
                for c, b in zip(coeffs, basis):
                    want = [[f.add(x, f.mul(c, y)) for x, y in zip(r, br)]
                            for r, br in zip(want, b.mat_at(i).rows)]
                assert got.mat_at(i).rows == want
    assert 0 < zero_pairs < len(corpus) ** 2
