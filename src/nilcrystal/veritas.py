"""Verification harness: runs the contract suites and emits replayable reports.

Each check gets a deterministic seed derived from (master seed, job id);
failing reports carry a serialized witness sufficient to replay the case.
Mathematical failures are recorded outcomes, never exceptions.
"""

import csv
import itertools
import random
import time
from dataclasses import asdict, dataclass, field

from .crystal import datum, transition, weight
from .errors import CapExceeded, InternalRelationFailure, NotInGenericStratum
from .fields import default_field, field_size
from .linalg import Mat, rank
from .prepmod import (
    PModule,
    arrows_into,
    arrows_of,
    build_filtered,
    extension_maps,
    extract_datum,
    find_injective_hom,
    find_surjective_hom,
    injective_module,
    is_iso,
    m_module,
    n_hat,
    n_module,
    random_extension,
    semisimple,
    sigma,
    sigma_on_map,
    sigma_star,
    sigma_star_on_map,
    soc_chain,
    soc_i_dim,
    socle_dims,
    top_i_dim,
    v_module,
    zero_module,
)
from .prepmod.families import _reflected
from .rootsys import (
    all_reduced_words_upto,
    apply_word_to_weight,
    beta_sequence,
    braid_moves,
    is_reduced,
    reflect_root,
    unit,
)

RETRY_BUDGET = 8
# Extension layers of each random corpus module (at most).
_CORPUS_LAYERS = 3


@dataclass
class CheckReport:
    check_id: str
    claim: str
    params: dict
    outcome: str  # pass | fail | vacuous-pass | probabilistic-pass
    confidence: str | None = None
    witness: dict | None = None
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @property
    def passed(self):
        return self.outcome in ("pass", "probabilistic-pass", "vacuous-pass")


def derive_seed(master_seed, job_id):
    """Deterministic per-job seed from the master seed and a job label."""
    h = 1469598103934665603
    for ch in f"{master_seed}:{job_id}":
        h = ((h ^ ord(ch)) * 1099511628211) % (1 << 64)
    return h


def _confidence_str(fld):
    q = fld.sample_size
    if field_size(fld) == q:
        drawn = f"prime field of size {q}"
    else:
        drawn = f"rationals drawn from [0, {q})"
    return f"{drawn}; per-sample false-negative bound d/q"


def cross_witness(g, fld):
    """A small module with a nonzero composite through a degree-2 vertex.

    Such a composite is exactly what the flipped sign convention cannot
    preserve, so this module makes the mutation self-test deterministic.
    Returns None when no vertex is fed from two different vertices (e.g.
    one edge, or parallel edges only).
    """
    a1 = a2 = None
    for c in g.vertices():
        arrows = list(arrows_into(g, c))
        for x in arrows[1:]:
            # Arrows from the same source flip in step under either sign,
            # so only a vertex fed from two places separates the twists.
            if x.src != arrows[0].src:
                a1, a2 = arrows[0], x
                break
        if a1 is not None:
            break
    else:
        return None
    dims = [0] * g.n
    dims[c - 1] = 2  # basis (y, z); maps send y -> x -> z
    p1 = dims[a1.src - 1]
    dims[a1.src - 1] += 1
    p2 = dims[a2.src - 1]
    dims[a2.src - 1] += 1
    f = fld
    maps = {}
    for a in arrows_of(g):
        maps[(a.edge, a.dir)] = Mat.zero(f, dims[a.tgt - 1], dims[a.src - 1])
    t = f.neg(f.of_int(a1.sign * a2.sign))
    for a, p, scale in ((a1, p1, f.one), (a2, p2, t)):
        d = dims[a.src - 1]
        into = [[f.zero] * d, [scale if j == p else f.zero for j in range(d)]]
        maps[(a.edge, a.dir)] = Mat(f, 2, d, into)  # x -> z
        outof = [[f.one if j == p else f.zero, f.zero] for j in range(d)]
        maps[(a.edge, -a.dir)] = Mat(f, d, 2, outof)  # y -> x
    return PModule(g, f, dims, maps)


def random_corpus(g, size, rng, fld, max_total_dim=12):
    """Random nilpotent modules: iterated random extensions of simples."""
    out = []
    for _ in range(size):
        x = zero_module(g, fld)
        budget = rng.randrange(1, max_total_dim + 1)
        for _ in range(rng.randrange(1, _CORPUS_LAYERS + 1)):
            room = budget - x.total_dim
            if room <= 0:
                break
            mults = [0] * g.n
            for _ in range(rng.randrange(1, room + 1)):
                mults[rng.randrange(g.n)] += 1
            layer = semisimple(g, mults, field=fld)
            x = random_extension(x, layer, rng)
        # The corpus is a trust boundary, so each module gets the checks that
        # random_extension leaves out: relations, and nilpotency off finite type.
        x.validate()
        out.append(x)
    return out


class _Failed(Exception):
    def __init__(self, witness):
        super().__init__(witness["kind"])
        self.witness = witness


def _fail(kind, **witness):
    """Stop the running check at its first failure, with this witness."""
    raise _Failed({"kind": kind, **witness})


def _run(check_id, claim, params, fld, work, body, clean="probabilistic-pass"):
    """Run one check body and report on it: the only place a CheckReport is made.

    The body counts its work in `details`, calls `_fail` at the first
    failure, and returns a reason when there is nothing to check. The
    outcome is `fail` with the witness. It is `vacuous-pass`, with a
    warning, when the body gave a reason, a sampled check drew no sample
    or `details[work]` is 0 (then no confidence is stated), or when every
    stratum sample missed. Else it is `clean`.
    """
    t0 = time.time()
    details = {}
    witness, confidence, warning = None, _confidence_str(fld), None
    try:
        idle = body(details)
    except _Failed as exc:
        witness = exc.witness
    else:
        if idle is None and details.get("samples") == 0:
            idle = "nothing was sampled: samples is 0"
        elif idle is None and not details[work]:
            idle = f"nothing was checked: {work} is 0"
        if idle is not None:
            warning, confidence = idle, None
        elif "samples" in details and details["sampling_misses"] == details["samples"]:
            warning = "no sample was read back from the generic stratum"
    if warning is not None:
        details["warning"] = warning
    outcome = "fail" if witness else "vacuous-pass" if warning else clean
    return CheckReport(check_id, claim, params, outcome, confidence=confidence,
                       witness=witness, wall_time=time.time() - t0, details=details)


def check_reflection_contracts(g, corpus_size, rng, fld=None, twist=1):
    """Reflection-functor contracts on a random corpus.

    Families: exactness on one-sided-trivial modules, the two functorial
    short exact sequences, the single-edge braid isomorphism, and the
    dimension-vector reflection law.

    Each module is reflected forward once per vertex: sigma(i, m) of the
    module under test is kept for the functor on the inclusion and for the
    braid check, and the inclusion's reflected target sigma(i, x) is the
    projection's reflected source, so the extension x and its quotient are
    reflected once each. The functors draw nothing, so sharing changes no
    result.

    With twist=-1 (mutation mode) the flipped sign convention must break
    the relations: at each vertex i in turn, the cross witness is reflected
    by sigma and by sigma_star, the new maps at i (into i after sigma, out
    of i after sigma_star) are negated, and each result gets the full
    `PModule` check. The first break fails the check as a construction
    error; with no witness the check is vacuous, since on such a graph both
    signs build valid modules.
    """
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "corpus_size": corpus_size,
        "twist": twist,
        "field": repr(fld),
    }

    def body(details):
        if corpus_size <= 0:
            return "empty corpus"
        if not g.n:
            return "graph has no vertices"
        witness_mod = cross_witness(g, fld)
        if twist != 1:
            if witness_mod is None:
                return "no sign witness on this graph"
            details["contracts_checked"] = 0
            for i in g.vertices():
                for which, reflect, end in (("forward", sigma, "tgt"),
                                            ("backward", sigma_star, "src")):
                    sm = reflect(i, witness_mod)
                    maps = {(a.edge, a.dir): sm.arrow_map(a).neg() if getattr(a, end) == i
                            else sm.arrow_map(a) for a in arrows_of(g)}
                    try:
                        PModule(g, fld, sm.dims, maps)
                    except InternalRelationFailure as exc:
                        _fail("construction", module=witness_mod.to_dict(),
                              extra=f"{which} reflection at {i} broke relations: {exc}")
                details["contracts_checked"] += 1
            return None
        try:
            corpus = random_corpus(g, corpus_size, rng, fld)
        except InternalRelationFailure as exc:
            _fail("corpus", error=str(exc))
        if witness_mod is not None:
            corpus.insert(0, witness_mod)
        details["contracts_checked"] = 0

        def fail(kind, extra=None):  # the witness is the module under test
            _fail(kind, module=m.to_dict(), extra=extra)

        for m in corpus:
            reflected = {}  # sigma(i, m) by vertex, for this module only
            for i in g.vertices():
                try:
                    sm = reflected[i] = sigma(i, m)
                    ssm = sigma_star(i, m)
                    # The functors check only shapes: the relations are checked here.
                    sm.validate(_nilpotency=False)
                    ssm.validate(_nilpotency=False)
                except InternalRelationFailure as exc:
                    fail("construction", str(exc))
                details["contracts_checked"] += 1
                top, soc = top_i_dim(m, i), soc_i_dim(m, i)
                # Dimension law on one-sided-trivial modules.
                si_dims = reflect_root(g, i, m.dims)
                if top == 0 and sm.dims != si_dims:
                    fail("dims-forward", {"vertex": i, "got": sm.dims})
                if soc == 0 and ssm.dims != si_dims:
                    fail("dims-backward", {"vertex": i, "got": ssm.dims})
                # Functorial sequences: surjection onto forward-of-backward with
                # kernel the socle part; injection of backward-of-forward with
                # cokernel the top part. Each map's kernel or cokernel is read
                # off the dims, once the ranks have shown it onto or one-to-one.
                fwd_bwd = sigma(i, ssm)
                if find_surjective_hom(m, fwd_bwd, rng=rng) is None:
                    fail("no-surjection", {"vertex": i})
                ker = tuple(x - y for x, y in zip(m.dims, fwd_bwd.dims))
                if ker != tuple(soc if j == i else 0 for j in g.vertices()):
                    fail("kernel-not-socle", {"vertex": i, "kernel": ker})
                bwd_fwd = sigma_star(i, sm)
                if find_injective_hom(bwd_fwd, m, rng=rng) is None:
                    fail("no-injection", {"vertex": i})
                codim = m.total_dim - bwd_fwd.total_dim
                if codim != top:
                    fail("cokernel-not-top", {"vertex": i, "codim": codim})
            # One-sided exactness through a random extension triple.
            for i in g.vertices():
                mults = [rng.randrange(2) for _ in range(g.n)]
                if sum(mults) == 0:
                    mults[rng.randrange(g.n)] = 1
                quot = semisimple(g, mults, field=fld)
                x = random_extension(m, quot, rng)
                incl, proj = extension_maps(m, x, quot)
                try:
                    s_incl = sigma_on_map(i, incl, source=reflected[i])
                    s_proj = sigma_on_map(i, proj, source=s_incl.target)
                except (InternalRelationFailure, ValueError) as exc:
                    fail("functor-on-map", str(exc))
                details["contracts_checked"] += 1
                if not s_incl.is_injective():
                    fail("left-exactness-mono", {"vertex": i})
                # Exactness in the middle: ker(sigma proj) = im(sigma incl),
                # whose dims are its source's, sigma incl being injective.
                if tuple(p.ncols - rank(p) for p in s_proj.mats) != s_incl.source.dims:
                    fail("left-exactness-middle", {"vertex": i})
                try:
                    ss_proj = sigma_star_on_map(i, proj)
                except (InternalRelationFailure, ValueError) as exc:
                    fail("functor-on-map", str(exc))
                if not ss_proj.is_surjective():
                    fail("right-exactness-epi", {"vertex": i})
            # Single-edge braid isomorphism.
            for (u, v) in {frozenset(e) for e in g.edges}:
                if g.edge_count(u, v) != 1:
                    continue
                lhs = sigma(u, sigma(v, reflected[u]))
                rhs = sigma(v, sigma(u, reflected[v]))
                details["contracts_checked"] += 1
                if not is_iso(lhs, rhs, rng=rng):
                    fail("braid-iso", {"pair": [u, v]})

    return _run("reflection-contracts" if twist == 1 else "reflection-contracts-mutated",
                "reflection functor exact sequences, braid isomorphism, dims law",
                params, fld, "contracts_checked", body)


def check_modules(g, maxlen, rng=None, fld=None, socle_chain_oracle=False):
    """Module-family laws over every reduced word up to a length bound.

    Verifies the socle and dimension-vector laws of the quotient family,
    agreement of the two subquotient routes, beta dimension vectors,
    trivial tops of partial reflection products, and (optionally, finite
    type) the socle-chain construction of the submodule family. The layer
    laws are checked at each word's last layer only: the shorter layers
    are the last layers of its prefixes, which are words checked as well.
    """
    fld = fld or default_field()
    rng = rng or random.Random(0)
    params = {
        "graph": g.to_dict(),
        "maxlen": maxlen,
        "field": repr(fld),
        "socle_chain_oracle": socle_chain_oracle,
    }

    def body(details):
        details["words_checked"] = 0
        injectives = {}
        for i in g.vertices() if socle_chain_oracle else ():
            try:
                injectives[i] = injective_module(g, i, fld)
            except (InternalRelationFailure, CapExceeded) as exc:
                _fail("injectives", vertex=i, error=str(exc))
        cartan = g.cartan()
        by_len = all_reduced_words_upto(g, maxlen)
        for k in range(1, maxlen + 1):
            for w in by_len[k]:
                details["words_checked"] += 1
                word = list(w)
                rev = w[::-1]
                # Quotient-family laws for the full word, one per final letter.
                for i in g.vertices():
                    lam = unit(g.n, i)
                    drop = tuple(x - y for x, y in zip(lam, apply_word_to_weight(g, rev, lam)))
                    if not any(drop):
                        continue
                    nm = n_module(g, rev, lam, fld)
                    # C . dim N = lam - w lam in weight coordinates, on every
                    # symmetric Kac-Moody type, finite or not.
                    a_dims = tuple(sum(a * d for a, d in zip(row, nm.dims)) for row in cartan)
                    if a_dims != drop:
                        _fail("n-dims", word=word, i=i)
                    if socle_dims(nm) != lam:
                        _fail("n-socle", word=word, i=i)
                    # Trivial top for letters extending the word.
                    ext = rev + (i,)
                    if is_reduced(g, ext) and top_i_dim(n_hat(g, rev, lam, fld), i) != 0:
                        _fail("nhat-top", word=word, i=i)
                # Layer laws for the last layer k = len(w) only. Layer k
                # depends on w[:k] alone, and by_len is prefix-closed (a
                # prefix of a reduced word is reduced), so every shorter
                # layer of w was checked as the last layer of its prefix.
                m_ref = m_module(g, w, k, route="reflection", field=fld)
                beta = beta_sequence(g, w)[-1]
                if m_ref.dims != beta:
                    _fail("m-dims", word=word, k=k, got=m_ref.dims, want=beta)
                m_cok = m_module(g, w, k, route="cokernel", field=fld, rng=rng)
                if not is_iso(m_ref, m_cok, rng=rng):
                    _fail("m-routes", word=word, k=k, reflection=m_ref.to_dict(),
                          cokernel=m_cok.to_dict())
                # Trivial tops of every partial product: the simple at
                # w[k-1] reflected along w[k-2], ..., w[ll-1], which the
                # memo holds as prefixes of the m_module key above.
                simple_dims = unit(g.n, w[k - 1])
                for ll in range(k - 1, 1, -1):
                    letters = w[ll - 1 : k - 1][::-1]
                    part = _reflected(g, fld, simple_dims, letters)
                    if top_i_dim(part, w[ll - 2]) != 0:
                        _fail("partial-top", word=word, k=k, l=ll - 1)
                if socle_chain_oracle:
                    chain = soc_chain(injectives[w[k - 1]], rev)
                    try:
                        vsc, _ = chain.as_module()
                    except ValueError as exc:
                        _fail("socle-chain-closure", word=word, k=k, error=str(exc))
                    if not is_iso(vsc, v_module(g, w, k, field=fld), rng=rng):
                        _fail("v-socle-chain", word=word, k=k)

    return _run("modules", "module family laws: socles, dims, route agreement, trivial tops",
                params, fld, "words_checked", body)


def _stratum_samples(g, word, a, samples, reads, rng, fld, details):
    """Stratum samples of the datum a under word, each read under every word of reads.

    Yields, per sample, the module and the tuple read under each word of
    reads, or None where the read missed on every try. Each sample is
    built once and its preprojective relations are checked, since
    build_filtered trusts its extensions: a broken one fails the check
    with kind `relations`. A missed read is retried on fresh samples, up
    to RETRY_BUDGET of them. Every read counts in details["samples"], and
    every read that missed on all its tries in details["sampling_misses"].
    """
    def build():
        x = build_filtered(g, word, a, rng, field=fld)
        try:
            x.validate(_nilpotency=False)
        except InternalRelationFailure as exc:
            _fail("relations", a=list(a), error=str(exc))
        return x

    for _ in range(samples):
        x, gots = build(), []
        for w in reads:
            details["samples"] += 1
            for retry in range(RETRY_BUDGET + 1):
                try:
                    gots.append(extract_datum(g, w, build() if retry else x))
                    break
                except NotInGenericStratum:
                    pass
            else:
                details["sampling_misses"] += 1
                gots.append(None)
        yield x, gots


def check_cross_model(g, word, bound, samples, rng, fld=None):
    """Cross-model law on a full datum grid for one word.

    Per sample: the preprojective relations (in the sampler), weight law,
    first-socle law, and equality of the module's read with the datum a
    (a `chain-mismatch` when they differ).
    `extract_datum` is itself the induction along the word (read a socle,
    reflect backward, read the residual under the shorter word), so each
    residual's tail is the tail of the tuple compared here, and it misses
    exactly when the full read misses.
    """
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "word": list(word),
        "bound": bound,
        "samples": samples,
        "field": repr(fld),
    }
    r = len(word)

    def body(details):
        details.update(grid_points=0, samples=0, sampling_misses=0)
        try:
            for a in itertools.product(range(bound + 1), repeat=r):
                details["grid_points"] += 1
                d = datum(g, word, a)
                expected_weight = weight(g, d)
                for x, (got,) in _stratum_samples(g, word, a, samples, [word], rng, fld,
                                                  details):
                    if x.dims != expected_weight:
                        _fail("weight-law", a=list(a), dims=x.dims)
                    if r and soc_i_dim(x, word[0]) != a[0]:
                        _fail("socle-law", a=list(a), module=x.to_dict())
                    if got is not None and got != a:
                        _fail("chain-mismatch", a=list(a), got=got)
        finally:
            details["miss_rate"] = details["sampling_misses"] / max(details["samples"], 1)

    return _run("cross-model", "crystal datum extraction matches module extraction on strata",
                params, fld, "samples", body, clean="pass" if bound == 0 else "probabilistic-pass")


def check_transitions(g, word, bound, rng, fld=None, samples=1):
    """Transition-map coherence across every braid neighbor of a word.

    At each grid point the crystal side maps the datum through every braid
    move, and each stratum sample of the datum under `word` is read under
    every neighbour word: one component, with one parameter per reduced
    expression. The reads of one sample share it, so the reads under
    different neighbours are not independent draws; the miss bound of each
    read is unchanged.
    """
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "word": list(word),
        "bound": bound,
        "field": repr(fld),
        "samples": samples,
    }

    def body(details):
        moves = braid_moves(g, word)
        if not moves:
            return "no braid moves for this word"
        details.update(pairs_checked=0, samples=0, sampling_misses=0)
        for a in itertools.product(range(bound + 1), repeat=len(word)):
            d = datum(g, word, a)
            wt = weight(g, d)
            neighbours = []
            for pos, kind, moved in moves:
                details["pairs_checked"] += 1
                d2 = transition(g, d, pos, kind)
                if weight(g, d2) != wt:
                    _fail("weight", a=list(a), pos=pos)
                back = transition(g, d2, pos, kind)
                if back.a != d.a or back.word != word:
                    _fail("involution", a=list(a), pos=pos)
                if any(x < 0 for x in d2.a):
                    _fail("negative-entry", a=list(a), pos=pos)
                neighbours.append((pos, d2))
            reads = [d2.word for _, d2 in neighbours]
            for _, gots in _stratum_samples(g, word, a, samples, reads, rng, fld, details):
                for (pos, d2), got in zip(neighbours, gots):
                    if got is not None and got != d2.a:
                        _fail("cross-model", a=list(a), pos=pos, got=got)

    return _run("transitions", "rank-2 transition maps preserve weight and match the module side",
                params, fld, "pairs_checked", body)


def write_reports(reports, csv_path):
    """One CSV line per report: its check id, outcome and wall time."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", "outcome", "wall_time"])
        for r in reports:
            writer.writerow([r.check_id, r.outcome, f"{r.wall_time:.3f}"])
