"""Verification harness: runs the contract suites and emits replayable reports.

Each check gets a deterministic seed derived from (master seed, job id);
failing reports carry a serialized witness sufficient to replay the case.
Mathematical failures are recorded outcomes, never exceptions.
"""

import csv
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from .crystal import datum, extraction_chain, transition, weight
from .errors import InternalRelationFailure, NotInGenericStratum
from .fields import RationalField, default_field, field_size
from .linalg import Mat, is_invertible
from .prepmod import (
    PModule,
    arrows_into,
    arrows_of,
    build_filtered,
    eps_star_mod,
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
    soc_i,
    socle_dims,
    top_i_dim,
    v_module,
    weight_to_root,
    zero_module,
)
from .prepmod.families import _reflected
from .rootsys import (
    Weight,
    WeylWord,
    all_reduced_words_upto,
    apply_word_to_weight,
    beta_sequence,
    braid_moves,
    is_reduced,
    reflect_root,
)

RETRY_BUDGET = 8


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
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "params": self.params,
            "outcome": self.outcome,
            "confidence": self.confidence,
            "witness": self.witness,
            "wall_time": self.wall_time,
            "details": self.details,
        }

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
    Returns None when no vertex has two incoming arrows (e.g. one edge).
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


def random_corpus(g, size, rng, fld, max_total_dim=12, layers=3):
    """Random nilpotent modules: iterated random extensions of simples."""
    out = []
    for _ in range(size):
        x = zero_module(g, fld)
        budget = rng.randrange(1, max_total_dim + 1)
        for _ in range(rng.randrange(1, layers + 1)):
            room = budget - x.total_dim
            if room <= 0:
                break
            mults = [0] * g.n
            for _ in range(rng.randrange(1, room + 1)):
                mults[rng.randrange(g.n)] += 1
            layer = semisimple(g, mults, field=fld)
            x = random_extension(x, layer, rng)
        # The corpus is a trust boundary, so each module gets the relation
        # and nilpotency checks that random_extension leaves out.
        x.validate()
        out.append(x)
    return out


def check_reflection_contracts(g, corpus_size, rng, fld=None, twist=1):
    """Reflection-functor contracts on a random corpus.

    Families: exactness on one-sided-trivial modules, the two functorial
    short exact sequences, the single-edge braid isomorphism, and the
    dimension-vector reflection law. With twist=-1 the flipped sign
    convention must fail its self-checks (mutation mode).
    """
    t0 = time.time()
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "corpus_size": corpus_size,
        "twist": twist,
        "field": repr(fld),
    }
    claim = "reflection functor exact sequences, braid isomorphism, dims law"
    if corpus_size == 0:
        return CheckReport(
            "reflection-contracts", claim, params, "vacuous-pass",
            details={"warning": "empty corpus"}, wall_time=time.time() - t0,
        )
    corpus = random_corpus(g, corpus_size, rng, fld)
    witness_mod = cross_witness(g, fld)
    if witness_mod is not None:
        corpus.insert(0, witness_mod)
    checked = 0
    failures = []

    def fail(kind, m, extra=None):
        failures.append({"kind": kind, "module": m.to_dict(), "extra": extra})

    for m in corpus:
        if failures:
            break
        for i in g.vertices():
            try:
                sm = sigma(i, m, twist=twist)
                ssm = sigma_star(i, m, twist=twist)
                # The functors check only shapes: the relations are checked here.
                sm.validate(_nilpotency=False)
                ssm.validate(_nilpotency=False)
            except InternalRelationFailure as exc:
                fail("construction", m, str(exc))
                break
            checked += 1
            # Dimension law on one-sided-trivial modules.
            si_dims = reflect_root(g, i, m.dim_vector()).coeffs
            if top_i_dim(m, i) == 0 and sm.dims != si_dims:
                fail("dims-forward", m, {"vertex": i, "got": sm.dims})
                break
            if soc_i(m, i).dim_at(i) == 0 and ssm.dims != si_dims:
                fail("dims-backward", m, {"vertex": i, "got": ssm.dims})
                break
            # Functorial sequences: surjection onto forward-of-backward with
            # kernel the socle part; injection of backward-of-forward with
            # cokernel the top part.
            fwd_bwd = sigma(i, ssm, twist=twist)
            surj = find_surjective_hom(m, fwd_bwd, rng=rng)
            if surj is None:
                fail("no-surjection", m, {"vertex": i})
                break
            ker = surj.kernel()
            soc = soc_i(m, i)
            if ker.dims() != soc.dims():
                fail("kernel-not-socle", m, {"vertex": i, "kernel": ker.dims()})
                break
            bwd_fwd = sigma_star(i, sm, twist=twist)
            inj = find_injective_hom(bwd_fwd, m, rng=rng)
            if inj is None:
                fail("no-injection", m, {"vertex": i})
                break
            codim = m.total_dim - bwd_fwd.total_dim
            if codim != top_i_dim(m, i):
                fail("cokernel-not-top", m, {"vertex": i, "codim": codim})
                break
        if failures:
            break
        # One-sided exactness through a random extension triple.
        for i in g.vertices():
            mults = [rng.randrange(2) for _ in range(g.n)]
            if sum(mults) == 0:
                mults[rng.randrange(g.n)] = 1
            quot = semisimple(g, mults, field=fld)
            x = random_extension(m, quot, rng)
            incl, proj = extension_maps(m, x, quot)
            try:
                s_incl = sigma_on_map(i, incl, twist=twist)
                s_proj = sigma_on_map(i, proj, twist=twist)
            except (InternalRelationFailure, ValueError) as exc:
                fail("functor-on-map", m, str(exc))
                break
            checked += 1
            if not s_incl.is_injective():
                fail("left-exactness-mono", m, {"vertex": i})
                break
            # Exactness in the middle: ker(sigma proj) = im(sigma incl).
            if s_proj.kernel().dims() != s_incl.image().dims():
                fail("left-exactness-middle", m, {"vertex": i})
                break
            try:
                ss_proj = sigma_star_on_map(i, proj, twist=twist)
            except (InternalRelationFailure, ValueError) as exc:
                fail("functor-on-map", m, str(exc))
                break
            if not ss_proj.is_surjective():
                fail("right-exactness-epi", m, {"vertex": i})
                break
        if failures:
            break
        # Single-edge braid isomorphism.
        for (u, v) in {frozenset(e) for e in g.edges}:
            if g.edge_count(u, v) != 1:
                continue
            lhs = sigma(u, sigma(v, sigma(u, m, twist=twist), twist=twist), twist=twist)
            rhs = sigma(v, sigma(u, sigma(v, m, twist=twist), twist=twist), twist=twist)
            checked += 1
            if not is_iso(lhs, rhs, rng=rng):
                fail("braid-iso", m, {"pair": [u, v]})
                break
        if failures:
            break

    outcome = "fail" if failures else "probabilistic-pass"
    return CheckReport(
        "reflection-contracts" if twist == 1 else "reflection-contracts-mutated",
        claim,
        params,
        outcome,
        confidence=_confidence_str(fld),
        witness=failures[0] if failures else None,
        wall_time=time.time() - t0,
        details={"contracts_checked": checked},
    )


def check_modules(g, maxlen, rng=None, fld=None, socle_chain_oracle=False):
    """Module-family laws over every reduced word up to a length bound.

    Verifies the socle and dimension-vector laws of the quotient family,
    agreement of the two subquotient routes, beta dimension vectors,
    trivial tops of partial reflection products, and (optionally, finite
    type) the socle-chain construction of the submodule family.
    """
    t0 = time.time()
    fld = fld or default_field()
    rng = rng or random.Random(0)
    params = {
        "graph": g.to_dict(),
        "maxlen": maxlen,
        "field": repr(fld),
        "socle_chain_oracle": socle_chain_oracle,
    }
    claim = "module family laws: socles, dims, route agreement, trivial tops"
    failures = []
    words_checked = 0
    injectives = {}
    if socle_chain_oracle:
        injectives = {i: injective_module(g, i, fld) for i in g.vertices()}
    by_len = all_reduced_words_upto(g, maxlen)
    for l in range(1, maxlen + 1):
        for w in by_len[l]:
            if failures:
                break
            words_checked += 1
            betas = beta_sequence(g, w)
            # Quotient-family laws for the full word, one per final letter.
            for i in g.vertices():
                lam = Weight.fundamental(g.n, i)
                rev = WeylWord(tuple(reversed(w.letters)))
                drop = lam - apply_word_to_weight(g, rev, lam)
                if all(c == 0 for c in drop.coeffs):
                    continue
                nm = n_module(g, rev, lam, fld)
                want = weight_to_root(g, drop) if _cartan_invertible(g) else None
                if want is not None and nm.dims != want.coeffs:
                    failures.append({"kind": "n-dims", "word": list(w.letters), "i": i})
                    break
                socs = socle_dims(nm)
                expected_soc = tuple(1 if j == i else 0 for j in g.vertices())
                if socs != expected_soc:
                    failures.append({"kind": "n-socle", "word": list(w.letters), "i": i})
                    break
                # Trivial top for letters extending the word.
                ext = WeylWord(rev.letters + (i,))
                if is_reduced(g, ext):
                    nh = n_hat(g, rev, lam, fld)
                    if top_i_dim(nh, i) != 0:
                        failures.append(
                            {"kind": "nhat-top", "word": list(w.letters), "i": i}
                        )
                        break
            if failures:
                break
            for k in range(1, l + 1):
                m_ref = m_module(g, w, k, route="reflection", field=fld)
                if m_ref.dims != betas[k - 1].coeffs:
                    failures.append(
                        {"kind": "m-dims", "word": list(w.letters), "k": k,
                         "got": m_ref.dims, "want": betas[k - 1].coeffs}
                    )
                    break
                m_cok = m_module(g, w, k, route="cokernel", field=fld, rng=rng)
                if not is_iso(m_ref, m_cok, rng=rng):
                    failures.append(
                        {"kind": "m-routes", "word": list(w.letters), "k": k,
                         "reflection": m_ref.to_dict(), "cokernel": m_cok.to_dict()}
                    )
                    break
                # Trivial tops of every partial product: the simple at
                # w[k-1] reflected along w[k-2], ..., w[ll-1], which the
                # memo holds as prefixes of the m_module key above.
                simple_dims = tuple(int(j == w[k - 1]) for j in g.vertices())
                for ll in range(k - 1, 1, -1):
                    letters = tuple(reversed(w.letters[ll - 1 : k - 1]))
                    part = _reflected(g, fld, simple_dims, letters)
                    if top_i_dim(part, w[ll - 2]) != 0:
                        failures.append(
                            {"kind": "partial-top", "word": list(w.letters),
                             "k": k, "l": ll - 1}
                        )
                        break
                if failures:
                    break
                if socle_chain_oracle:
                    seq = tuple(reversed(w.letters[:k]))
                    sub = soc_chain(injectives[w[k - 1]], seq)
                    vsc, _ = sub.as_module()
                    v = v_module(g, w, k, field=fld)
                    if not is_iso(vsc, v, rng=rng):
                        failures.append(
                            {"kind": "v-socle-chain", "word": list(w.letters), "k": k}
                        )
                        break
        if failures:
            break
    outcome = "fail" if failures else "probabilistic-pass"
    return CheckReport(
        "modules",
        claim,
        params,
        outcome,
        confidence=_confidence_str(fld),
        witness=failures[0] if failures else None,
        wall_time=time.time() - t0,
        details={"words_checked": words_checked},
    )


def _cartan_invertible(g):
    return is_invertible(Mat.from_int_rows(RationalField(), g.cartan(), ncols=g.n))


def check_cross_model(g, word, bound, samples, rng, fld=None):
    """Cross-model law on a full datum grid for one word.

    Per sample: weight law, first-socle law, equality of crystal and
    module extraction, and the stepwise residual law along the chain.
    """
    t0 = time.time()
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "word": list(word.letters),
        "bound": bound,
        "samples": samples,
        "field": repr(fld),
    }
    claim = "crystal datum extraction matches module extraction on strata"
    failures = []
    grid_points = 0
    misses = 0
    stepwise_misses = 0
    total_samples = 0
    r = len(word)
    for a in itertools.product(range(bound + 1), repeat=r):
        if failures:
            break
        grid_points += 1
        d = datum(g, word, a)
        cert = extraction_chain(g, d)
        expected_weight = weight(g, d)
        for _ in range(samples):
            total_samples += 1
            x = build_filtered(g, word, a, rng, field=fld)
            if x.dims != expected_weight.coeffs:
                failures.append({"kind": "weight-law", "a": list(a), "dims": x.dims})
                break
            if eps_star_mod(word[0], x) != (a[0] if r else 0):
                failures.append({"kind": "socle-law", "a": list(a),
                                 "module": x.to_dict()})
                break
            rebuild = lambda: build_filtered(g, word, a, rng, field=fld)
            got, x = _extract_with_retry(g, word, x, rebuild)
            if got is None:
                misses += 1
                continue
            if got != cert.exponents:
                failures.append({"kind": "chain-mismatch", "a": list(a), "got": got})
                break
            # Stepwise: residual after each backward reflection carries the
            # truncated tuple under the shortened word.
            res = x
            for step in range(r):
                res = sigma_star(word[step], res)
                short = WeylWord(word.letters[step + 1:])
                try:
                    tail = extract_datum(g, short, res)
                except NotInGenericStratum:
                    stepwise_misses += 1
                    tail = None
                if tail is not None and tail != tuple(a[step + 1:]):
                    failures.append(
                        {"kind": "stepwise", "a": list(a), "step": step, "tail": tail}
                    )
                    break
            if failures:
                break
    details = {"grid_points": grid_points, "samples": total_samples,
               "sampling_misses": misses, "miss_rate": misses / max(total_samples, 1)}
    if stepwise_misses:  # absent when every stepwise tail was read
        details["stepwise_misses"] = stepwise_misses
    clean = "pass" if bound == 0 else "probabilistic-pass"
    return _sampled_report("cross-model", claim, params, fld, t0, failures, details, clean)


def _sampled_report(check_id, claim, params, fld, t0, failures, details, clean):
    """The report of a check on stratum samples: `clean` unless it failed,
    and a vacuous pass, saying so, when no sample was read back."""
    outcome = "fail" if failures else clean
    if not failures and details["sampling_misses"] == details["samples"]:
        outcome = "vacuous-pass"
        details["warning"] = "no sample was read back from the generic stratum"
    return CheckReport(check_id, claim, params, outcome, confidence=_confidence_str(fld),
                       witness=failures[0] if failures else None,
                       wall_time=time.time() - t0, details=details)


def _extract_with_retry(g, word, x, rebuild):
    """Extraction with fresh-sample retries: (tuple, module read) or (None, None)."""
    for attempt in range(RETRY_BUDGET + 1):
        if attempt:
            x = rebuild()
        try:
            return extract_datum(g, word, x), x
        except NotInGenericStratum:
            continue
    return None, None


def check_transitions(g, word, bound, rng, fld=None, samples=1):
    """Transition-map coherence across every braid neighbor of a word."""
    t0 = time.time()
    fld = fld or default_field()
    params = {
        "graph": g.to_dict(),
        "word": list(word.letters),
        "bound": bound,
        "field": repr(fld),
        "samples": samples,
    }
    claim = "rank-2 transition maps preserve weight and match the module side"
    moves = braid_moves(g, word)
    if not moves:
        return CheckReport(
            "transitions", claim, params, "vacuous-pass",
            details={"warning": "no braid moves for this word"},
            wall_time=time.time() - t0,
        )
    failures = []
    pairs_checked = 0
    misses = 0
    total = 0
    r = len(word)
    for a in itertools.product(range(bound + 1), repeat=r):
        if failures:
            break
        d = datum(g, word, a)
        for pos, kind, moved in moves:
            pairs_checked += 1
            d2 = transition(g, d, pos, kind)
            if weight(g, d2).coeffs != weight(g, d).coeffs:
                failures.append({"kind": "weight", "a": list(a), "pos": pos})
                break
            back = transition(g, d2, pos, kind)
            if back.a != d.a or back.word.letters != word.letters:
                failures.append({"kind": "involution", "a": list(a), "pos": pos})
                break
            if any(x < 0 for x in d2.a):
                failures.append({"kind": "negative-entry", "a": list(a), "pos": pos})
                break
            for _ in range(samples):
                total += 1
                x = build_filtered(g, word, a, rng, field=fld)
                rebuild = lambda: build_filtered(g, word, a, rng, field=fld)
                got, _ = _extract_with_retry(g, d2.word, x, rebuild)
                if got is None:
                    misses += 1
                    continue
                if got != d2.a:
                    failures.append(
                        {"kind": "cross-model", "a": list(a), "pos": pos, "got": got}
                    )
                    break
            if failures:
                break
    details = {"pairs_checked": pairs_checked, "samples": total, "sampling_misses": misses}
    return _sampled_report("transitions", claim, params, fld, t0, failures, details,
                           "probabilistic-pass")


def write_reports(reports, json_path=None, csv_path=None):
    data = [r.to_dict() for r in reports]
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_id", "outcome", "wall_time"])
            for r in reports:
                writer.writerow([r.check_id, r.outcome, f"{r.wall_time:.3f}"])
    return data


def all_pass(reports):
    return all(r.passed for r in reports)
