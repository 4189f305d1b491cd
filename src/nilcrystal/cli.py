"""Command-line driver: beta tables, module dumps, extraction, verification.

Exit codes: 0 success, 1 mathematical failure, 2 bad mathematical input,
3 invalid module file, 4 infrastructure problems (bad flags, unknown suite,
unreadable or unwritable paths, a closed output pipe).

Words are given in application order; --paper-order accepts the reversed
display order used in the literature and flips it on input.
"""

import argparse
import json
import os
import random
import sys
import time

from . import crystal, veritas
from .errors import (
    GraphTooLarge,
    InvalidModuleFile,
    NilcrystalError,
    NonReducedWord,
    NotInGenericStratum,
)
from .fields import DEFAULT_PRIME, field_from_spec
from .prepmod import PModule, extract_datum, m_module, v_module
from .rootsys import CartanGraph, WeylWord, beta_sequence

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_MODULE_FILE = 3
EXIT_INFRA = 4

MIN_PRIME = 1 << 31


def _count(text):
    """A non-negative integer flag value; argparse exits on anything else."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def build_parser():
    p = argparse.ArgumentParser(
        prog="nilcrystal",
        description="preprojective-algebra modules and crystal data over exact fields",
    )
    p.add_argument("--graph", required=True, help="path to a graph JSON file")
    p.add_argument("--field", default=f"prime:{DEFAULT_PRIME}",
                   help="rat or prime:P with P > 2^31")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--paper-order", action="store_true",
                   help="interpret words in reversed display order")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field for byte-identical reruns")
    sub = p.add_subparsers(dest="command", required=True)

    roots = sub.add_parser("roots", help="beta table for a reduced word")
    roots.add_argument("word", type=int, nargs="+")

    mods = sub.add_parser("modules", help="module family dumps along a word")
    mods.add_argument("which", choices=["M", "V"])
    mods.add_argument("word", type=int, nargs="*")

    ext = sub.add_parser("extract", help="read the datum of a module file")
    ext.add_argument("module_file")
    ext.add_argument("word", type=int, nargs="+")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite",
                     choices=["all", "reflection-contracts", "modules", "cross-model", "transitions"])
    ver.add_argument("--word", type=int, nargs="+",
                     help="word for cross-model/transitions suites")
    ver.add_argument("--bound", type=_count, default=1, help="datum grid bound")
    ver.add_argument("--samples", type=_count, default=2, help="samples per grid point")
    ver.add_argument("--maxlen", type=_count, default=3,
                     help="word length bound for the modules suite")
    ver.add_argument("--corpus", type=_count, default=100,
                     help="corpus size for the reflection-contracts suite")
    ver.add_argument("--csv", help="also write a CSV summary to this path")
    return p


def _config_dict(args):
    cfg = {
        "graph": args.graph,
        "field": args.field,
        "seed": args.seed,
        "command": args.command,
        "paper_order": args.paper_order,
    }
    if not args.no_timestamp:
        cfg["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return cfg


def _load_graph(path):
    """The graph in a file, or the exit code that says why there is none."""
    try:
        return CartanGraph.from_file(path)
    except GraphTooLarge as exc:
        return _die(EXIT_BAD_INPUT, str(exc))
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        return _die(EXIT_INFRA, f"cannot read graph file: {exc}")


def _word(args):
    w = WeylWord(args.word)
    return w[::-1] if args.paper_order else w


def _die(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(args, text):
    """Print text, or write it to --out; returns the exit code."""
    if not args.out:
        print(text, flush=True)  # a closed pipe raises here, inside main
        return EXIT_OK
    try:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        return _die(EXIT_INFRA, f"cannot write {args.out}: {exc.strerror}")
    return EXIT_OK


def _field(args):
    fld = field_from_spec(args.field)
    if args.field.startswith("prime:") and fld.p <= MIN_PRIME:
        raise ValueError(f"prime field size must exceed 2^31, got {fld.p}")
    return fld


def cmd_roots(args, g):
    w = _word(args)
    betas = beta_sequence(g, w)
    if args.json:
        payload = {
            "config": _config_dict(args),
            "word": list(w),
            "betas": [list(b) for b in betas],
        }
        return _emit(args, json.dumps(payload, indent=1, sort_keys=True))
    lines = [f"{'k':>3} {'i_k':>4}  beta (alpha coefficients)"]
    for k, (i, b) in enumerate(zip(w, betas), start=1):
        lines.append(f"{k:>3} {i:>4}  {list(b)}")
    return _emit(args, "\n".join(lines))


def cmd_modules(args, g, fld):
    w = _word(args)
    rng = random.Random(args.seed)
    dumps = []
    for k in range(1, len(w) + 1):
        if args.which == "M":
            m = m_module(g, w, k, field=fld, rng=rng)
        else:  # V_k is N of the fundamental weight along the reversed prefix
            m = v_module(g, w, k, field=fld)
        dumps.append({"k": k, "letter": w[k - 1], "dims": list(m.dims),
                      "module": m.to_dict()})
    payload = {
        "config": _config_dict(args),
        "family": args.which,
        "word": list(w),
        "modules": dumps,
        "dims_summary": [d["dims"] for d in dumps],
    }
    if args.json:
        return _emit(args, json.dumps(payload, indent=1, sort_keys=True))
    lines = [f"{args.which} family along word {list(w)}"]
    for d in dumps:
        lines.append(f"  k={d['k']} (letter {d['letter']}): dims {tuple(d['dims'])}")
    return _emit(args, "\n".join(lines))


def cmd_extract(args, g):
    w = _word(args)
    try:
        x = PModule.load(args.module_file)
    except InvalidModuleFile as exc:
        return _die(EXIT_BAD_MODULE_FILE, f"invalid module file: {exc}")
    except OSError as exc:
        return _die(EXIT_INFRA, f"cannot read module file: {exc}")
    if x.graph != g:
        return _die(EXIT_BAD_MODULE_FILE,
                    "module file graph does not match --graph")
    try:
        a = extract_datum(g, w, x)
    except NotInGenericStratum as exc:
        print(f"not in a generic stratum for this word; "
              f"residual dims {exc.residual_dims}", file=sys.stderr)
        return EXIT_MATH_FAIL
    payload = {"config": _config_dict(args), **crystal.LusztigDatum(w, a).to_dict()}
    if args.json:
        return _emit(args, json.dumps(payload, indent=1, sort_keys=True))
    return _emit(args, f"a = {payload['a']}")


def cmd_verify(args, g, fld):
    reports = []
    suites = ([args.suite] if args.suite != "all"
              else ["reflection-contracts", "modules", "cross-model", "transitions"])
    if not args.word and {"cross-model", "transitions"} & set(suites):
        return _die(EXIT_INFRA, f"suite {args.suite} needs --word")
    for suite in suites:
        rng = random.Random(veritas.derive_seed(args.seed, suite))
        if suite == "reflection-contracts":
            reports.append(veritas.check_reflection_contracts(g, args.corpus, rng, fld=fld))
            reports.append(
                veritas.check_reflection_contracts(g, args.corpus, rng, fld=fld, twist=-1)
            )
        elif suite == "modules":
            reports.append(veritas.check_modules(g, args.maxlen, rng=rng, fld=fld))
        elif suite in ("cross-model", "transitions"):
            w = _word(args)
            if suite == "cross-model":
                reports.append(
                    veritas.check_cross_model(g, w, args.bound, args.samples, rng,
                                            fld=fld)
                )
            else:
                reports.append(
                    veritas.check_transitions(g, w, args.bound, rng, fld=fld,
                                              samples=args.samples)
                )
    payload = {
        "config": _config_dict(args),
        "note": "operational consequences are verified; the underlying "
                "bijection is not itself a computable object",
        "reports": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, indent=1, sort_keys=True)
    if _emit(args, text) != EXIT_OK:
        return EXIT_INFRA
    if args.csv:
        try:
            veritas.write_reports(reports, args.csv)
        except OSError as exc:
            return _die(EXIT_INFRA, f"cannot write {args.csv}: {exc.strerror}")
    ok = True
    for r in reports:
        if r.outcome == "vacuous-pass":  # passed, with the reason it checked nothing
            marker = f"VACUOUS ({r.details['warning']})"
        elif r.check_id == "reflection-contracts-mutated":
            # The flipped sign convention must break the cross witness; a
            # graph with no witness gave a vacuous pass above.
            marker = "FAIL (mutation not detected)" if r.passed else "PASS (mutation detected)"
            ok = ok and not r.passed
        else:
            marker = "PASS" if r.passed else "FAIL"
            ok = ok and r.passed
        print(f"{r.check_id}: {marker} ({r.wall_time:.2f}s)", file=sys.stderr)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INFRA if exc.code not in (0,) else 0
    g = _load_graph(args.graph)
    if isinstance(g, int):
        return g
    try:
        fld = _field(args)  # a bad spec exits 2 whichever command it came with
        if args.command == "roots":
            return cmd_roots(args, g)
        if args.command == "modules":
            return cmd_modules(args, g, fld)
        if args.command == "extract":
            return cmd_extract(args, g)
        if args.command == "verify":
            return cmd_verify(args, g, fld)
    except (NonReducedWord, ValueError) as exc:
        return _die(EXIT_BAD_INPUT, str(exc))
    except NilcrystalError as exc:
        return _die(EXIT_MATH_FAIL, str(exc))
    except BrokenPipeError:  # stdout to nowhere, so that the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
