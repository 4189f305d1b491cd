"""Benchmark of nilcrystal: stratum sampling, module families, reflection suite.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src and the
graphs are read from ./graphs. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced pass. See bench/README.md.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 7
SETUP_REF_LOOPS = 10


def _purge_program():
    for name in [m for m in sys.modules if m == "nilcrystal" or m.startswith("nilcrystal.")]:
        del sys.modules[name]


def _attempt(item):
    """Run one item; a raised error is a failed operation, not a crash."""
    try:
        return True, item.run()
    except Exception:  # the program's error, reported and counted
        return False, traceback.format_exc()


class Tally:
    """Items, failures, seconds (processor, corrected, reference, wall), and
    output problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self.ref_s = 0.0
        self.wall_s = 0.0
        self.problems = []

    def run(self, items, clock):
        for item in items:
            (ok, out), raw, ref, wall = clock.time(lambda: _attempt(item))
            self.attempted += 1
            self.raw_s += raw
            self.wall_s += wall
            self.ref_s += ref
            self.corrected_s += hostspeed.corrected(raw, ref)
            if not ok:
                self.failed += 1
                print(f"failed: {item.label}\n{out}", file=sys.stderr)
                continue
            self.problems += [f"{item.label}: {p}" for p in item.check(out)]
        return self


def set_up(name, seed):
    """Import the program, load graphs, make the items, run one warm-up item.

    Repeated SETUP_REPEATS times, re-importing the program each time. The
    first repeat counts the processor time since the process started. The
    reference loop runs before and after each repeat, outside its time.
    Returns the program, the items, the processor and wall set-up times,
    the reference readings, and output problems.
    """
    raws, walls, refs, problems = [], [], [], []
    for rep in range(SETUP_REPEATS):
        c0 = hostspeed.cpu_time()
        ref_before = hostspeed.reference_mean(SETUP_REF_LOOPS)
        c1, w1 = hostspeed.cpu_time(), time.perf_counter()
        if rep:
            _purge_program()
        prog = workloads.Program(ROOT)
        items = workloads.WORKLOADS[name](prog, seed)
        ok, out = _attempt(items[0])
        raws.append(hostspeed.cpu_time() - (c1 - c0 if rep == 0 else c1))
        walls.append(time.perf_counter() - (START if rep == 0 else w1))
        refs.append((ref_before + hostspeed.reference_mean(SETUP_REF_LOOPS)) / 2)
        if not ok:
            problems.append(f"warm-up {items[0].label} failed:\n{out}")
        else:
            problems += [f"warm-up {items[0].label}: {p}" for p in items[0].check(out)]
    return prog, items, raws, walls, refs, problems


def _rounds(items, clock, seconds):
    """Whole rounds of the item list, ending as close to `seconds` as they can."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(Tally().run(items, clock))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds


def traced_pass(prog, name, seed, clock):
    """One traced set-up (items and warm-up, after imports) and one round."""
    tracer = layers.Tracer()
    tracer.install()
    try:
        items = workloads.WORKLOADS[name](prog, seed)
        _attempt(items[0])
        top_before = tracer.top_s
        tally = Tally().run(items, clock)
        coverage = (tracer.top_s - top_before) / tally.raw_s
    finally:
        tracer.restore()
    return tracer, tally, coverage


def measure(name, seed, seconds, trace):
    prog, items, setup_raw, setup_wall, setup_refs, problems = set_up(name, seed)
    clock = hostspeed.ItemClock()
    rounds = _rounds(items, clock, seconds / 2 if trace else seconds)
    result = {
        "workload": name, "seed": seed, "trace": trace, "items_per_round": len(items),
        "setup_raw_s": setup_raw, "setup_wall_s": setup_wall, "setup_ref_s": setup_refs,
        "rounds": [{"raw_s": r.raw_s, "corrected_s": r.corrected_s, "ref_s": r.ref_s,
                    "wall_s": r.wall_s, "attempted": r.attempted, "failed": r.failed}
                   for r in rounds],
    }
    tallies = list(rounds)
    if trace:
        tracer, tally, coverage = traced_pass(prog, name, seed, clock)
        tallies.append(tally)
        untraced = statistics.median(r.corrected_s for r in rounds)
        scale = hostspeed.NOMINAL_REF_S * tally.attempted / tally.ref_s
        metrics = tracer.metrics(scale, tally.corrected_s / untraced, coverage)
        result["traced_round"] = {"raw_s": tally.raw_s, "corrected_s": tally.corrected_s}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems += [p for t in tallies for p in t.problems]
    done = sum(r.attempted - r.failed for r in rounds)
    result["raw_items_per_s"] = done / sum(r.raw_s for r in rounds)
    result["wall_items_per_s"] = done / sum(r.wall_s for r in rounds)
    result["problems"] = problems[:20]
    if not trace:
        metrics = {
            "items_per_s": {"value": done / sum(r.corrected_s for r in rounds),
                            "unit": "1/s"},
            # Medians of the times and of the readings: one spike of either
            # cannot move the result.
            "setup_s": {"value": hostspeed.corrected(statistics.median(setup_raw),
                                                     statistics.median(setup_refs)),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result["metrics"] = metrics
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nilcrystal" / "__init__.py").is_file() \
            or not (ROOT / "graphs").is_dir():
        print(f"error: no nilcrystal source tree (src/nilcrystal, graphs) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    summary, result = measure(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for line in result["problems"]:
        print(f"problem: {line}", file=sys.stderr)
    rounds = result["rounds"]
    print(f"{args.workload}: {len(rounds)} rounds of {result['items_per_round']} items, "
          f"uncorrected {result['raw_items_per_s']:.2f} items per processor second, "
          f"{result['wall_items_per_s']:.2f} per wall second; details in {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
