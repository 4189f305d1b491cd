"""Processor time of the benchmark's process, rescaled to a nominal host speed.

The benchmark runs on a virtual machine that shares its processors with
other tenants. Two things make wall times of the same work disagree:

- the hypervisor takes the processor away (steal time). Wall time counts
  those gaps; the process's processor time does not. Over 2 s rounds of
  identical work, wall time varied by 20% (coefficient of variation) and
  processor time by 6%.
- while it runs, the processor itself runs Python at a drifting speed
  (shared caches, sibling hyperthreads, clock frequency). A fixed pure-Python
  loop read 0.4-2.6 ms for the same work within minutes.

So every time here is processor time (`time.process_time`, plus the time of
waited-for child processes, so that work moved to workers still counts),
and it is rescaled by a reference loop run next to it:

    corrected = raw * NOMINAL_REF_S / reference time

is the time on a host where the loop takes exactly NOMINAL_REF_S. The loop
row-reduces a fixed 12x12 matrix mod 2^61 - 1 with the output checker's own
elimination (`oracle.rank_mod`), which calls nothing in nilcrystal: the same
kind of work as the program's `rref` (list comprehensions, big-int products,
modular reduction). With both corrections, the same 2 s rounds varied by
1.5-2.1% in such probes.
"""

import random
import resource
import time

import oracle

_P = 2**61 - 1


def _fixed_matrix(n):
    rng = random.Random(20111010)
    return [[rng.randrange(_P) for _ in range(n)] for _ in range(n)]


_MATRIX = _fixed_matrix(12)

# The nominal speed: the host at which one reference loop takes 1 ms. On the
# 2-core x86-64 VM (Python 3.11) where the benchmark was tuned, the loop took
# 0.6-1.6 ms of processor time, so corrected and raw rates are close.
NOMINAL_REF_S = 0.001
# Reference time run after each item, as a share of the item's time.
REF_SHARE = 0.05
REF_MAX_LOOPS = 40


def cpu_time():
    """Processor seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_loop():
    return oracle.rank_mod(_MATRIX, len(_MATRIX), _P)


def time_reference():
    t0 = cpu_time()
    reference_loop()
    return cpu_time() - t0


def reference_mean(k):
    """The mean time of max(1, min(k, REF_MAX_LOOPS)) reference loops."""
    k = max(1, min(int(k), REF_MAX_LOOPS))
    return sum(time_reference() for _ in range(k)) / k


class ItemClock:
    """Times callables, and the reference loop on each side of them.

    A single reading of the loop is noisy, so the gap after an item runs the
    loop for about REF_SHARE of the item's time and reads the mean. The
    reading after one item also serves as the reading before the next.
    Whatever runs between two timed items (output checks) lies outside both
    the item and the loop.
    """

    def __init__(self):
        self.last_ref = time_reference()

    def time(self, fn):
        """Run fn(); return (result, processor s, reference s, wall s)."""
        before = self.last_ref
        w0, t0 = time.perf_counter(), cpu_time()
        out = fn()
        raw, wall = cpu_time() - t0, time.perf_counter() - w0
        self.last_ref = reference_mean(raw * REF_SHARE / before)
        return out, raw, (before + self.last_ref) / 2, wall


def corrected(raw, ref):
    return raw * NOMINAL_REF_S / ref
