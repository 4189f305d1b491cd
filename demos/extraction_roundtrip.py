"""Build a random module in a stratum, then read its datum back off.

The builder stacks random self-extensions of the layer modules M_k along a
reduced word; extraction alternates socle reads at the current letter with
backward reflections. Run: python3 demos/extraction_roundtrip.py
"""

import random

from nilcrystal.fields import default_field
from nilcrystal.prepmod import build_filtered, extract_datum, m_module
from nilcrystal.rootsys import a_n, beta_sequence


def main():
    g = a_n(3)
    w = (1, 2, 1, 3, 2, 1)
    a = (1, 0, 2, 1, 0, 1)
    f = default_field()
    rng = random.Random(2026)

    print(f"word {list(w)}, target datum {list(a)}")
    print("layer modules and their dimension vectors (equal to the betas):")
    for k, b in enumerate(beta_sequence(g, w), start=1):
        m = m_module(g, w, k, field=f)
        print(f"  M_{k}: dims {m.dims}  beta {list(b)}")

    x = build_filtered(g, w, a, rng, field=f)
    print(f"\nsampled module dims: {x.dims}")

    trace = []
    got = extract_datum(g, w, x, trace=trace)
    print("extraction trace (socle read, residual dims):")
    for step, (e, dims) in enumerate(trace, start=1):
        print(f"  step {step} at letter {w[step - 1]}: a_{step} = {e}, "
              f"residual {dims}")
    print(f"recovered datum: {list(got)}  round trip ok: {got == a}")


if __name__ == "__main__":
    main()
