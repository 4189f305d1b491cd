"""Carry one crystal element to every reduced word of the A3 longest
element in one braid walk, and confirm the module side agrees at each stop.

Run: python3 demos/transition_walk.py
"""

import random

from nilcrystal.crystal import datum, transport, weight
from nilcrystal.fields import default_field
from nilcrystal.prepmod import build_filtered, extract_datum
from nilcrystal.rootsys import all_reduced_words_upto, a_n


def main():
    g = a_n(3)
    words = sorted(all_reduced_words_upto(g, 6)[6])
    print(f"{len(words)} reduced words for the longest element")

    base = words[0]
    d = datum(g, base, (1, 0, 1, 0, 1, 0))
    print(f"base word {list(base)}, datum {list(d.a)}, "
          f"weight {list(weight(g, d))}")

    f = default_field()
    rng = random.Random(7)
    x = build_filtered(g, base, d.a, rng, field=f)

    carried = transport(g, d)
    for w in words:
        moved = carried[w]
        got = extract_datum(g, w, x)
        mark = "ok" if got == moved.a else "MISMATCH"
        print(f"  word {list(w)}: datum {list(moved.a)}  "
              f"module reads {list(got)}  {mark}")


if __name__ == "__main__":
    main()
