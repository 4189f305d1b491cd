"""Walk through the root-system layer: beta sequences and braid closures.

Run: python3 demos/beta_tables.py
"""

from nilcrystal.rootsys import a_n, affine_a1, beta_sequence, is_reduced, reduced_words


def show(g, name, w):
    print(f"{name}, word {w}:")
    for k, (i, b) in enumerate(zip(w, beta_sequence(g, w)), start=1):
        print(f"  beta_{k} (letter {i}) = {list(b)}")


def main():
    a2 = a_n(2)
    show(a2, "A2", (1, 2, 1))

    print("\nAll reduced words for the A2 longest element:")
    for w in sorted(reduced_words(a2, (1, 2, 1))):
        print(f"  {list(w)}")

    # Beta positivity detects non-reduced words without any length table,
    # so it also works where the Weyl group is infinite.
    aff = affine_a1()
    w = (1, 2, 1, 2, 1, 2)
    print(f"\naffine A1, word {list(w)} reduced: {is_reduced(aff, w)}")
    show(aff, "affine A1", (1, 2, 1, 2))
    print(f"A2 word [1, 2, 1, 2] reduced: {is_reduced(a2, (1, 2, 1, 2))}")


if __name__ == "__main__":
    main()
