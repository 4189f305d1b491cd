"""Combinatorial datum model for crystal elements attached to a Weyl word.

An element is named by a reduced word plus a tuple of naturals in
application order. Its weight, the rank-2 transition maps across braid
moves, and braid-path transport to another reduced word of the same Weyl
element live here.
"""

from dataclasses import dataclass

from .errors import DifferentWeylElement, InvalidMovePosition, LengthMismatch
from .rootsys import (
    braid_moves,
    braid_walk,
    mu,
    require_reduced,
    weyl_action_matrix,
)

CONVENTION = "application-order; first letter acts first"


@dataclass(frozen=True)
class LusztigDatum:
    word: tuple
    a: tuple

    def to_dict(self):
        return {
            "convention": CONVENTION,
            "word": list(self.word),
            "a": list(self.a),
        }


def datum(g, word, a):
    """Validated datum: reduced word, matching tuple length, entries naturals.

    ValueError for an entry that is not an int (bool included)."""
    require_reduced(g, word)
    a = tuple(a)
    if len(a) != len(word):
        raise LengthMismatch(f"|a|={len(a)} but word length is {len(word)}")
    if any(type(x) is not int for x in a):
        raise ValueError(f"datum entries must be integers, got {a!r}")
    if any(x < 0 for x in a):
        raise ValueError("datum entries must be nonnegative")
    return LusztigDatum(word, a)


def _move_at(g, d, pos, kind):
    for p, k, moved in braid_moves(g, d.word):
        if p == pos and k == kind:
            return moved
    raise InvalidMovePosition(f"no {kind} at position {pos} of {d.word}")


def transition(g, d, pos, kind):
    """The datum across the braid move (pos, kind) of its word.

    A 2-move swaps the entries of a commuting pair. A 3-move is the
    piecewise-linear map of a single-edge braid triple: on consecutive
    entries (x, y, z) in application order, with p = min(x, z),
    (x, y, z) -> (y + z - p, p, x + y - p). Both are involutive and
    weight-preserving.
    """
    moved = _move_at(g, d, pos, kind)
    a = list(d.a)
    if kind == "2-move":
        a[pos], a[pos + 1] = a[pos + 1], a[pos]
    else:
        x, y, z = a[pos:pos + 3]
        p = min(x, z)
        a[pos:pos + 3] = y + z - p, p, x + y - p
    return LusztigDatum(moved, tuple(a))


def transport(g, d, target_word, cap=10000):
    """Transport a datum to another reduced word of the same Weyl element,
    carrying it along rootsys.braid_walk."""
    require_reduced(g, target_word)
    if weyl_action_matrix(g, d.word) != weyl_action_matrix(g, target_word):
        raise DifferentWeylElement(f"{d.word} and {target_word} differ as Weyl elements")
    at = {d.word: d}
    for word, parent, move in braid_walk(g, d.word, cap):
        if parent is not None:
            at[word] = transition(g, at[parent], *move)
        if word == target_word:
            return at[word]
    raise RuntimeError(f"braid moves from {d.word} ran out before {target_word}: "
                       "by Matsumoto-Tits a search can only reach its target or its cap")


def weight(g, d):
    """Root-basis weight of the datum (sign convention: positive sum)."""
    return mu(g, d.word, d.a)
