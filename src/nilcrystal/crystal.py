"""Combinatorial datum model for crystal elements attached to a Weyl word.

An element is named by a reduced word plus a tuple of naturals in
application order. Its weight, the rank-2 transition maps across braid
moves, and braid-path transport to another reduced word of the same Weyl
element live here.
"""

from dataclasses import dataclass

from .errors import (
    CapExceeded,
    DifferentWeylElement,
    InvalidMovePosition,
    LengthMismatch,
)
from .rootsys import (
    WeylWord,
    braid_moves,
    mu,
    require_reduced,
    weyl_action_matrix,
)

CONVENTION = "application-order; first letter acts first"


@dataclass(frozen=True)
class LusztigDatum:
    word: WeylWord
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))

    def to_dict(self):
        return {
            "convention": CONVENTION,
            "word": list(self.word.letters),
            "a": list(self.a),
        }

    @staticmethod
    def from_dict(g, data):
        return datum(g, WeylWord(tuple(data["word"])), tuple(data["a"]))


def datum(g, word, a):
    """Validated datum: reduced word, matching tuple length."""
    require_reduced(g, word)
    if len(a) != len(word):
        raise LengthMismatch(f"|a|={len(a)} but word length is {len(word)}")
    if any(x < 0 for x in a):
        raise ValueError("datum entries must be nonnegative")
    return LusztigDatum(word, tuple(a))


def _move_at(g, d, pos, kind):
    for p, k, moved in braid_moves(g, d.word):
        if p == pos and k == kind:
            return moved
    raise InvalidMovePosition(f"no {kind} at position {pos} of {d.word.letters}")


def transition_2move(g, d, pos):
    """Swap the entries across a commuting pair."""
    moved = _move_at(g, d, pos, "2-move")
    a = list(d.a)
    a[pos], a[pos + 1] = a[pos + 1], a[pos]
    return LusztigDatum(moved, tuple(a))


def transition_3move(g, d, pos):
    """Piecewise-linear transport across a single-edge braid triple.

    On consecutive entries (x, y, z) in application order, with
    p = min(x, z): (x, y, z) -> (y + z - p, p, x + y - p). Involutive and
    weight-preserving.
    """
    moved = _move_at(g, d, pos, "3-move")
    x, y, z = d.a[pos], d.a[pos + 1], d.a[pos + 2]
    p = min(x, z)
    a = list(d.a)
    a[pos], a[pos + 1], a[pos + 2] = y + z - p, p, x + y - p
    return LusztigDatum(moved, tuple(a))


def transition(g, d, pos, kind):
    if kind == "2-move":
        return transition_2move(g, d, pos)
    if kind == "3-move":
        return transition_3move(g, d, pos)
    raise InvalidMovePosition(f"unknown move kind {kind!r}")


def neighbors(g, d):
    """All one-move transports of a datum."""
    return [transition(g, d, p, k) for p, k, _ in braid_moves(g, d.word)]


def transport(g, d, target_word, cap=10000):
    """Transport a datum to another reduced word of the same Weyl element."""
    require_reduced(g, target_word)
    if weyl_action_matrix(g, d.word) != weyl_action_matrix(g, target_word):
        raise DifferentWeylElement(
            f"{d.word.letters} and {target_word.letters} differ as Weyl elements"
        )
    seen = {d.word.letters: d}
    queue = [d]
    while queue:
        cur = queue.pop()
        if cur.word.letters == target_word.letters:
            return cur
        for nxt in neighbors(g, cur):
            if nxt.word.letters not in seen:
                seen[nxt.word.letters] = nxt
                if len(seen) > cap:
                    raise CapExceeded(f"braid transport exceeds cap {cap}")
                queue.append(nxt)
    raise RuntimeError(f"braid moves from {d.word.letters} ran out before {target_word.letters}: "
                       "by Matsumoto-Tits a search can only reach its target or its cap")


def weight(g, d):
    """Root-basis weight of the datum (sign convention: positive sum)."""
    return mu(g, d.word, d.a)
