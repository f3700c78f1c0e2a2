"""Shifted sub-poset copies and chain tilings.

A copy of the height-m prototype rooted at vertex (r, k) picks, independently
for each offset s = 1..m, an F_s-subset of the positions at level k+s. Its
maximal chains form the Cartesian product of the chosen subsets. A tiling is
an exact cover: a family of copies with one shared root whose chain families
partition all maximal chains from the root up to level k+m.

Fix every coordinate of a chain but the s-th: each copy meets that line of
F_{k+s} chains in none or in F_s of them, so a tiling needs F_s | F_{k+s} for
every s = 1..m (equivalently, since gcd(F_a, F_b) = F_gcd(a, b): m <= 2 or
every s in 3..m divides k). The rule is also sufficient: cutting each level
k+s into consecutive F_s-blocks, the products of blocks form a tiling with
fibonomial(k+m, m) copies. find_tiling builds that tiling, and returns None
exactly when the rule fails; count_all_tilings counts every tiling as a
product over the fibres, the chains that share their first two coordinates.

The module holds what `cobweb tiling` runs: copy_count, find_tiling,
count_all_tilings and verify_tiling. Enumerating every candidate copy, and
the exact-cover search over them, are oracles in verify, which also reads
the Fibonomial recurrence off the constructed tiling: a cut of the top level
k+m at F_{m+1}F_k splits its copies into the recurrence's two classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat
from operator import index
from typing import Dict, NamedTuple, Optional, Tuple

from .cobweb import VertexCoord
from .guards import _shown, ensure_within
from .seqcore import f_falling, fib

ChainTuple = Tuple[int, ...]

UNIVERSE_LIMIT = 10**4


class CopySpec(NamedTuple):
    """One shifted copy, the pair (root, chosen): root coordinate plus chosen
    positions per level above."""

    root: VertexCoord
    chosen: Tuple[Tuple[int, ...], ...]  # sorted positions at levels root.s + 1 ..

    @property
    def height(self) -> int:
        return len(self.chosen)


@dataclass(frozen=True)
class TilingSolution:
    """Max-disjoint copies whose chain families partition the chain universe."""

    root: VertexCoord
    height: int
    copies: Tuple[CopySpec, ...]

    @property
    def assignment(self) -> Dict[ChainTuple, int]:
        """Each chain mapped to the index of its copy, built from the copies
        on every read."""
        return {chain: idx for idx, c in enumerate(self.copies) for chain in product(*c.chosen)}


def _validate(k: int, r: int, m: int) -> Tuple[int, int, int]:
    """(k, r, m) as integers, once the root and the height are valid."""
    k, r, m = index(k), index(r), index(m)
    if k < 1:
        raise ValueError(f"root level must be >= 1, got {k}")
    if not 1 <= r <= fib(k):
        raise ValueError(f"root position {r} out of range 1..{_shown(fib(k))} at level {k}")
    if m < 1:
        raise ValueError(f"height must be >= 1, got {m}")
    return k, r, m


def copy_count(k: int, m: int) -> int:
    """Number of candidate copies rooted at level k with height m."""
    return math.prod(math.comb(fib(k + s), fib(s)) for s in range(1, m + 1))


def no_cover_reason(k: int, m: int) -> Optional[str]:
    """Why no height-m tiling above a level-k root exists, naming the largest
    s <= m with F_s not dividing F_{k+s}; None when a tiling exists. For
    s >= 3, F_s | F_{k+s} exactly when s | k (strong divisibility), and
    F_1 = F_2 = 1 divide everything, so the indices decide."""
    for s in range(m, 2, -1):
        if k % s:
            return f"F_{s} does not divide F_{k + s}"
    return None


def _reason_after_guard(k: int, m: int, unsafe_limits: bool) -> Optional[str]:
    """no_cover_reason(k, m), once the chain universe is guarded."""
    universe_size = f_falling(k + m, m)
    ensure_within("chain universe size", universe_size, UNIVERSE_LIMIT, unsafe_limits)
    return no_cover_reason(k, m)


def find_tiling(
    k: int, r: int, m: int, unsafe_limits: bool = False
) -> Optional[TilingSolution]:
    """The block-product tiling: every product of consecutive F_s-blocks
    (1..F_s), (F_s+1..2F_s), ... of the levels k+s, in lexicographic order.

    None exactly when no_cover_reason(k, m) is not None, checked after the
    guards. The tiling has fibonomial(k+m, m) copies; verify checks it
    against the first cover of the exact-cover search where that is feasible.
    """
    k, r, m = _validate(k, r, m)
    if _reason_after_guard(k, m, unsafe_limits):
        return None
    blocks = []
    for s in range(1, m + 1):
        size = fib(s)
        blocks.append([tuple(range(i, i + size)) for i in range(1, fib(k + s) + 1, size)])
    root = VertexCoord(r, k)
    return TilingSolution(root, m, tuple(map(CopySpec, repeat(root), product(*blocks))))


def _pair_tilings(a: int, b: int, c: int) -> int:
    """Exact covers of the grid [1..a] x [1..b] x [1..c] by boxes {x} x {y} x
    {z, z'}: ((c - 1)!!)^(ab), as each line splits into pairs on its own."""
    return 0 if c % 2 else math.prod(range(c - 1, 0, -2)) ** (a * b)


def count_all_tilings(k: int, r: int, m: int, unsafe_limits: bool = False) -> int:
    """Number of distinct tilings; 0 exactly when no_cover_reason fires after
    the guards. F_1 = F_2 = 1, so a copy fixes a chain's first two coordinates
    and each of the F_{k+1} F_{k+2} fibres is tiled on its own: a fibre is
    one chain for m <= 2 and a line of F_{k+3} chains cut into pairs for
    m = 3. For m >= 4 (then 12 | k, and the smallest fibre is a 610 x 987
    grid of 2 x 3 boxes) no closed form is known: ValueError."""
    k, r, m = _validate(k, r, m)
    if _reason_after_guard(k, m, unsafe_limits):
        return 0
    if m <= 2:
        return 1
    if m > 3:
        raise ValueError(f"no closed form is known for tiling counts at height {m}")
    return _pair_tilings(fib(k + 1), fib(k + 2), fib(k + 3))


def _integers(values) -> bool:
    """Whether operator.index takes every value."""
    try:
        for v in values:
            index(v)
    except TypeError:
        return False
    return True


def verify_tiling(t: TilingSolution) -> bool:
    """Structural check: a valid integer root of integer height m >= 1 shared
    by every copy; each copy of height m with, at every level k+s, F_s
    distinct integer positions in 1..F_{k+s}; and families pairwise disjoint
    and covering all f_falling(k+m, m) chains.

    Each distinct subset object is checked once per level, so the block
    tuples that find_tiling shares between copies cost one check each. A copy
    of well-formed subsets has exactly prod F_s chains, so the families are
    disjoint iff the set of their chains has len(copies) * prod F_s members.
    The cost is linear in the chains."""
    k, m = t.root.s, t.height
    if not (_integers((k, t.root.j, m)) and k >= 1 and 1 <= t.root.j <= fib(k) and m >= 1):
        return False
    copies = t.copies
    if any(c.root != t.root or len(c.chosen) != m for c in copies):
        return False
    sizes = [fib(s) for s in range(1, m + 1)]
    tops = [fib(k + s) for s in range(1, m + 1)]
    for size, top, level in zip(sizes, tops, zip(*(c.chosen for c in copies))):
        for subset in {id(subset): subset for subset in level}.values():
            if len(subset) != size or len(set(subset)) != size:
                return False
            if not (_integers(subset) and 1 <= min(subset) and max(subset) <= top):
                return False
    chains = {chain for c in copies for chain in product(*c.chosen)}
    return len(chains) == len(copies) * math.prod(sizes) == f_falling(k + m, m)
