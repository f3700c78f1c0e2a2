"""The truncated Fibonacci cobweb poset and its incidence algebra.

Level s holds F_s vertices; consecutive levels are completely connected, so
two distinct vertices are comparable exactly when they sit on different
levels. Vertices are linearised level by level: level s occupies 1-based
indices F_{s+1} .. F_{s+2}-1 (the prefix sum F_1+...+F_{s-1} equals
F_{s+1}-1).

The poset is an ordinal sum of antichains, so off the diagonal every
incidence function depends only on the levels s < t of x < y:
zeta(x, y) = 1, mu(x, y) = -prod_{s<i<t} (1 - F_i), and the number of chains
from x to y is prod_{s<i<t} (1 + F_i). One row builder writes the
order-indicator matrix (the comparability predicate applied once per pair of
levels) and the Mobius matrix from these level values; chain counts are read
off the level formula. The explicit Kronecker-delta expansion builds the
order-indicator matrix without the level layout, the independent route
`verify` compares the first with. Both copy each row once out of one buffer
per level, so a build peaks at about the matrix it returns. The Mobius matrix
and the chain-count prefix products are cached for the last height asked
for, because queries read them once per entry; the order-indicator matrices
are built afresh on each call. A warm query (`leq`, `level_of`, `coord_of`,
`count_all_chains`) tests its indices with one chained comparison and finds
each vertex's level with one `bisect_right` on `level_starts`, in its own
frame; only an index out of range goes on to `_check_index`, whose message
names the first bad index, x before y. A matrix is the tuple of its rows,
checked once and equal to that tuple; the poset is a frozen slotted class.
Neither is a dataclass: importing `dataclasses` (and `inspect`) would add
about 10 ms to the start-up of every poset command. The dense product
zeta * mobius and the brute-force chain count live in `verify`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import product
from math import prod
from operator import index
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .guards import ensure_within
from .seqcore import exact_div, f_falling, fib

ENUMERATION_LIMIT = 10**6
# Dense matrices hold dim^2 entries and a build peaks at about one matrix: at
# N = 15 (dimension 1596) about 20 MB. N = 16 (2583) is refused.
# `mobius` tests the dimension inline before calling the guard, because warm
# callers ask for its cached matrix once per entry they read.
DENSE_LIMIT = 2000


class VertexCoord(NamedTuple):
    """Position j (1-based) within level s (1-based)."""

    j: int
    s: int


class CobwebPoset:
    """Immutable cobweb poset truncated to levels 1..max_level. Its fields are
    slots, set once through object.__setattr__, because warm queries read
    level_starts and vertex_count on every call."""

    __slots__ = ("max_level", "level_sizes", "level_starts", "vertex_count")

    def __init__(self, max_level: int):
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        levels = range(1, max_level + 1)
        object.__setattr__(self, "max_level", max_level)
        object.__setattr__(self, "level_sizes", tuple(fib(s) for s in levels))
        object.__setattr__(self, "level_starts", tuple(fib(s + 1) for s in levels))
        object.__setattr__(self, "vertex_count", fib(max_level + 2) - 1)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"CobwebPoset(max_level={self.max_level!r})"

    def __eq__(self, other):
        if other.__class__ is not CobwebPoset:
            return NotImplemented
        return self.max_level == other.max_level

    def __hash__(self) -> int:
        return hash((self.max_level,))

    def __reduce__(self):
        return CobwebPoset, (self.max_level,)

    def _check_index(self, x: int) -> None:
        if not 1 <= x <= self.vertex_count:
            raise ValueError(
                f"linear index {x} out of range 1..{self.vertex_count}"
            )

    def _check_coord(self, v: VertexCoord) -> VertexCoord:
        """v as a VertexCoord of integers, once it lies in the poset."""
        v = VertexCoord(*map(index, v))
        if not 1 <= v.s <= self.max_level:
            raise ValueError(f"level {v.s} out of range 1..{self.max_level}")
        if not 1 <= v.j <= self.level_sizes[v.s - 1]:
            raise ValueError(
                f"position {v.j} out of range 1..{self.level_sizes[v.s - 1]}"
                f" at level {v.s}"
            )
        return v

    def linear_index(self, v: VertexCoord) -> int:
        """1-based linear index of v: F_{s+1} - 1 + j."""
        v = self._check_coord(v)
        return self.level_starts[v.s - 1] - 1 + v.j

    def coord_of(self, x: int) -> VertexCoord:
        """Inverse of linear_index."""
        s = self.level_of(x)
        return VertexCoord(x - self.level_starts[s - 1] + 1, s)

    def level_of(self, x: int) -> int:
        if not 1 <= x <= self.vertex_count:
            self._check_index(x)
        return bisect_right(self.level_starts, x)

    def level_range(self, s: int) -> range:
        """Linear indices of level s."""
        if not 1 <= s <= self.max_level:
            raise ValueError(f"level {s} out of range 1..{self.max_level}")
        start = self.level_starts[s - 1]
        return range(start, start + self.level_sizes[s - 1])

    def leq(self, x: int, y: int) -> bool:
        """Order relation on linear indices."""
        n = self.vertex_count
        if not (1 <= x <= n and 1 <= y <= n):
            self._check_index(x)
            self._check_index(y)
        if x == y:
            return True
        starts = self.level_starts
        return bisect_right(starts, x) < bisect_right(starts, y)

    def hasse_edges(self) -> Iterator[Tuple[int, int]]:
        """Cover pairs (lower, upper), between consecutive levels only."""
        for s in range(1, self.max_level):
            for x in self.level_range(s):
                for y in self.level_range(s + 1):
                    yield x, y


def build(max_level: int) -> CobwebPoset:
    return CobwebPoset(max_level)


class IncMatrix(tuple):
    """Immutable square integer matrix with 1-based accessors: the tuple of its
    rows, each entry checked once, and equal to that tuple."""

    __slots__ = ()

    def __new__(cls, rows: Tuple[Tuple[int, ...], ...]):
        rows = tuple(tuple(index(v) for v in row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        return tuple.__new__(cls, rows)

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self)

    @property
    def dim(self) -> int:
        return len(self)

    def entry(self, x: int, y: int) -> int:
        n = len(self)
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValueError(f"entry ({x}, {y}) out of range 1..{n}")
        return self[x - 1][y - 1]

    def __repr__(self) -> str:
        return f"IncMatrix(dim={len(self)})"

    def first_difference(self, other: "IncMatrix") -> Optional[Tuple[int, int]]:
        """First (row, col) where the matrices disagree, 1-based; None if equal."""
        if len(other) != len(self):
            return (0, 0)
        for i, (ra, rb) in enumerate(zip(self, other)):
            if ra != rb:
                for j, (a, b) in enumerate(zip(ra, rb)):
                    if a != b:
                        return (i + 1, j + 1)
        return None


def _frozen(rows: List[Tuple[int, ...]]) -> IncMatrix:
    """IncMatrix of int tuples built here, without the public checks."""
    return tuple.__new__(IncMatrix, rows)


def _level_rows(p: CobwebPoset, between) -> IncMatrix:
    """1 on the diagonal, between(s, t) from each vertex of level s to every
    vertex of each level t > s, and 0 elsewhere: the shape of every incidence
    function of an ordinal sum of antichains. Each vertex of level s sets its
    diagonal cell in the level's one row buffer, copies it out and resets it."""
    rows = []
    for s in range(1, p.max_level + 1):
        row = [0] * p.vertex_count
        for t in range(s + 1, p.max_level + 1):
            r = p.level_range(t)
            row[r.start - 1 : r.stop - 1] = [between(s, t)] * len(r)
        for x in p.level_range(s):
            row[x - 1] = 1
            rows.append(tuple(row))
            row[x - 1] = 0
    return _frozen(rows)


@lru_cache(maxsize=1)
def _mobius(max_level: int) -> IncMatrix:
    p = CobwebPoset(max_level)
    sizes = p.level_sizes
    # mu_{s,t} = -prod_{s<i<t} (1 - F_i); sizes[s : t - 1] are F_{s+1}..F_{t-1}
    return _level_rows(p, lambda s, t: -prod(1 - f for f in sizes[s : t - 1]))


@lru_cache(maxsize=1)
def _chain_prefix(max_level: int) -> Tuple[int, ...]:
    # prefix[k] = prod_{i<=k} (1 + F_i); every factor is at least 2, so
    # prefix[t-1] / prefix[s] is exact.
    prefix = [1]
    for s in range(1, max_level + 1):
        prefix.append(prefix[-1] * (1 + fib(s)))
    return tuple(prefix)


def zeta_from_order(p: CobwebPoset, unsafe_limits: bool = False) -> IncMatrix:
    """Order-indicator matrix built from the comparability predicate, applied
    once per pair of levels through the row builder shared with `mobius`."""
    ensure_within("matrix dimension", p.vertex_count, DENSE_LIMIT, unsafe_limits)
    first = p.level_starts
    return _level_rows(p, lambda s, t: int(p.leq(first[s - 1], first[t - 1])))


def zeta_explicit(p: CobwebPoset, unsafe_limits: bool = False) -> IncMatrix:
    """Order-indicator matrix built from the Kronecker-delta expansion."""
    ensure_within("matrix dimension", p.vertex_count, DENSE_LIMIT, unsafe_limits)
    n = p.vertex_count
    rows = []
    for s in range(1, p.max_level + 1):
        start, end = fib(s + 1), fib(s + 2) - 1  # level s, 1-based
        # First summand: 1 whenever y = x + k for some k >= 0, truncated at
        # the matrix dimension; its tail past level s is the level's to share.
        row = [0] * end + [1] * (n - end)
        for x in range(start, end + 1):
            row[x - 1 : end] = [1] * (end - x + 1)
            # Subtracted summand: for x = F_{s+1} + k it clears y = x + r,
            # 1 <= r <= F_s - k - 1, the 0-based columns x .. end - 1.
            row[x:end] = [v - 1 for v in row[x:end]]
            rows.append(tuple(row))
            row[x - 1] = 0
    return _frozen(rows)


def mobius(p: CobwebPoset, unsafe_limits: bool = False) -> IncMatrix:
    """Mobius matrix, the inverse of the order-indicator matrix."""
    if p.vertex_count > DENSE_LIMIT:
        ensure_within("matrix dimension", p.vertex_count, DENSE_LIMIT, unsafe_limits)
    return _mobius(p.max_level)


def count_max_chains_from_vertex(p: CobwebPoset, v: VertexCoord, n: int) -> int:
    """Maximal chains from v (any vertex of its level) up to level n."""
    v, n = p._check_coord(v), index(n)
    if not v.s <= n <= p.max_level:
        raise ValueError(f"target level {n} out of range {v.s}..{p.max_level}")
    return f_falling(n, n - v.s)


def enumerate_max_chains(
    p: CobwebPoset, v: VertexCoord, n: int, unsafe_limits: bool = False
) -> List[Tuple[VertexCoord, ...]]:
    """All maximal chains from v to level n, in lexicographic order."""
    v, n = p._check_coord(v), index(n)
    total = count_max_chains_from_vertex(p, v, n)
    ensure_within("maximal chain count", total, ENUMERATION_LIMIT, unsafe_limits)
    upper = [
        [VertexCoord(j, s) for j in range(1, p.level_sizes[s - 1] + 1)]
        for s in range(v.s + 1, n + 1)
    ]
    return list(product((v,), *upper))


def count_all_chains(p: CobwebPoset, x: int, y: int) -> int:
    """Chains x = z_0 < ... < z_t = y of every length; 0 for incomparable pairs."""
    n = p.vertex_count
    if not (1 <= x <= n and 1 <= y <= n):
        p._check_index(x)
        p._check_index(y)
    if x >= y:
        return 1 if x == y else 0
    starts = p.level_starts
    s = bisect_right(starts, x)
    t = bisect_right(starts, y)
    if s == t:
        return 0
    prefix = _chain_prefix(p.max_level)
    return exact_div(prefix[t - 1], prefix[s])
