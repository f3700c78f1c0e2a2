"""Self-verification suites: every library invariant at its contract range.

Each check compares two independent computation routes (closed form vs
recurrence, construction vs formula, search vs arithmetic, ...) and returns
a verdict: `_ok` with what it covered, or `_fail` with a counterexample.
`SUITES` names each check once; `run_suite` reports its verdict and wall
time under that name, a check that raises included. The CLI surfaces these
as `verify --suite NAME`.

The routes that only these checks run live here, not in the layers every
command loads: the dense matrix product, the box-grid copy enumeration and
the exact-cover search over it, the path matrices with their fraction-free
and cofactor determinants, the fence's transfer steps, and brute force
over the subsets of a fence.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import cli, cobweb, fence, gvpaths, tiling, weighted
from .guards import ensure_within
from .seqcore import (
    exact_div,
    f_factorial,
    f_falling,
    fib,
    fibonomial,
    fibonomial_rec,
    q_binomial,
)

TILING_INSTANCES = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
CANDIDATE_LIMIT = 10**5


class Verdict(NamedTuple):
    """Whether a check held, and what it covered or where it failed."""

    passed: bool
    detail: str


class CheckResult(NamedTuple):
    """A check's verdict under its name in SUITES, with its wall time."""

    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _ok(detail: str) -> Verdict:
    return Verdict(True, detail)


def _fail(counterexample: str) -> Verdict:
    return Verdict(False, f"counterexample: {counterexample}")


# ---------------------------------------------------------------- arithmetic


def check_fibonomial_symmetry(max_n: int = 40) -> Verdict:
    """fibonomial(n, k), a product of primitive parts, against the independent
    quotient f_falling(n, n - k) / f_factorial(n - k), checked exact."""
    for n in range(max_n + 1):
        for k in range(n + 1):
            q, r = divmod(f_falling(n, n - k), f_factorial(n - k))
            if r or fibonomial(n, k) != q:
                return _fail(f"(n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_fibonomial_recurrences(max_n: int = 31) -> Verdict:
    for n in range(max_n + 1):
        for k in range(n + 1):
            want = fibonomial(n, k)
            for variant in ("A", "B"):
                if fibonomial_rec(n, k, variant) != want:
                    return _fail(f"variant {variant} at (n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_fibonomial_integrality(max_n: int = 200) -> Verdict:
    for n in range(max_n + 1):
        falling = factorial = 1
        for k in range(n + 1):
            if k > 0:
                falling *= fib(n - k + 1)
                factorial *= fib(k)
            if falling % factorial != 0:
                return _fail(f"(n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_falling_factorial_identity(max_n: int = 40) -> Verdict:
    for n in range(max_n + 1):
        for k in range(n + 1):
            if f_falling(n, k) * f_factorial(n - k) != f_factorial(n):
                return _fail(f"(n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_q_binomial_coefficients(max_n: int = 12) -> Verdict:
    for n in range(max_n + 1):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            if any(c < 0 for c in poly.coeffs):
                return _fail(f"nonnegativity at (n, k) = ({n}, {k})")
            if poly.evaluate(1) != math.comb(n, k):
                return _fail(f"sum at (n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_decimal_strings(max_bits: int = 600) -> Verdict:
    """The CLI's decimal_str against str(). Its recursive route, at any size,
    on 2^w - 1, 2^w, 2^w + 1 and 2^w +- 2^(w // 2) (a one bit at the first
    split) for every w <= max_bits, which straddles the 128-bit leaves and
    three levels of split points; then decimal_str itself on both sides
    of the crossover cli.DECIMAL_STR_BITS, in bits and in digits. 0 and
    each value's negative too."""
    small = [0]
    for w in range(max_bits + 1):
        small += [(1 << w) + d for d in (-1, 0, 1, 1 << w // 2, -(1 << w // 2))]
    top = cli.DECIMAL_STR_BITS
    d = math.ceil(top * math.log10(2))  # 10^(d - 1) < 2^top < 10^d
    large = [(1 << top) - 1, 1 << top, 10 ** (d - 1), 10**d - 1, 10**d]
    with cli.unlimited_int_str():
        for route, values in ((cli._decimal_digits, small), (cli.decimal_str, large)):
            for n in (v for value in values for v in (value, -value)):
                if route(n) != str(n):
                    where = f"{route.__name__} of a {n.bit_length()}-bit n"
                    return _fail(f"{where} = {n % 1000} mod 1000")
    detail = f"{2 * len(small)} values up to {max_bits + 1} bits, {2 * len(large)} near {top}"
    return _ok(detail)


def _weight_vectors(max_len: int, entries: Tuple[int, ...]):
    for length in range(max_len + 1):
        for ws in combinations_with_replacement(sorted(entries), length):
            yield ws


def check_konvalina_oracles(
    max_len: int = 8, entries: Tuple[int, ...] = (1, 2, 3), max_k: int = 8
) -> Verdict:
    for ws in _weight_vectors(max_len, entries):
        for k in range(max_k + 1):
            if weighted.c_coeff(ws, k) != weighted.c_coeff_oracle(ws, k):
                return _fail(f"first kind, w = {ws}, k = {k}")
            if weighted.s_coeff(ws, k) != weighted.s_coeff_oracle(ws, k):
                return _fail(f"second kind, w = {ws}, k = {k}")
    return _ok(f"len <= {max_len} over {entries}, k <= {max_k}")


def check_konvalina_binomial_preset(max_n: int = 10, max_k: int = 10) -> Verdict:
    for n in range(1, max_n + 1):
        ones = weighted.preset_weights("ones", n)
        for k in range(max_k + 1):
            if weighted.c_coeff(ones, k) != math.comb(n, k):
                return _fail(f"first kind at (n, k) = ({n}, {k})")
            if weighted.s_coeff(ones, k) != math.comb(n + k - 1, k):
                return _fail(f"second kind at (n, k) = ({n}, {k})")
    return _ok(f"n, k <= {max_n}")


def _stirling(n: int, k: int, weight: Callable[[int, int], int]) -> int:
    """Entry (n, k) of T(0, 0) = 1, T(i, 0) = 0 for i > 0, T(0, j) = 0 for
    j > 0 and T(i, j) = T(i-1, j-1) + weight(i, j) T(i-1, j), by sweeping one
    row over the band i - (n - k) <= j <= min(i, k) that T(n, k) depends on."""
    if not 0 <= k <= n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), max(1, i - (n - k)) - 1, -1):
            row[j] = row[j - 1] + weight(i, j) * row[j]
        row[0] = 0
    return row[k]


def stirling1_unsigned(n: int, k: int) -> int:
    """Triangle recurrence c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)."""
    return _stirling(n, k, lambda i, j: i - 1)


def stirling2(n: int, k: int) -> int:
    """Triangle recurrence S(n, k) = S(n-1, k-1) + k S(n-1, k)."""
    return _stirling(n, k, lambda i, j: j)


def check_konvalina_stirling_presets(max_n: int = 7, max_k: int = 7) -> Verdict:
    for n in range(1, max_n + 1):
        arith = weighted.preset_weights("arithmetic", n)
        for k in range(max_k + 1):
            if weighted.c_coeff(arith, k) != stirling1_unsigned(n + 1, n + 1 - k):
                return _fail(f"first kind vs Stirling triangle at (n, k) = ({n}, {k})")
            if weighted.s_coeff(arith, k) != stirling2(n + k, n):
                return _fail(f"second kind vs Stirling triangle at (n, k) = ({n}, {k})")
    return _ok(f"n, k <= {max_n}")


def check_konvalina_gaussian_preset(
    max_n: int = 6, max_k: int = 6, qs: Tuple[int, ...] = (2, 3)
) -> Verdict:
    for q in qs:
        for n in range(1, max_n + 1):
            geo = weighted.preset_weights("geometric", n, q)
            for k in range(max_k + 1):
                if weighted.s_coeff(geo, k) != q_binomial(n + k - 1, k).evaluate(q):
                    return _fail(f"second kind vs q-binomial at (n, k, q) = ({n}, {k}, {q})")
    return _ok(f"n, k <= {max_n}, q in {qs}")


# --------------------------------------------------------------------- poset


def check_zeta_equivalence(max_level: int = 10) -> Verdict:
    for level in range(1, max_level + 1):
        p = cobweb.build(level)
        diff = cobweb.zeta_from_order(p).first_difference(cobweb.zeta_explicit(p))
        if diff is not None:
            return _fail(f"N = {level}, entry {diff}")
    return _ok(f"N <= {max_level}")


def _dense_product(a, b) -> List[List[int]]:
    """Rows of the product of two square matrices of equal size, given as
    rows, by the schoolbook sum that skips zero entries."""
    out = []
    for arow in a:
        acc = [0] * len(b)
        for t, x in enumerate(arow):
            if x == 0:
                continue
            for j, y in enumerate(b[t]):
                if y:
                    acc[j] += x * y
        out.append(acc)
    return out


def check_mobius_inverse(max_level: int = 10) -> Verdict:
    """zeta * mobius and mobius * zeta, multiplied densely, against the
    Kronecker delta entry by entry."""
    for level in range(1, max_level + 1):
        p = cobweb.build(level)
        zeta, mob = cobweb.zeta_from_order(p), cobweb.mobius(p)
        for rows in (_dense_product(zeta, mob), _dense_product(mob, zeta)):
            if any(v != (x == y) for x, row in enumerate(rows) for y, v in enumerate(row)):
                return _fail(f"N = {level}")
    return _ok(f"N <= {max_level}")


def check_mobius_alternating_sum(max_level: int = 6) -> Verdict:
    p = cobweb.build(max_level)
    zeta = cobweb.zeta_from_order(p)
    mob = cobweb.mobius(p)
    n = zeta.dim
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if not zeta.entry(x, y):
                continue
            total = sum(
                mob.entry(x, z)
                for z in range(x, y + 1)
                if zeta.entry(x, z) and zeta.entry(z, y)
            )
            if total != (1 if x == y else 0):
                return _fail(f"(x, y) = ({x}, {y})")
    return _ok(f"N = {max_level}")


def check_chain_observations(max_level: int = 6) -> Verdict:
    """Closed-form maximal-chain counts against the enumerated chains."""
    p = cobweb.build(max_level)
    for k in range(1, max_level + 1):
        for j in range(1, fib(k) + 1):
            v = cobweb.VertexCoord(j, k)
            for n in range(k, max_level + 1):
                found = len(cobweb.enumerate_max_chains(p, v, n))
                if cobweb.count_max_chains_from_vertex(p, v, n) != found:
                    return _fail(f"vertex chain count vs enumeration at v = ({j}, {k}), n = {n}")
    return _ok(f"levels <= {max_level}")


def _count_chains_brute(p: cobweb.CobwebPoset, x: int, y: int, memo: dict) -> int:
    if x == y:
        return 1
    key = (x, y)
    if key not in memo:
        memo[key] = sum(
            _count_chains_brute(p, z, y, memo)
            for z in range(x + 1, y + 1)
            if p.leq(x, z) and p.leq(z, y)
        )
    return memo[key]


def check_chain_counts(max_level: int = 5) -> Verdict:
    p = cobweb.build(max_level)
    memo: dict = {}
    for x in range(1, p.vertex_count + 1):
        for y in range(1, p.vertex_count + 1):
            want = (
                _count_chains_brute(p, x, y, memo)
                if p.leq(x, y)
                else 0
            )
            if cobweb.count_all_chains(p, x, y) != want:
                return _fail(f"(x, y) = ({x}, {y})")
    return _ok(f"N = {max_level}")


# -------------------------------------------------------------------- tiling


def _box_grid(sizes, sides):
    """The grid [1..n_1] x ... x [1..n_m], the boxes A_1 x ... x A_m in it
    with |A_i| = sides[i], each as its tuple (A_1, ..., A_m) in lexicographic
    order, and their cells. Guarded incrementally on the number of boxes: the
    running product crosses the limit long before any factor gets expensive."""
    count = 1
    for n, a in zip(sizes, sides):
        count *= math.comb(n, a)
        ensure_within("candidate copy count", count, CANDIDATE_LIMIT)
    boxes = list(
        product(*(combinations(range(1, n + 1), a) for n, a in zip(sizes, sides)))
    )
    grid = product(*(range(1, n + 1) for n in sizes))
    return grid, boxes, [frozenset(product(*box)) for box in boxes]


def _copy_shape(k: int, m: int):
    """Level sizes F_{k+1}..F_{k+m} and subset sizes F_1..F_m: the box grid
    whose boxes are the height-m copies above a level-k root."""
    levels = range(1, m + 1)
    return [fib(k + s) for s in levels], [fib(s) for s in levels]


def check_copy_enumeration(
    pairs=((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
) -> Verdict:
    """The box grid of each (k, m): copy_count(k, m) copies of f_factorial(m)
    chains each."""
    for k, m in pairs:
        _, boxes, cells = _box_grid(*_copy_shape(k, m))
        if len(boxes) != tiling.copy_count(k, m):
            return _fail(f"(k, m) = ({k}, {m}) copy count")
        if any(len(chains) != f_factorial(m) for chains in cells):
            return _fail(f"(k, m) = ({k}, {m}) chains per copy")
    return _ok(f"pairs {pairs}")


def _covers(universe, families) -> Iterator[List[int]]:
    """Every exact cover of the universe by the families (frozensets), as the
    indices of its families: Algorithm X on a dict of column sets. The column
    with the fewest candidate rows (the smallest element on a tie) is opened
    first and its rows are tried in ascending order, so the search order is
    the same on every run."""
    universe = set(universe)
    columns: Dict[object, set] = {elem: set() for elem in universe}
    for i, fam in enumerate(families):
        if not fam <= universe:
            raise ValueError("candidate family is not a subset of the universe")
        for elem in fam:
            columns[elem].add(i)
    chosen: List[int] = []

    def cover(row: int) -> List[set]:
        removed = []
        for elem in sorted(families[row]):
            for other in columns[elem]:
                for e2 in families[other]:
                    if e2 != elem and e2 in columns:
                        columns[e2].discard(other)
            removed.append(columns.pop(elem))
        return removed

    def uncover(row: int, removed: List[set]) -> None:
        for elem, rows in zip(sorted(families[row], reverse=True), reversed(removed)):
            columns[elem] = rows
            for other in rows:
                for e2 in families[other]:
                    if e2 != elem and e2 in columns:
                        columns[e2].add(other)

    # Depth-first search on an explicit stack: pending[d] iterates the rows of
    # the column opened at depth d, chosen[d] is the row tried there.
    undo: List[List[set]] = []
    pending: List[Iterator[int]] = []
    while True:
        if columns:
            col = min(columns, key=lambda c: (len(columns[c]), c))
            pending.append(iter(sorted(columns[col])))
        else:
            yield list(chosen)
        while pending:
            if len(chosen) == len(pending):
                uncover(chosen.pop(), undo.pop())
            row = next(pending[-1], None)
            if row is not None:
                chosen.append(row)
                undo.append(cover(row))
                break
            pending.pop()
        else:
            return


def _count_covers(universe, families) -> int:
    return sum(1 for _ in _covers(universe, families))


def _first_box_cover(sizes, sides) -> Optional[list]:
    """First exact cover of the box grid in the search order, as its boxes
    in ascending order. None when no cover exists."""
    grid, boxes, cells = _box_grid(sizes, sides)
    rows = next(_covers(grid, cells), None)
    return None if rows is None else [boxes[i] for i in sorted(rows)]


def check_divisibility_rule(
    instances: Tuple[Tuple[int, int], ...] = TILING_INSTANCES + ((1, 4), (3, 3), (7, 2))
) -> Verdict:
    """find_tiling against the exhaustive exact-cover search over all copies:
    no cover exists exactly when no_cover_reason fires, and otherwise the
    search's first cover is the constructed tiling, copy for copy. The box
    analog tells the exact rule from its top-level case: 2x2 boxes tile a
    4x4 grid but not a 3x4 grid, although 2 | 4."""
    for k, m in instances:
        cover = _first_box_cover(*_copy_shape(k, m))
        if (cover is None) != (tiling.no_cover_reason(k, m) is not None):
            return _fail(f"(k, m) = ({k}, {m}) divisibility rule")
        solution = tiling.find_tiling(k, 1, m)
        if cover is not None and [c.chosen for c in solution.copies] != cover:
            return _fail(f"(k, m) = ({k}, {m}) first cover")
    if _first_box_cover((4, 4), (2, 2)) is None or _first_box_cover((3, 4), (2, 2)):
        return _fail("2x2 boxes on the 4x4 and 3x4 grids")
    return _ok(f"(k, m) in {instances}; 2x2 boxes on 4x4, 3x4")


def tiling_outcomes(
    instances: Tuple[Tuple[int, int], ...] = TILING_INSTANCES, r: int = 1
) -> Dict[Tuple[int, int], Optional[tiling.TilingSolution]]:
    return {(k, m): tiling.find_tiling(k, r, m) for k, m in instances}


def check_tiling_instances(
    instances: Tuple[Tuple[int, int], ...] = TILING_INSTANCES
) -> Verdict:
    """find_tiling outcomes: every found tiling must verify and carry exactly
    fibonomial(k+m, m) copies; absent tilings are reported with their reason."""
    found, absent = [], []
    for (k, m), solution in tiling_outcomes(instances).items():
        if solution is None:
            absent.append(f"({k},{m}) {tiling.no_cover_reason(k, m)}")
            continue
        expected = fibonomial(k + m, m)
        if not tiling.verify_tiling(solution):
            return _fail(f"(k, m) = ({k}, {m}) failed verification")
        if len(solution.copies) != expected:
            return _fail(
                f"(k, m) = ({k}, {m}) has {len(solution.copies)} copies, expected {expected}"
            )
        found.append(f"({k},{m})")
    detail = f"tilings found: {', '.join(found) or 'none'}"
    if absent:
        detail += f"; no cover exists: {', '.join(absent)}"
    return _ok(detail)


def _tiled_instances():
    """(k, m, find_tiling(k, 1, m)) for each (k, m) with m >= 2 that it tiles
    under its default guard on f_falling(k + m, m), which grows with k and m."""
    m = 2
    while f_falling(m + 1, m) <= tiling.UNIVERSE_LIMIT:
        k = 1
        while f_falling(k + m, m) <= tiling.UNIVERSE_LIMIT:
            t = tiling.find_tiling(k, 1, m)
            if t is not None:
                yield k, m, t
            k += 1
        m += 1


def check_recurrence_split() -> Verdict:
    """The Fibonomial recurrence read off each tiling from _tiled_instances.
    F_{k+m} = F_{m+1}F_k + F_m F_{k-1}: cut the top level k+m after position
    F_{m+1}F_k. No top subset straddles the cut, F_{m+1} (k+m-1 m)_F copies
    lie below it and F_{k-1} (k+m-1 m-1)_F above it, and the lower levels of
    those above are the (k, m-1) tiling's copies in order, each F_{k-1}
    times: variant B at n = k+m. The cut after F_{k+1}F_m leaves F_{k+1} (k+m-1 m-1)_F
    copies below and F_{m-1} (k+m-1 m)_F above: variant A."""
    checked = []
    for k, m, t in _tiled_instances():
        where = f"(k, m) = ({k}, {m})"
        upper, lower = fibonomial(k + m - 1, m), fibonomial(k + m - 1, m - 1)
        tops = [c.chosen[-1] for c in t.copies]
        cut_b = fib(m + 1) * fib(k)
        for variant, cut, sizes in (
            ("B", cut_b, [fib(m + 1) * upper, fib(k - 1) * lower]),
            ("A", fib(k + 1) * fib(m), [fib(k + 1) * lower, fib(m - 1) * upper]),
        ):
            if any(min(top) <= cut < max(top) for top in tops):
                return _fail(f"{where} a top subset straddles the cut at {cut}")
            below = sum(max(top) <= cut for top in tops)
            if [below, len(tops) - below] != sizes:
                return _fail(f"{where} variant {variant} class sizes")
        above = [c.chosen[:-1] for c in t.copies if min(c.chosen[-1]) > cut_b]
        lower_copies = tiling.find_tiling(k, 1, m - 1).copies
        if above != [c.chosen for c in lower_copies for _ in range(fib(k - 1))]:
            return _fail(f"{where} variant B second class below the top level")
        checked.append(f"({k},{m})")
    return _ok(f"variants A and B at {', '.join(checked)}")


# Tamperings of a tiling t, each a function (t, i, j, s, p) of two copy
# indices i, j < len(t.copies), a level index s < t.height and a position
# index p. Each returns a tiling verify_tiling must reject, or None where it
# does not apply.


def _with_copies(t: tiling.TilingSolution, copies) -> tiling.TilingSolution:
    return tiling.TilingSolution(t.root, t.height, copies)


def _with_copy(t: tiling.TilingSolution, i: int, root, chosen) -> tiling.TilingSolution:
    """t with copy i replaced by CopySpec(root, chosen)."""
    copy = tiling.CopySpec(root, tuple(chosen))
    return _with_copies(t, t.copies[:i] + (copy,) + t.copies[i + 1:])


def _with_subset(t: tiling.TilingSolution, i: int, s: int, subset) -> tiling.TilingSolution:
    chosen = list(t.copies[i].chosen)
    chosen[s] = subset
    return _with_copy(t, i, t.copies[i].root, chosen)


def _with_position(t: tiling.TilingSolution, i: int, s: int, p: int, pos: int):
    subset = list(t.copies[i].chosen[s])
    subset[p % len(subset)] = pos
    return _with_subset(t, i, s, tuple(subset))


def _other_root(t: tiling.TilingSolution) -> cobweb.VertexCoord:
    return cobweb.VertexCoord(t.root.j, t.root.s + 1)


def _swap_level(t, i, j, s, p):
    """None where the swap only renumbers the copies: copies i and j agree
    at level s, or differ only there."""
    x, y = t.copies[i], t.copies[j]
    moved = _with_subset(t, i, s, y.chosen[s])
    if x.chosen[s] == y.chosen[s] or moved.copies[i] == y:
        return None
    return _with_subset(moved, j, s, x.chosen[s])


def _repeat_position(t, i, j, s, p):
    subset = t.copies[i].chosen[s]
    if len(subset) < 2:
        return None
    return _with_position(t, i, s, p, subset[(p + 1) % len(subset)])


def _half_position(t, i, j, s, p):
    """A position half a step down: still distinct, and in range above 1."""
    subset = t.copies[i].chosen[s]
    return _with_position(t, i, s, p, subset[p % len(subset)] - 0.5)


def _extra_position(t, i, j, s, p):
    subset = t.copies[i].chosen[s]
    free = [pos for pos in range(1, fib(t.root.s + s + 1) + 1) if pos not in subset]
    if not free:
        return None
    return _with_subset(t, i, s, tuple(subset) + (free[p % len(free)],))


def _extra_level(t, i, j, s, p):
    c = t.copies[i]
    return _with_copy(t, i, c.root, tuple(c.chosen) + ((1,),))


TILING_TAMPERINGS = (
    ("drop a copy", lambda t, i, j, s, p: _with_copies(t, t.copies[:i] + t.copies[i + 1:])),
    ("duplicate a copy", lambda t, i, j, s, p: _with_copies(t, t.copies[:i + 1] + t.copies[i:])),
    ("swap a level between two copies", _swap_level),
    ("position 0", lambda t, i, j, s, p: _with_position(t, i, s, p, 0)),
    (
        "position past the level",
        lambda t, i, j, s, p: _with_position(t, i, s, p, fib(t.root.s + s + 1) + 1),
    ),
    ("repeated position", _repeat_position),
    ("non-integer position", _half_position),
    ("extra position", _extra_position),
    ("extra level", _extra_level),
    (
        "moved root",
        lambda t, i, j, s, p: tiling.TilingSolution(_other_root(t), t.height, t.copies),
    ),
    (
        "copy with another root",
        lambda t, i, j, s, p: _with_copy(t, i, _other_root(t), t.copies[i].chosen),
    ),
)


def check_tiling_rejections(
    instances: Tuple[Tuple[int, int], ...] = TILING_INSTANCES + ((3, 3),)
) -> Verdict:
    """verify_tiling on each tileable instance: the constructed tiling passes,
    and every tampering in TILING_TAMPERINGS, applied to the last copy (i),
    the first copy (j) and the top level, fails. Names the first tampering
    accepted."""
    checked = []
    for k, m in instances:
        t = tiling.find_tiling(k, 1, m)
        if t is None:
            continue
        if not tiling.verify_tiling(t):
            return _fail(f"(k, m) = ({k}, {m}) constructed tiling rejected")
        for label, tamper in TILING_TAMPERINGS:
            tampered = tamper(t, len(t.copies) - 1, 0, m - 1, 0)
            if tampered is not None and tiling.verify_tiling(tampered):
                return _fail(f"(k, m) = ({k}, {m}) accepted: {label}")
        checked.append(f"({k},{m})")
    return _ok(f"{len(TILING_TAMPERINGS)} tamperings of {', '.join(checked)}")


def check_tiling_counts(
    grids: Tuple[Tuple[int, int, int], ...] = (
        (1, 1, 1), (1, 1, 2), (1, 1, 7), (1, 1, 8), (1, 2, 5),
        (1, 2, 6), (2, 2, 5), (2, 3, 4), (2, 3, 5), (3, 3, 3),
    ),
) -> Verdict:
    """count_all_tilings against counting every exact cover by search, over
    all copies for each (k, m) with at most 30 chains (all have k <= 7 and
    m <= 4), and the fibre count ((c - 1)!!)^(ab) against the search on
    a x b x c grids of boxes with sides 1, 1, 2."""
    for k, m in product(range(1, 8), range(1, 5)):
        if f_falling(k + m, m) > 30:
            continue
        grid, _, cells = _box_grid(*_copy_shape(k, m))
        if tiling.count_all_tilings(k, 1, m) != _count_covers(grid, cells):
            return _fail(f"(k, m) = ({k}, {m})")
    for a, b, c in grids:
        grid, _, cells = _box_grid((a, b, c), (1, 1, 2))
        if tiling._pair_tilings(a, b, c) != _count_covers(grid, cells):
            return _fail(f"{a}x{b}x{c} grid of 1x1x2 boxes")
    return _ok(f"universe <= 30; 1x1x2 boxes on {len(grids)} grids")


# --------------------------------------------------------------------- paths


def check_paths_identity(max_n: int = 12) -> Verdict:
    for n in range(max_n + 1):
        for k in range(n + 2):
            total = 0
            for r in combinations(range(n + 1), k):
                value = det_exact(_path_matrix(r, n))
                if value < 0:
                    return _fail(f"path count nonnegativity at R = {r}, n = {n}")
                total += value
            if total != fibonomial(n + 1, k):
                return _fail(f"(n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


def check_path_sum_rows(max_n: int = 20) -> Verdict:
    """The whole row of path sums that fibonomial_via_paths reads from the
    characteristic polynomial, against fibonomial(n + 1, k) for k = 0..n+1,
    at every n <= max_n and at the guard limit."""
    for n in (*range(max_n + 1), gvpaths.SUM_LIMIT):
        if gvpaths._path_sums(n) != [fibonomial(n + 1, k) for k in range(n + 2)]:
            return _fail(f"n = {n}")
    return _ok(f"n <= {max_n} and n = {gvpaths.SUM_LIMIT}")


def _path_matrix(r: Tuple[int, ...], n: int) -> List[List[int]]:
    """The binomial matrix C(r_i, n - r_{k+1-j}) of an increasing index set r
    within 0..n: its determinant counts nonintersecting k-tuples of paths."""
    k = len(r)
    return [[math.comb(r[i], n - r[k - 1 - j]) for j in range(k)] for i in range(k)]


def det_exact(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev_pivot = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            for i in range(t + 1, n):
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[t][t]
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = exact_div(pivot * m[i][j] - m[i][t] * m[t][j], prev_pivot)
            m[i][t] = 0
        prev_pivot = pivot
    return sign * m[n - 1][n - 1]


def det_cofactor(matrix) -> int:
    """Determinant by first-row cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for c, head in enumerate(matrix[0]):
        if head == 0:
            continue
        minor = [
            [row[j] for j in range(n) if j != c] for row in matrix[1:]
        ]
        term = head * det_cofactor(minor)
        total += term if c % 2 == 0 else -term
    return total


def check_determinant_routes(max_n: int = 8, max_k: int = 4) -> Verdict:
    """det_exact against det_cofactor on each path matrix and on its column
    reversal, the principal minor M[R][R] that gvpaths sums; only the
    reversals need row swaps."""
    for n in range(max_n + 1):
        for k in range(min(max_k, n + 1) + 1):
            for r in combinations(range(n + 1), k):
                matrix = _path_matrix(r, n)
                for m in (matrix, [row[::-1] for row in matrix]):
                    if det_exact(m) != det_cofactor(m):
                        return _fail(f"R = {r}, n = {n}")
    return _ok(f"k <= {max_k}, n <= {max_n}")


# --------------------------------------------------------------------- fence

ORACLE_LIMIT = 20

# Transfer steps on the counts (excluded, included) of ideals of x_1..x_i,
# split by whether x_i is in; step i takes them from x_i to x_{i+1}.
UP = ((1, 1), (0, 1))  # odd i, x_i < x_{i+1}: including x_{i+1} forces x_i in
DOWN = ((1, 0), (1, 1))  # even i, x_{i+1} < x_i: including x_i forces x_{i+1} in


def _count_closed(m: int, up_closed: bool) -> int:
    ensure_within("fence oracle size", m, ORACLE_LIMIT)
    # (lower, upper) pairs of x_1 < x_2 > x_3 < ...: odd i points up
    covers = [(i, i + 1) if i % 2 else (i + 1, i) for i in range(1, m)]
    count = 0
    for mask in range(1 << m):
        ok = True
        for lo, hi in covers:
            lo_in = mask >> (lo - 1) & 1
            hi_in = mask >> (hi - 1) & 1
            if up_closed:
                if lo_in and not hi_in:
                    ok = False
                    break
            elif hi_in and not lo_in:
                ok = False
                break
        if ok:
            count += 1
    return count


def count_ideals_oracle(m: int) -> int:
    """Brute force over all 2^m subsets, counting the down-closed ones."""
    return _count_closed(m, up_closed=False)


def count_filters_oracle(m: int) -> int:
    """Brute force over all 2^m subsets, counting the up-closed ones."""
    return _count_closed(m, up_closed=True)


def check_fence_oracle(max_m: int = 15) -> Verdict:
    for m in range(max_m + 1):
        if fence.count_ideals(m) != count_ideals_oracle(m):
            return _fail(f"m = {m}")
    return _ok(f"m <= {max_m}")


def linear_ideal_counts(max_m: int):
    """Ideal counts of the fences with m = 0..max_m elements, in order, by one
    UP or DOWN step per cover on the counts (excluded, included): the plain
    transfer loop that count_ideals's symmetric powering replaces. It starts
    from (1, 0) at an x_0 > x_1 that no ideal includes: from (1, 1) at x_1,
    swapped steps would count the filters, the same numbers."""
    out, inc = 1, 0
    for i in range(max_m + 1):
        yield out + inc
        (a, b), (c, d) = UP if i % 2 else DOWN
        out, inc = a * out + b * inc, c * out + d * inc


def check_fence_transfer(max_m: int = 20001, every: int = 500) -> Verdict:
    """count_ideals against the step-by-step transfer loop at every m <= every,
    at 2^j - 1, 2^j and 2^j + 1 (both parities, each bit pattern's ends) and
    at max_m - 1 and max_m."""
    points = {max_m - 1, max_m}
    for j in range(max_m.bit_length()):
        points.update(((1 << j) - 1, 1 << j, (1 << j) + 1))
    for m, want in enumerate(linear_ideal_counts(max_m)):
        if (m <= every or m in points) and fence.count_ideals(m) != want:
            return _fail(f"m = {m}")
    return _ok(f"m <= {every}, near powers of two and m = {max_m}")


def check_fence_fibonacci(max_m: int = 30) -> Verdict:
    for m in range(max_m + 1):
        if fence.count_ideals(m) != fib(m + 2):
            return _fail(f"m = {m}")
    return _ok(f"m <= {max_m}")


def check_fence_duality(max_m: int = 12) -> Verdict:
    for m in range(max_m + 1):
        if count_ideals_oracle(m) != count_filters_oracle(m):
            return _fail(f"m = {m}")
    return _ok(f"m <= {max_m}")


def check_beck_identities(max_n: int = 40) -> Verdict:
    """Both Fibonacci split identities obtained from fence-ideal counting:
    F_n = F_k F_{n+1-k} + F_{k-1} F_{n-k}
        = F_{k-1} F_{n+2-k} + F_{k-2} F_{n+1-k}."""
    for n in range(2, max_n + 1):
        for k in range(2, n + 1):
            first = fib(k) * fib(n + 1 - k) + fib(k - 1) * fib(n - k)
            second = fib(k - 1) * fib(n + 2 - k) + fib(k - 2) * fib(n + 1 - k)
            if not fib(n) == first == second:
                return _fail(f"(n, k) = ({n}, {k})")
    return _ok(f"n <= {max_n}")


# -------------------------------------------------------------------- suites

Check = Callable[[], Verdict]

SUITES: Dict[str, Tuple[Tuple[str, Check], ...]] = {
    "arith": (
        ("fibonomial symmetry", check_fibonomial_symmetry),
        ("fibonomial recurrence consistency", check_fibonomial_recurrences),
        ("fibonomial integrality", check_fibonomial_integrality),
        ("falling times complementary factorial", check_falling_factorial_identity),
        ("q-binomial coefficient nonnegativity and sum", check_q_binomial_coefficients),
        ("weighted coefficients vs brute-force oracles", check_konvalina_oracles),
        ("ones preset reproduces binomials", check_konvalina_binomial_preset),
        ("arithmetic preset reproduces Stirling numbers", check_konvalina_stirling_presets),
        ("geometric preset reproduces q-binomials", check_konvalina_gaussian_preset),
        ("long decimal strings vs str()", check_decimal_strings),
    ),
    "poset": (
        ("zeta construction equivalence", check_zeta_equivalence),
        ("mobius inverse", check_mobius_inverse),
        ("mobius alternating sum", check_mobius_alternating_sum),
        ("maximal chain observations", check_chain_observations),
        ("all-chain counts vs brute force", check_chain_counts),
    ),
    "tiling": (
        ("copy enumeration counts", check_copy_enumeration),
        ("tiling construction vs exact-cover search", check_divisibility_rule),
        ("tiling construction on contract instances", check_tiling_instances),
        ("Fibonomial recurrence split of the tiling", check_recurrence_split),
        ("tiling verification rejects tampered tilings", check_tiling_rejections),
        ("tiling counts vs exact-cover search", check_tiling_counts),
    ),
    "paths": (
        ("path determinant sum identity", check_paths_identity),
        ("characteristic polynomial path sums", check_path_sum_rows),
        ("fraction-free vs cofactor determinant", check_determinant_routes),
    ),
    "fence": (
        ("fence ideals vs brute force", check_fence_oracle),
        ("fence ideals vs step-by-step transfer", check_fence_transfer),
        ("fence ideal count Fibonacci form", check_fence_fibonacci),
        ("fence ideal/filter duality", check_fence_duality),
        ("Fibonacci split identities", check_beck_identities),
    ),
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def _run_check(name: str, check: Check) -> CheckResult:
    """check()'s verdict under its name, with its wall time; a check that
    raises fails under its name and the remaining checks still run."""
    started = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - started)


def run_suite(name: str) -> List[CheckResult]:
    if name == "all":
        checks = [named for suite in SUITES.values() for named in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return [_run_check(*named) for named in checks]
