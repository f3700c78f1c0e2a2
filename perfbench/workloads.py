"""The operations of one round of each in-process workload.

A round is a fixed list of operations made from the seed. Every run repeats
whole rounds, so a run's share of failed operations does not depend on how
long it ran. The costly anchors (fibonomial(2000, 1000), the N=12 dense
builds, the (2,4) exhaustive search) are the same for every seed; the seed
moves the other sizes by about 1% around fixed grid points, or picks between
inputs of equal cost, so the work in a round barely moves from seed to seed.

Each operation carries a check that compares its result with the oracles in
`oracles.py`; a check returns None or a description of the fault.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from oracles import Oracles, count_tilings, tiling_fault


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: result differs from the oracle"


def jitter(rng, value: int) -> int:
    """value moved by the seed by up to 1% (at least 1)."""
    spread = max(1, value // 100)
    return value + rng.randrange(-spread, spread + 1)


# ------------------------------------------------------------------ arith


def arith_ops(fc, orc: Oracles, seed: int) -> list:
    rng = random.Random(f"arith/{seed}")
    ops = []

    def fibonomial(n, k):
        ops.append(
            Op(
                "fibonomial",
                lambda: fc.fibonomial(n, k),
                lambda got: _expect(f"fibonomial({n}, {k})", got, orc.fibonomial(n, k)),
            )
        )

    # n on a log-spaced grid over [10, 1500), k near n/2, each moved by the
    # seed by about 1%; then the tail anchor.
    for i in range(20):
        n = jitter(rng, round(10 * 150 ** (i / 19)))
        fibonomial(n, n // 2 + rng.randrange(-1, 2))
    fibonomial(2000, 1000)

    for grid in (80, 120, 160, 200):
        n = jitter(rng, grid)
        ops.append(
            Op(
                "fibonomial_row",
                lambda n=n: [fc.fibonomial(n, k) for k in range(n + 1)],
                lambda got, n=n: _expect(f"row {n}", got, orc.fibonomial_row(n)),
            )
        )

    # Both recurrences below their recursion ceiling.
    for grid in (120, 160, 200, 240, 280, 320):
        n = jitter(rng, grid)
        k = jitter(rng, grid // 3)
        for variant in ("A", "B"):
            ops.append(
                Op(
                    f"fibonomial_rec_{variant}",
                    lambda n=n, k=k, v=variant: fc.fibonomial_rec(n, k, v),
                    lambda got, n=n, k=k: _expect(
                        f"fibonomial_rec({n}, {k})", got, orc.fibonomial(n, k)
                    ),
                )
            )
    # Kept failing operation: from a height far above any reached before,
    # the memoised recursion nests one frame per level and raises
    # RecursionError. An iterative sweep would answer it in O(n k).
    ops.append(
        Op(
            "fibonomial_rec_deep",
            lambda: fc.fibonomial_rec(2500, 2, "A"),
            lambda got: _expect("fibonomial_rec(2500, 2)", got, orc.fibonomial(2500, 2)),
        )
    )

    for grid in range(10, 34, 3):
        n = grid + rng.randrange(-1, 2)
        k = n // 2 + rng.randrange(-1, 2)
        ops.append(
            Op(
                "q_binomial",
                lambda n=n, k=k: fc.q_binomial(n, k),
                lambda got, n=n, k=k: _expect(
                    f"q_binomial({n}, {k})", got.coeffs, orc.q_binomial(n, k)
                ),
            )
        )

    # Sizes at which every preset costs about the same, so these 48 calls
    # form the tight cluster that the median operation falls in.
    for kind in ("ones", "arithmetic", "geometric"):
        for _ in range(8):
            n = jitter(rng, 55 if kind == "geometric" else 80)
            k = n // 2 + rng.randrange(-1, 2)
            q = 3 if kind == "geometric" else 1
            weights = fc.preset_weights(kind, n, q if kind == "geometric" else None)
            for first, fn in ((True, fc.c_coeff), (False, fc.s_coeff)):
                ops.append(
                    Op(
                        "c_coeff" if first else "s_coeff",
                        lambda fn=fn, w=weights, k=k: fn(w, k),
                        lambda got, a=(kind, first, n, k, q): _expect(
                            f"{a[0]} preset {a[2]}, {a[3]}", got, orc.preset_coeff(*a)
                        ),
                    )
                )

    for n in range(6, 13):
        # k and n+1-k sum the same number of determinants.
        k = rng.choice((n // 2, n + 1 - n // 2))
        ops.append(
            Op(
                "fibonomial_via_paths",
                lambda n=n, k=k: fc.fibonomial_via_paths(n, k),
                lambda got, n=n, k=k: _expect(
                    f"fibonomial_via_paths({n}, {k})", got, orc.fibonomial(n + 1, k)
                ),
            )
        )

    # Large fence counts of one size: the cluster the 90th percentile falls in.
    for _ in range(8):
        m = jitter(rng, 40000)
        ops.append(
            Op(
                "count_ideals",
                lambda m=m: fc.count_ideals(m),
                lambda got, m=m: _expect(f"count_ideals({m})", got, orc.fib(m + 2)),
            )
        )
    return ops


def arith_warmup(fc) -> None:
    fc.fibonomial(12, 5)
    fc.fibonomial_rec(8, 3, "B")
    fc.q_binomial(4, 2)
    fc.c_coeff(fc.preset_weights("ones", 3), 1)
    fc.fibonomial_via_paths(3, 1)
    fc.count_ideals(10)


# ------------------------------------------------------------------ poset

QUERY_BATCH = 64
POSET_HEIGHTS = range(4, 13)


def _check_chains(orc: Oracles, chains, start, n) -> Optional[str]:
    want = orc.max_chain_count(start[1], n)
    if len(chains) != want:
        return f"{len(chains)} maximal chains, expected {want}"
    if any(a >= b for a, b in zip(chains, chains[1:])):
        return "chains are not in strictly increasing lexicographic order"
    for chain in chains:
        if tuple(chain[0]) != start or len(chain) != n - start[1] + 1:
            return f"chain {chain} does not run from {start} to level {n}"
        for offset, (j, s) in enumerate(chain):
            if s != start[1] + offset or not 1 <= j <= orc.fib(s):
                return f"chain {chain} has a vertex off its level"
    return None


def poset_ops(fc, orc: Oracles, seed: int) -> list:
    rng = random.Random(f"poset/{seed}")
    ops = []
    for n_levels in POSET_HEIGHTS:
        p = fc.build(n_levels)
        dim = p.vertex_count

        ops.append(
            Op(
                "zeta_from_order",
                lambda p=p: fc.zeta_from_order(p),
                lambda got, n=n_levels: orc.matrix_fault("zeta_from_order", got.rows, n, "zeta"),
            )
        )
        ops.append(
            Op(
                "zeta_explicit",
                lambda p=p: fc.zeta_explicit(p),
                lambda got, n=n_levels: orc.matrix_fault("zeta_explicit", got.rows, n, "zeta"),
            )
        )
        ops.append(
            Op(
                "mobius",
                lambda p=p: fc.mobius(p),
                lambda got, n=n_levels: orc.matrix_fault("mobius", got.rows, n, "mobius"),
            )
        )
        # x <= y, so this first call at the height builds the chain matrix.
        x, y = sorted(rng.randrange(1, dim + 1) for _ in range(2))
        ops.append(
            Op(
                "count_all_chains",
                lambda p=p, x=x, y=y: fc.count_all_chains(p, x, y),
                lambda got, x=x, y=y: _expect(f"chains({x}, {y})", got, orc.chains_entry(x, y)),
            )
        )
        # From level 1 or 2 (F_2 = 1, so both give the same chain count) up
        # to level 7: 3120 chains.
        top = min(n_levels, 7)
        start = (1, rng.randrange(1, 3))
        ops.append(
            Op(
                "enumerate_max_chains",
                lambda p=p, v=start, top=top: fc.enumerate_max_chains(
                    p, fc.VertexCoord(*v), top
                ),
                lambda got, v=start, top=top: _check_chains(orc, got, v, top),
            )
        )
        # Two batches of each kind: 54 warm query batches a round, the
        # cluster that the median operation falls in.
        for kind in ("mobius_query", "chains_query", "leq_query") * 2:
            pairs = [
                (rng.randrange(1, dim + 1), rng.randrange(1, dim + 1))
                for _ in range(QUERY_BATCH)
            ]
            if kind == "mobius_query":
                call = lambda p=p, pairs=pairs: [
                    fc.mobius(p).entry(x, y) for x, y in pairs
                ]
                want = lambda pairs=pairs: [
                    orc.mobius_entry(x, y) if x <= y else 0 for x, y in pairs
                ]
            elif kind == "chains_query":
                call = lambda p=p, pairs=pairs: [
                    fc.count_all_chains(p, x, y) for x, y in pairs
                ]
                want = lambda pairs=pairs: [
                    orc.chains_entry(x, y) if x <= y else 0 for x, y in pairs
                ]
            else:
                call = lambda p=p, pairs=pairs: [p.leq(x, y) for x, y in pairs]
                want = lambda pairs=pairs: [orc.leq(x, y) for x, y in pairs]
            ops.append(
                Op(kind, call, lambda got, want=want, kind=kind: _expect(kind, got, want()))
            )
    return ops


def poset_warmup(fc) -> None:
    p = fc.build(3)
    fc.mobius(p).entry(1, 2)
    fc.count_all_chains(p, 1, 4)
    fc.zeta_explicit(p)
    fc.enumerate_max_chains(p, fc.VertexCoord(1, 1), 3)


# ----------------------------------------------------------------- tiling


def _solution_fault(orc: Oracles, k: int, r: int, m: int, solution) -> Optional[str]:
    if solution is None:
        if orc.tileable(k, m):
            return f"NO COVER for ({k}, {r}, {m}), where F_{m} divides F_{k + m}"
        return None
    if not orc.tileable(k, m):
        return f"a tiling for ({k}, {r}, {m}), where F_{m} does not divide F_{k + m}"
    copies = [(c.root, c.chosen) for c in solution.copies]
    return tiling_fault(orc, k, r, m, copies, solution.assignment)


def tiling_ops(fc, orc: Oracles, seed: int) -> list:
    rng = random.Random(f"tiling/{seed}")
    instances = []
    for k in range(1, 7):
        roots = range(1, orc.fib(k) + 1)
        if len(roots) > 2:
            roots = sorted(rng.sample(roots, 2))
        for m in (1, 2):
            instances += [(k, r, m) for r in roots]
    instances.append((3, rng.randrange(1, 3), 3))
    instances.append((7, rng.randrange(1, orc.fib(7) + 1), 2))

    ops = []
    for k, r, m in instances:
        found = {}

        def find(k=k, r=r, m=m, found=found):
            found["solution"] = fc.find_tiling(k, r, m)
            return found["solution"]

        ops.append(
            Op(
                "find_tiling",
                find,
                lambda got, a=(k, r, m): _solution_fault(orc, *a, got),
            )
        )
        ops.append(
            Op(
                "verify_tiling",
                lambda found=found: fc.verify_tiling(found["solution"]),
                lambda got: None if got is True else "verify_tiling rejected a tiling",
            )
        )
    # NO COVER instances: F_m does not divide F_{k+m}; (2, 4) is ~1 s of
    # exhaustive search.
    for k, m in ((1, 3), (2, 3), (1, 4), (2, 4)):
        ops.append(
            Op(
                "find_tiling",
                lambda k=k, m=m: fc.find_tiling(k, 1, m),
                lambda got, a=(k, 1, m): _solution_fault(orc, *a, got),
            )
        )
    for k, m in ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        r = rng.randrange(1, orc.fib(k) + 1)
        ops.append(
            Op(
                "count_all_tilings",
                lambda k=k, r=r, m=m: fc.tiling.count_all_tilings(k, r, m),
                lambda got, k=k, m=m: _expect(
                    f"count_all_tilings({k}, {m})", got, count_tilings(orc, k, m)
                ),
            )
        )
    return ops


def tiling_warmup(fc) -> None:
    solution = fc.find_tiling(1, 1, 2)
    fc.verify_tiling(solution)
    fc.tiling.count_all_tilings(1, 1, 1)


IN_PROCESS = {
    "arith": (arith_ops, arith_warmup),
    "poset": (poset_ops, poset_warmup),
    "tiling": (tiling_ops, tiling_warmup),
}

