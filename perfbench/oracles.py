"""Independent reference values for the benchmark's correctness checks.

Nothing here imports fibcobweb. Every value is recomputed from definitions
by a route the program does not take, so a fault in the program cannot hide
behind the same fault in its check:

- Fibonomials come from primitive parts: F_n is the product of P_d over the
  divisors d of n, so (n k)_F is the product of the P_d with
  floor(n/d) - floor(k/d) - floor((n-k)/d) = 1. No big division is needed;
  the program divides a falling product by an F-factorial.
- Cobweb incidence values come from level-only closed forms instead of
  dense matrix inversion.
- Tilings are checked by their defining properties, and NO COVER answers
  against the divisibility condition F_m | F_{k+m}.
"""

from __future__ import annotations

import math
from itertools import combinations, product

# Fibonacci numbers up to this index are kept in a table; past it they are
# computed on demand, so checking count_ideals(10**5) does not hold 10**5
# big integers in memory.
FIB_TABLE = 4000


class Oracles:
    """Memoised reference values; one instance per benchmark round."""

    def __init__(self):
        self._fib = [0, 1]
        self._parts = [1]  # _parts[d] = primitive part of F_d (index 0 unused)
        self._qrow_n, self._qrow = 0, [(1,)]  # row n of Gaussian coefficients
        self._stirling1 = [[1]]
        self._stirling2 = [[1]]

    # ------------------------------------------------------------ sequences

    def fib(self, n: int) -> int:
        if n > FIB_TABLE:
            return _fib_doubling(n)[0]
        while len(self._fib) <= n:
            self._fib.append(self._fib[-1] + self._fib[-2])
        return self._fib[n]

    def _primitive_part(self, d: int) -> int:
        if len(self._parts) <= d:
            top = max(d, 2 * len(self._parts))
            divisor_product = [1] * (top + 1)
            parts = [1] * (top + 1)
            for e in range(1, top + 1):
                quotient, rem = divmod(self.fib(e), divisor_product[e])
                if rem:
                    raise ArithmeticError(f"primitive part of F_{e} is not integral")
                parts[e] = quotient
                for multiple in range(2 * e, top + 1, e):
                    divisor_product[multiple] *= quotient
            self._parts = parts
        return self._parts[d]

    def fibonomial(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        factors = [
            self._primitive_part(d)
            for d in range(3, n + 1)
            if n // d - k // d - (n - k) // d == 1
        ]
        return tree_product(factors)

    def fibonomial_row(self, n: int) -> list:
        return [self.fibonomial(n, k) for k in range(n + 1)]

    # --------------------------------------------------------- q-binomials

    def q_binomial(self, n: int, k: int) -> tuple:
        """Coefficients of the Gaussian polynomial, lowest power first.

        Rows are swept upward from the last one reached and only the current
        row is kept, so asking in increasing n costs one sweep in all.
        """
        if k < 0 or k > n:
            return ()
        if self._qrow_n > n:
            self._qrow_n, self._qrow = 0, [(1,)]
        while self._qrow_n < n:
            m = self._qrow_n + 1
            prev = self._qrow
            row = [(1,)]
            for j in range(1, m + 1):
                left = prev[j - 1]
                right = prev[j] if j < m else ()
                # q-Pascal in the form the program does not use:
                # (m j) = q^(m-j) (m-1 j-1) + (m-1 j)
                out = [0] * max(m - j + len(left), len(right))
                for i, c in enumerate(left):
                    out[m - j + i] += c
                for i, c in enumerate(right):
                    out[i] += c
                row.append(tuple(out))
            self._qrow_n, self._qrow = m, row
        return self._qrow[k]

    @staticmethod
    def q_binomial_at(n: int, k: int, q: int) -> int:
        """(n k)_q at an integer q > 1, by the q-analogue of n!/(k!(n-k)!)."""
        if k < 0 or k > n:
            return 0
        num = math.prod(q ** (n - i) - 1 for i in range(k))
        den = math.prod(q ** (i + 1) - 1 for i in range(k))
        value, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"(n k)_q at q={q} is not integral")
        return value

    # ------------------------------------------------- weighted presets

    def preset_coeff(self, kind: str, first: bool, n: int, k: int, q: int = 1) -> int:
        """Weighted-box coefficient of a preset by its classical closed form."""
        if kind == "ones":
            return math.comb(n, k) if first else math.comb(n + k - 1, k)
        if kind == "arithmetic":
            if first:
                return self._stirling(self._stirling1, n + 1, n + 1 - k, lambda m, j: m - 1)
            return self._stirling(self._stirling2, n + k, n, lambda m, j: j)
        if kind == "geometric":
            if first:
                return q ** (k * (k - 1) // 2) * self.q_binomial_at(n, k, q)
            return self.q_binomial_at(n + k - 1, k, q)
        raise ValueError(f"unknown preset {kind!r}")

    @staticmethod
    def _stirling(table: list, n: int, k: int, weight) -> int:
        """Row-by-row triangle T(m, j) = T(m-1, j-1) + weight(m, j) T(m-1, j).

        weight m-1 gives unsigned Stirling numbers of the first kind, weight
        j those of the second kind.
        """
        if k < 0 or k > n:
            return 0
        while len(table) <= n:
            m = len(table)
            prev = table[-1] + [0]
            table.append([0] + [prev[j - 1] + weight(m, j) * prev[j] for j in range(1, m + 1)])
        return table[n][k]

    # --------------------------------------------------------- cobweb

    def level_of(self, x: int) -> int:
        """Level of the 1-based linear index x (level s starts at F_{s+1})."""
        s = 1
        while self.fib(s + 2) <= x:
            s += 1
        return s

    def level_table(self, max_level: int) -> list:
        """Level of every linear index 1..F_{N+2}-1, with a 0 pad at index 0."""
        table = [0]
        for s in range(1, max_level + 1):
            table.extend([s] * self.fib(s))
        return table

    def mobius_levels(self, s: int, t: int) -> int:
        """mu(x, y) for x on level s and y on level t, x != y."""
        if s >= t:
            return 0
        return -math.prod(1 - self.fib(i) for i in range(s + 1, t))

    def chains_levels(self, s: int, t: int) -> int:
        """Chains from x on level s to y on level t, x != y."""
        if s >= t:
            return 0
        return math.prod(1 + self.fib(i) for i in range(s + 1, t))

    def mobius_entry(self, x: int, y: int) -> int:
        return 1 if x == y else self.mobius_levels(self.level_of(x), self.level_of(y))

    def chains_entry(self, x: int, y: int) -> int:
        return 1 if x == y else self.chains_levels(self.level_of(x), self.level_of(y))

    def leq(self, x: int, y: int) -> bool:
        return x == y or self.level_of(x) < self.level_of(y)

    def matrix_fault(self, label: str, rows, n: int, kind: str):
        """Why `rows` is not the height-n zeta or Mobius matrix, or None."""
        levels = self.level_table(n)
        dim = len(levels) - 1
        if len(rows) != dim or any(len(row) != dim for row in rows):
            return f"{label}: not a {dim} x {dim} matrix"
        for x, row in enumerate(rows, start=1):
            for y, value in enumerate(row, start=1):
                if x == y:
                    want = 1
                elif kind == "zeta":
                    want = 1 if levels[x] < levels[y] else 0
                else:
                    want = self.mobius_levels(levels[x], levels[y])
                if value != want:
                    return f"{label}: entry ({x}, {y}) is {value}"
        return None

    def max_chain_count(self, s: int, n: int) -> int:
        return math.prod(self.fib(i) for i in range(s + 1, n + 1))

    # --------------------------------------------------------- tiling

    def universe(self, k: int, m: int) -> int:
        """Maximal chains from a level-k vertex up to level k+m."""
        return math.prod(self.fib(k + s) for s in range(1, m + 1))

    def candidates(self, k: int, m: int) -> int:
        """Copies of the height-m prototype rooted at one level-k vertex."""
        return math.prod(math.comb(self.fib(k + s), self.fib(s)) for s in range(1, m + 1))

    def tileable(self, k: int, m: int) -> bool:
        """Necessary condition for a tiling: F_m divides F_{k+m}."""
        return self.fib(k + m) % self.fib(m) == 0


def _fib_doubling(n: int) -> tuple:
    """(F_n, F_{n+1}) by F_2k = F_k (2 F_{k+1} - F_k), F_2k+1 = F_k^2 + F_{k+1}^2."""
    if n == 0:
        return 0, 1
    a, b = _fib_doubling(n // 2)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


def tree_product(values: list) -> int:
    """Product by balanced pairing, so big factors meet late."""
    if not values:
        return 1
    values = list(values)
    while len(values) > 1:
        paired = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def tiling_fault(
    orc: Oracles, k: int, r: int, m: int, copies, assignment=None
) -> str | None:
    """Why `copies` is not a tiling rooted at (r, k) of height m, or None.

    `copies` is a sequence of (root, chosen) pairs: root as (j, s) and chosen
    as one position tuple per level k+1 .. k+m. `assignment`, when given,
    maps each chain tuple to the index of the copy holding it.
    """
    want = orc.fibonomial(k + m, m)
    if len(copies) != want:
        return f"{len(copies)} copies, expected fibonomial({k + m}, {m}) = {want}"
    seen = {}
    for idx, (root, chosen) in enumerate(copies):
        if tuple(root) != (r, k):
            return f"copy {idx} has root {tuple(root)}, expected {(r, k)}"
        if len(chosen) != m:
            return f"copy {idx} has height {len(chosen)}"
        for s, subset in enumerate(chosen, start=1):
            if len(subset) != orc.fib(s) or len(set(subset)) != len(subset):
                return f"copy {idx} level {k + s} subset {subset} is not an F_{s}-set"
            if not all(1 <= pos <= orc.fib(k + s) for pos in subset):
                return f"copy {idx} level {k + s} subset {subset} out of range"
        for chain in product(*chosen):
            if chain in seen:
                return f"chain {chain} covered by copies {seen[chain]} and {idx}"
            seen[chain] = idx
    universe = orc.universe(k, m)
    if len(seen) != universe:
        return f"{len(seen)} chains covered, universe has {universe}"
    if assignment is not None and dict(assignment) != seen:
        return "chain assignment disagrees with the copies"
    return None


def count_tilings(orc: Oracles, k: int, m: int) -> int:
    """Number of tilings by brute force: cover the smallest open chain first."""
    sizes = [orc.fib(k + s) for s in range(1, m + 1)]
    subset_choices = [
        list(combinations(range(1, sizes[s - 1] + 1), orc.fib(s)))
        for s in range(1, m + 1)
    ]
    families = [frozenset(product(*chosen)) for chosen in product(*subset_choices)]
    universe = frozenset(product(*(range(1, n + 1) for n in sizes)))
    by_chain = {}
    for fam in families:
        for chain in fam:
            by_chain.setdefault(chain, []).append(fam)

    def count(open_chains: frozenset) -> int:
        if not open_chains:
            return 1
        first = min(open_chains)
        return sum(
            count(open_chains - fam) for fam in by_chain[first] if fam <= open_chains
        )

    return count(universe)

