"""Weighted-box binomial coefficients of the first and second kind.

The first kind selects k distinct boxes (elementary symmetric sums of the
weights), the second kind allows box repetition (complete homogeneous sums).
Preset weight vectors recover binomials, Stirling numbers of both kinds, and
Gaussian coefficients.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, combinations, combinations_with_replacement, repeat
from typing import Iterable

from .guards import ensure_within

ORACLE_LIMIT = 12


class WeightVector(tuple):
    """Nondecreasing positive integer weights (w_1, ..., w_n): a tuple,
    checked once when it is made. Non-integers raise TypeError."""

    __slots__ = ()

    def __new__(cls, weights: Iterable[int]):
        ws = tuple(map(operator.index, weights))
        for w in ws:
            if w < 1:
                raise ValueError(f"weights must be >= 1, got {w}")
        if any(a > b for a, b in zip(ws, ws[1:])):
            raise ValueError(f"weights must be nondecreasing, got {ws}")
        return super().__new__(cls, ws)

    def __repr__(self) -> str:
        return f"WeightVector{tuple(self)}"


def _coerce(w: Iterable[int]) -> WeightVector:
    return w if isinstance(w, WeightVector) else WeightVector(w)


def c_coeff(w: Iterable[int], k: int) -> int:
    """First-kind coefficient: sum of products over k strictly increasing boxes.

    Computed by the recurrence C_k^n = C_k^{n-1} + w_n C_{k-1}^{n-1} with
    C_0^n = 1 and C_k^0 = 0 for k > 0, sweeping one row in place over the
    band k - (n - i) <= j <= min(i, k) that C_k^n depends on.
    """
    ws = _coerce(w)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = len(ws)
    if k > n:
        return 0
    row = [1] + [0] * k
    for i, w_i in enumerate(ws, start=1):
        for j in range(min(i, k), max(1, k - (n - i)) - 1, -1):
            row[j] += w_i * row[j - 1]
    return row[k]


def s_coeff(w: Iterable[int], k: int) -> int:
    """Second-kind coefficient: sum of products over k nondecreasing boxes.

    Computed by the recurrence S_k^n = S_k^{n-1} + w_n S_{k-1}^n with
    S_0^n = 1 and S_k^0 = 0 for k > 0.
    """
    ws = _coerce(w)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not ws:
        return int(k == 0)
    row = [1] + [0] * k
    for w_i in ws:
        for j in range(1, k + 1):
            row[j] = row[j] + w_i * row[j - 1]
    return row[k]


def c_coeff_oracle(w: Iterable[int], k: int) -> int:
    """Brute-force enumeration of all strictly increasing index tuples."""
    ws = _coerce(w)
    ensure_within("oracle weight count", len(ws), ORACLE_LIMIT)
    ensure_within("oracle k", k, ORACLE_LIMIT)
    return sum(math.prod(t) for t in combinations(ws, k))


def s_coeff_oracle(w: Iterable[int], k: int) -> int:
    """Brute-force enumeration of all nondecreasing index tuples."""
    ws = _coerce(w)
    ensure_within("oracle weight count", len(ws), ORACLE_LIMIT)
    ensure_within("oracle k", k, ORACLE_LIMIT)
    return sum(math.prod(t) for t in combinations_with_replacement(ws, k))


PRESET_KINDS = ("ones", "arithmetic", "geometric")


def preset_log2(kind: str, n: int, q: int | None = None) -> int:
    """Check a preset as preset_weights does; bound log2 of its largest weight
    (ceil(log2 n), or (n - 1) ceil(log2 q)) without building it."""
    if kind not in PRESET_KINDS:
        raise ValueError(f"kind must be one of {PRESET_KINDS}, got {kind!r}")
    if n < 1:
        raise ValueError(f"preset length must be >= 1, got {n}")
    if kind != "geometric":
        if q is not None:
            raise ValueError(f"{kind} preset takes no ratio, got {q}")
        return (n - 1).bit_length() if kind == "arithmetic" else 0
    if q is None or q < 1:
        raise ValueError(f"geometric preset needs an integer ratio q >= 1, got {q}")
    return (n - 1) * (q - 1).bit_length()


def preset_weights(kind: str, n: int, q: int | None = None) -> WeightVector:
    """Named weight families: ones(n), arithmetic(n) = (1..n), geometric(n, q)."""
    preset_log2(kind, n, q)
    if kind == "ones":
        return WeightVector((1,) * n)
    if kind == "arithmetic":
        return WeightVector(range(1, n + 1))
    return WeightVector(accumulate(repeat(q, n - 1), operator.mul, initial=1))
