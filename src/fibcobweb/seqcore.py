"""Exact Fibonacci arithmetic: F-factorials, F-falling-factorials, Fibonomial
coefficients, and Gaussian q-binomial polynomials, returned as an
`IntPolynomial` that holds its coefficients and offers `+` and `evaluate`.

Everything is computed over Python's arbitrary-precision integers; divisions
are checked for zero remainder so an indexing-convention slip fails loudly
instead of silently truncating. Indexing is fixed at F_0 = 0, F_1 = F_2 = 1.
Fibonomials are products of primitive parts of Fibonacci numbers, so they
need no division of big products. Fibonacci numbers and primitive parts are
computed the first time a call needs them and memoised by index.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

# F_n, and the primitive part P_d of F_d, memoised by index. A value depends on
# its index alone, so threads that race on an index store equal values, and
# neither memo needs a lock.
_fib_cache = {0: 0, 1: 1, 2: 1}
_prim_cache = {1: 1}


def exact_div(a: int, b: int) -> int:
    """Integer division that must be exact."""
    q, r = divmod(a, b)
    if r != 0:
        raise AssertionError(f"inexact division: {a} / {b} leaves remainder {r}")
    return q


def fib(n: int) -> int:
    """n-th Fibonacci number (F_0 = 0, F_1 = F_2 = 1). A miss is
    F_m F_{n-m+1} + F_{m-1} F_{n-m}: one addition at m = n - 1 when F_{n-1}
    and F_{n-2} are memoised, else m = ⌈n/2⌉, so the depth is O(log n)."""
    if n < 0:
        raise ValueError(f"Fibonacci index must be >= 0, got {n}")
    n = operator.index(n)  # a float key would find F_2 under 2.0
    f = _fib_cache.get(n)
    if f is None:
        m = n - 1 if n - 1 in _fib_cache and n - 2 in _fib_cache else (n + 1) // 2
        f = _fib_cache[n] = fib(m) * fib(n - m + 1) + fib(m - 1) * fib(n - m)
    return f


def f_factorial(n: int) -> int:
    """Product F_1 F_2 ... F_n, with the empty product 1 at n = 0."""
    if n < 0:
        raise ValueError(f"F-factorial index must be >= 0, got {n}")
    return f_falling(n, n)


def _balanced(xs) -> int:
    """Product of xs; above 16 factors its two halves are multiplied together,
    so the depth is O(log len(xs)) and the big multiplications are balanced."""
    if len(xs) > 16:
        half = len(xs) // 2
        return _balanced(xs[:half]) * _balanced(xs[half:])
    return math.prod(xs)


def f_falling(n: int, k: int) -> int:
    """Falling product F_n F_{n-1} ... F_{n-k+1} of k factors, balanced."""
    if k < 0:
        raise ValueError(f"length must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"length {k} exceeds upper index {n}")
    return _balanced([fib(j) for j in range(n - k + 1, n + 1)])


def _primitive_part(d: int) -> int:
    """P_d, memoised: F_d divided by the product of P_e over the proper
    divisors e of d, found by trial division up to √d. Each e is at most
    d / 2, so the recursion depth is at most log₂ d."""
    p = _prim_cache.get(d)
    if p is None:
        below = []
        for e in range(2, math.isqrt(d) + 1):
            if d % e == 0:
                below.append(_primitive_part(e))
                if e * e != d:
                    below.append(_primitive_part(d // e))
        p = _prim_cache[d] = exact_div(fib(d), _balanced(below))
    return p


def fibonomial(n: int, k: int) -> int:
    """Fibonomial coefficient F_n! / (F_k! F_{n-k}!); zero when k > n.

    It is the balanced product of the primitive parts P_d, 2 <= d <= n, with
    n//d - k//d - (n-k)//d == 1, so no big product is ever divided. That
    difference is 1 exactly when adding k and n - k in base d carries, which
    is the test n % d < k % d used below.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    get = _prim_cache.get  # a memo hit skips the call
    return _balanced(
        [get(d) or _primitive_part(d) for d in range(2, n + 1) if n % d < k % d]
    )


VARIANTS = ("A", "B")


def _triangle(n: int, k: int, step, one, zero):
    """Entry (n, k) of T(i, 0) = one, T(0, j > 0) = zero and
    T(i, j) = step(i, j, T(i-1, j), T(i-1, j-1)), by sweeping one row over
    the band i - (n - k) <= j <= min(i, k) that T(n, k) depends on."""
    if k > n:
        return zero
    row = [one] + [zero] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), max(1, i - (n - k)) - 1, -1):
            row[j] = step(i, j, row[j], row[j - 1])
    return row[k]


def fibonomial_rec(n: int, k: int, variant: str = "A") -> int:
    """Fibonomial coefficient computed purely by one of the two recurrences.

    Variant A expands (n k) as F_{k-1}(n-1 k) + F_{n+1-k}(n-1 k-1), variant B
    as F_{k+1}(n-1 k) + F_{n-1-k}(n-1 k-1); both start from (n 0) = 1 and
    (0 k) = 0 for k > 0, and entries with k > n are 0. The value comes from
    an iterative band sweep of the triangle, in O(n k) steps and O(k) space.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    F = [fib(j) for j in range(n + 2)]
    if variant == "A":
        return _triangle(
            n, k, lambda i, j, up, left: F[j - 1] * up + F[i + 1 - j] * left, 1, 0
        )
    # B reaches F_{-1} = F_1 = 1 at j = i, the only negative index.
    return _triangle(
        n, k, lambda i, j, up, left: F[j + 1] * up + F[abs(i - 1 - j)] * left, 1, 0
    )


class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """Immutable dense integer polynomial in one variable, the value that
    `q_binomial` returns; not a general polynomial ring.

    Coefficients are stored lowest power first with trailing zeros stripped,
    so the zero polynomial has no coefficients. A named tuple rather than a
    frozen dataclass, because `cobweb fibonomial` loads this module and
    importing `dataclasses` (which imports `inspect`) would slow its start-up.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, tuple(cs))

    def __add__(self, other) -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def evaluate(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value


def q_binomial(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial polynomial in q; the zero polynomial when k > n.

    The value comes from an iterative band sweep of the q-Pascal rule
    (n k) = q^k (n-1 k) + (n-1 k-1) over plain coefficient lists; only the
    final entry is wrapped as an `IntPolynomial`.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    return IntPolynomial(_triangle(n, k, _q_pascal_step, [1], []))


def _q_pascal_step(i: int, j: int, up: list, left: list) -> list:
    """q^j·up + left as a new coefficient list, lowest power first. Neither
    input is changed, because the starting row repeats one zero list."""
    if not up:
        return left[:]
    out = [0] * j + up
    for m, c in enumerate(left):  # deg left = (j-1)(i-j) <= deg q^j·up
        out[m] += c
    return out
