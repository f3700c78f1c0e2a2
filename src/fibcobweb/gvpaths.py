"""Binomial determinants counting nonintersecting path tuples.

For an index subset R = {r_1 < ... < r_k} of {0..n}, the determinant of the
matrix with entries C(r_i, n - r_{k+1-j}) counts nonintersecting k-tuples of
lattice paths; summed over all k-subsets it yields a Fibonomial coefficient.
The single determinants, by fraction-free elimination and by cofactor
expansion, live in `verify` as the oracles for the sum.

The sum over all k-subsets is never formed term by term. Reversing the
column order turns each path matrix into the principal submatrix M[R][R] of
M[a][b] = C(a, n - b), 0 <= a, b <= n, at the sign (-1)^{k(k-1)/2}; the sum
of the k x k principal minors of M is (-1)^k times the coefficient of
t^{n+1-k} in det(tI - M). So one characteristic polynomial (Carlitz's, of
the binomial matrix), computed by Berkowitz's division-free algorithm, gives
the path sums for every k at once.
"""

from __future__ import annotations

import math
from operator import mul
from typing import List, Sequence

from .guards import ensure_within

SUM_LIMIT = 50


def char_poly(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Coefficients c_0..c_n of det(tI - matrix) = sum_i c_i t^(n-i).

    Berkowitz's division-free algorithm: the polynomial of each leading
    principal submatrix is the previous one times a Toeplitz matrix whose
    entries are 1, -a and -R A^j C, for the new diagonal entry a, row R and
    column C and the leading block A. Integer products and sums only, O(n^4).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    poly = [1]
    for r, row in enumerate(matrix):
        # Each block row keeps only what follows its leading zeros: the path
        # sums' matrix has no nonzero entry in its leading blocks up to half
        # its size.
        block = []
        for line in matrix[:r]:
            start = next((j for j in range(r) if line[j]), r)
            block.append((start, line[start:r]))
        column = [line[r] for line in matrix[:r]]
        toeplitz = [1, -row[r]]
        for _ in range(r):
            toeplitz.append(-sum(map(mul, row, column)))
            column = [sum(map(mul, line, column[start:])) for start, line in block]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly


def _path_sums(n: int) -> List[int]:
    """Path sums over the k-subsets of {0..n}, for k = 0..n+1: the
    coefficients of det(tI - M), M[a][b] = C(a, n - b), each times
    (-1)^{k(k+1)/2}."""
    matrix = [[math.comb(a, n - b) for b in range(n + 1)] for a in range(n + 1)]
    return [-c if k % 4 in (1, 2) else c for k, c in enumerate(char_poly(matrix))]


def fibonomial_via_paths(n: int, k: int, unsafe_limits: bool = False) -> int:
    """Sum of path counts over all k-subsets of {0..n}.

    Equals fibonomial(n+1, k); the k = 0 term is the empty determinant 1.
    Read from the characteristic polynomial of the binomial matrix (see the
    module docstring) in O(n^4) integer operations, so `SUM_LIMIT` bounds n
    where one call takes a fraction of a second.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be >= 0, got ({n}, {k})")
    ensure_within("path sum upper index", n, SUM_LIMIT, unsafe_limits)
    if k > n + 1:
        return 0
    value = _path_sums(n)[k]
    if value < 0:
        raise ArithmeticError(f"path sum for n={n}, k={k} is negative ({value})")
    return value
