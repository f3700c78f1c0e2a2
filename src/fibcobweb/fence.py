"""Order ideals of the zigzag fence poset.

The fence on m elements alternates covers x_1 < x_2 > x_3 < x_4 > ...; its
number of down-closed subsets is the Fibonacci number F_{m+2} under this
package's indexing (calibrated by direct enumeration at m = 1, 2, 3).
`count_ideals` counts them from the fence's own 2x2 transfer matrices: the
power of the two-step matrix is symmetric, so two entries carry it through
binary powering. The oracles live in `verify`: one UP or DOWN step per
cover, and brute force over all subsets for ideals and filters.
"""

from __future__ import annotations


def count_ideals(m: int) -> int:
    """Down-closed subsets of the m-element fence, from its transfer matrix.

    The m - 1 steps alternate UP, DOWN, UP, ...; each pair is the two-step
    matrix S = DOWN.UP = ((1, 1), (1, 2)). Every power of S is symmetric,
    S^p = ((a, b), (b, a + b)), so the pair (a, b) stands for it. S^p is
    built from the bits of p = (m - 1) // 2, highest first: each bit squares
    (a, b) with three squarings, a^2, b^2 and (a + b)^2 (CPython squares
    faster than it multiplies), and a set bit steps by S with two additions.
    Nothing is computed after the last bit. Starting from (1, 1) at x_1, the
    count is the sum of the entries of S^p, 2a + 3b, or of UP.S^p, 3a + 5b,
    when m - 1 is odd. This takes O(log m) big squarings.
    """
    if m < 0:
        raise ValueError(f"size must be >= 0, got {m}")
    if m == 0:
        return 1
    pairs, odd = divmod(m - 1, 2)
    a, b = 1, 0
    for bit in bin(pairs)[2:]:
        a2, c = a * a, a + b
        a, b = a2 + b * b, c * c - a2  # S^(2p) from S^p
        if bit == "1":
            a += b  # S^(p+1) = S^p.S = ((a + b, a + 2b), ...)
            b += a
    return 3 * a + 5 * b if odd else 2 * a + 3 * b
