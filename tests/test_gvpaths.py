import random

import pytest

from fibcobweb.guards import GuardExceeded
from fibcobweb.gvpaths import SUM_LIMIT, char_poly, fibonomial_via_paths
from fibcobweb.seqcore import fibonomial
from fibcobweb.verify import _path_matrix, det_cofactor, det_exact


def test_path_matrix_example():
    assert _path_matrix((1, 3), 3) == [[1, 0], [1, 3]]
    assert _path_matrix((0, 1), 3) == [[0, 0], [0, 0]]


def test_n_of_r_examples():
    # the nonintersecting path count of one index set R within 0..n
    assert det_exact(_path_matrix((1,), 2)) == 1
    assert det_exact(_path_matrix((1, 3), 3)) == 3
    assert det_exact(_path_matrix((0, 1), 3)) == 0
    assert det_exact(_path_matrix((), 5)) == 1  # empty determinant


DETERMINANT_CASES = [
    ([], 1),
    ([[7]], 7),
    ([[1, 2], [3, 4]], -2),
    ([[0, 1], [1, 0]], -1),  # needs a row swap
    ([[2, 0, 1], [1, 3, 2], [0, 1, 4]], 21),
    ([[0, 2, 1], [0, 0, 3], [5, 1, 2]], 30),  # two swaps
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 0),  # singular
    ([[1, -2, 3, 0], [4, 5, -6, 1], [7, 0, 9, -2], [1, 1, 1, 1]], None),
    ([[3, 1, 0, 2, 1], [0, 0, 4, 1, 2], [5, 2, 1, 0, 0], [1, 1, 1, 1, 1], [2, 0, 3, 1, 4]], None),
]


@pytest.mark.parametrize("matrix,known", DETERMINANT_CASES)
def test_det_exact_matches_cofactor(matrix, known):
    value = det_exact(matrix)
    assert value == det_cofactor(matrix)
    if known is not None:
        assert value == known


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2], [3, 4], [5, 6]])


def test_char_poly_matches_determinants():
    # det(tI - A) at integer t, from the coefficients and from the matrix.
    rng = random.Random(20041)
    for dim in range(7):
        for _ in range(6):
            a = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            coeffs = char_poly(a)
            assert len(coeffs) == dim + 1
            for t in (-3, -1, 0, 1, 2, 5):
                value = sum(c * t ** (dim - i) for i, c in enumerate(coeffs))
                shifted = [
                    [(t if i == j else 0) - a[i][j] for j in range(dim)]
                    for i in range(dim)
                ]
                assert value == det_exact(shifted)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly([[1, 2], [3, 4], [5, 6]])


def test_fibonomial_via_paths_examples():
    assert fibonomial_via_paths(2, 1) == 2
    assert fibonomial_via_paths(3, 2) == 6
    assert fibonomial_via_paths(2, 2) == 2
    assert fibonomial_via_paths(4, 0) == 1
    assert fibonomial_via_paths(3, 9) == 0


def test_fibonomial_via_paths_identity():
    for n in range(9):
        for k in range(n + 2):
            assert fibonomial_via_paths(n, k) == fibonomial(n + 1, k)


def test_fibonomial_via_paths_guard():
    with pytest.raises(GuardExceeded):
        fibonomial_via_paths(SUM_LIMIT + 1, 3)
    assert fibonomial_via_paths(SUM_LIMIT + 1, 0, unsafe_limits=True) == 1
    with pytest.raises(ValueError):
        fibonomial_via_paths(-1, 0)
