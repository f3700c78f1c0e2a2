import math
import subprocess
import sys
import threading
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcobweb import seqcore
from fibcobweb.gvpaths import fibonomial_via_paths
from fibcobweb.seqcore import (
    IntPolynomial,
    exact_div,
    f_factorial,
    f_falling,
    fib,
    fibonomial,
    fibonomial_rec,
    q_binomial,
)

FIRST_FIBS = (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55)
# Child-interpreter code that sets want[n] = F_n, by the plain recurrence,
# for each n in `order`, and keeps no other value.
PLAIN_RECURRENCE = (
    "want, a, b = dict.fromkeys(order), 0, 1\n"
    "for i in range(max(order) + 1):\n"
    "    if i in want:\n"
    "        want[i] = a\n"
    "    a, b = b, a + b\n"
)


def test_fib_first_values():
    assert tuple(fib(i) for i in range(11)) == FIRST_FIBS


def test_fib_matches_plain_recurrence():
    a, b = 0, 1
    for i in range(120):
        assert fib(i) == a
        a, b = b, a + b


def test_fib_rejects_negative_index():
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_rejects_a_non_integer_index():
    # F_2 is memoised under the key 2, which 2.0 equals and hashes like
    assert fib(2) == 1
    for index in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            fib(index)
    assert (fib(False), fib(True)) == (0, 1)


def test_exact_div():
    assert exact_div(30, 6) == 5
    with pytest.raises(AssertionError):
        exact_div(7, 2)


def test_f_factorial_values():
    assert f_factorial(0) == 1
    assert f_factorial(5) == 30
    assert f_factorial(10) == 122522400


def test_f_factorial_matches_running_product():
    prod = 1
    for n in range(1, 25):
        prod *= fib(n)
        assert f_factorial(n) == prod


def test_f_falling_values():
    assert f_falling(7, 0) == 1
    assert f_falling(6, 3) == 120  # 8 * 5 * 3


@pytest.mark.parametrize("n", range(13))
def test_f_falling_full_length_is_factorial(n):
    assert f_falling(n, n) == f_factorial(n)


def test_f_falling_matches_sequential_product():
    # lengths well past the plain-product leaf, so every split depth is hit
    for n in range(101):
        prod = 1
        for k in range(n + 1):
            assert f_falling(n, k) == prod
            prod *= fib(n - k)


def test_no_factorial_table_is_kept():
    code = (
        "import tracemalloc; tracemalloc.start();"
        "from fibcobweb.seqcore import fibonomial; fibonomial(2000, 1000);"
        "print(tracemalloc.get_traced_memory()[0])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * 2**20


def test_primitive_parts_multiply_to_fibonacci_numbers():
    for n in range(1, 501):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert math.prod(seqcore._primitive_part(d) for d in divisors) == fib(n)


def test_small_k_builds_only_the_parts_it_needs():
    # fibonomial(20000, 2) multiplies the parts at the divisors of 20000 and
    # 19999; the memo holds those and the parts of their divisors. Each part
    # needs F_d at a lone index d, which memoises O(log d) Fibonacci numbers
    # rather than every F_j below d.
    code = (
        "import tracemalloc; tracemalloc.start()\n"
        "from fibcobweb import seqcore\n"
        "seqcore.fibonomial(20000, 2)\n"
        "print(len(seqcore._prim_cache), len(seqcore._fib_cache),"
        " tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    parts, fibs, peak = map(int, proc.stdout.split())
    assert parts < 100
    assert fibs < 200
    assert peak < 4 * 2**20


def test_a_tiling_refusal_computes_few_fibonacci_numbers():
    # the root check and the universe guard need F_100000 and F_100001 only
    code = (
        "import tracemalloc; tracemalloc.start()\n"
        "from fibcobweb.guards import GuardExceeded\n"
        "from fibcobweb.tiling import find_tiling\n"
        "try:\n"
        "    find_tiling(100000, 1, 1)\n"
        "except GuardExceeded:\n"
        "    print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * 2**20


@pytest.mark.parametrize(
    "order",
    [
        "random.Random(7).sample(range(3000), 3000)",
        "[100000]",
        "[*range(4001, 8000, 2), 8000]",
    ],
)
def test_fib_in_any_order_matches_the_plain_recurrence(order):
    # Each order starts from a fresh memo. Lone indices and runs that skip
    # every other index reach a miss whose lower neighbours are not both
    # memoised; that miss halves its index, so the recursion stays shallow
    # even under a limit of 100 frames.
    code = (
        "import random, sys\n"
        "from fibcobweb.seqcore import fib\n"
        f"order = {order}\n"
        + PLAIN_RECURRENCE
        + "sys.setrecursionlimit(100)\n"
        "wrong = [n for n in order if fib(n) != want[n]]\n"
        "assert not wrong, wrong[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_primitive_part_table_grows_from_its_length():
    # the later calls read parts the earlier ones memoised and compute the
    # rest from them; a memo that stored a wrong or unfinished part gives a
    # wrong Fibonomial (or an inexact division) on the second or third call
    code = (
        "from fibcobweb.seqcore import f_factorial, f_falling, fibonomial\n"
        "for n, k in ((10, 5), (300, 150), (50, 20)):\n"
        "    q, r = divmod(f_falling(n, k), f_factorial(k))\n"
        "    assert r == 0 and fibonomial(n, k) == q, (n, k)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_primitive_part_table_grows_under_threads():
    # The memo is read and written without a lock. The three readers ask
    # for the same frontier size at once, so they race on the same parts
    # that no thread has computed yet; a memo that showed a part before it
    # was final, or stored a wrong one, would give them wrong Fibonomials.
    code = (
        "import sys, threading\n"
        "from fibcobweb.seqcore import f_factorial, f_falling, fibonomial\n"
        "sys.setswitchinterval(1e-6)\n"
        "sizes = list(range(100, 1300, 50))\n"
        "want = {n: f_falling(n, n // 3) // f_factorial(n // 3) for n in sizes}\n"
        "frontier, wrong = [0], []\n"
        "def grow():\n"
        "    for n in sizes:\n"
        "        frontier[0] = n\n"
        "        fibonomial(n + 49, 1)\n"
        "    frontier[0] = None\n"
        "def read():\n"
        "    while frontier[0] is not None:\n"
        "        n = frontier[0]\n"
        "        if n and fibonomial(n, n // 3) != want[n]:\n"
        "            wrong.append(n)\n"
        "threads = [threading.Thread(target=f) for f in (grow, read, read, read)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert not wrong, wrong\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_fibonacci_memo_under_threads():
    # The memo is read and written without a lock. Eight threads ask for the
    # same lone indices in different orders from a fresh memo, so they race
    # on misses and on the halved indices below them.
    code = (
        "import random, sys, threading\n"
        "from fibcobweb.seqcore import fib\n"
        "sys.setswitchinterval(1e-6)\n"
        "order = random.Random(3).sample(range(20000), 300)\n"
        + PLAIN_RECURRENCE
        + "wrong = []\n"
        "def read(seed):\n"
        "    for n in random.Random(seed).sample(list(want), len(want)):\n"
        "        if fib(n) != want[n]:\n"
        "            wrong.append(n)\n"
        "threads = [threading.Thread(target=read, args=(s,)) for s in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert not wrong, wrong[:5]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_f_falling_rejects_bad_lengths():
    with pytest.raises(ValueError):
        f_falling(3, 4)
    with pytest.raises(ValueError):
        f_falling(3, -1)


def test_fibonomial_values():
    assert fibonomial(5, 2) == 15
    assert fibonomial(10, 5) == 136136
    for n in range(41):
        assert fibonomial(n, 0) == 1
    assert fibonomial(0, 3) == 0
    assert fibonomial(4, 9) == 0


def test_fibonomial_rejects_negative():
    with pytest.raises(ValueError):
        fibonomial(-1, 0)
    with pytest.raises(ValueError):
        fibonomial(3, -2)


def test_fibonomial_symmetry():
    for n in range(41):
        for k in range(n + 1):
            assert fibonomial(n, k) == fibonomial(n, n - k)


def test_fibonomial_division_always_exact():
    # each primitive part is F_d divided with exact_div by the parts below
    # it; this sweep would raise on any drift
    for n in range(201):
        for k in range(n + 1):
            fibonomial(n, k)


def test_fibonomial_rec_examples():
    assert fibonomial_rec(6, 2, "A") == 40
    assert fibonomial_rec(6, 2, "B") == 40
    assert fibonomial_rec(0, 3, "A") == 0
    assert fibonomial_rec(0, 3, "B") == 0


def test_fibonomial_rec_matches_product_formula():
    for n in range(31):
        for k in range(n + 2):
            want = fibonomial(n, k)
            assert fibonomial_rec(n, k, "A") == want
            assert fibonomial_rec(n, k, "B") == want


@pytest.mark.parametrize("variant", ["A", "B"])
def test_fibonomial_rec_deeper_than_the_recursion_limit(variant):
    assert fibonomial_rec(2500, 2, variant) == fibonomial(2500, 2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fibonomial_routes_agree(data):
    n = data.draw(st.integers(0, 200))
    k = data.draw(st.integers(0, n + 2))
    want = fibonomial(n, k)
    assert fibonomial_rec(n, k, "A") == want
    assert fibonomial_rec(n, k, "B") == want
    if k <= n:
        q, r = divmod(f_falling(n, k), f_factorial(k))
        assert r == 0 and q == want
    else:
        assert want == 0
    # The path sum costs O(n^4) operations on growing integers (about
    # 0.06 s at n = 40, 0.16 s at 50), so the path route draws a size of its
    # own below the 0..200 range.
    n = data.draw(st.integers(1, 41))
    k = data.draw(st.integers(0, n + 2))
    assert fibonomial_via_paths(n - 1, k) == fibonomial(n, k)


def test_fibonomial_rec_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fibonomial_rec(3, 1, "C")
    with pytest.raises(ValueError):
        fibonomial_rec(-1, 0, "A")


def _q_binomial_by_subset_sums(n, k):
    """Coefficient tuple of (n k)_q: the coefficient of q^j counts the
    k-subsets of {0, ..., n-1} whose sum is j + k(k-1)/2."""
    counts = Counter(sum(s) - k * (k - 1) // 2 for s in combinations(range(n), k))
    return tuple(counts[j] for j in range(max(counts, default=-1) + 1))


def test_q_binomial_examples():
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    for n in range(8):
        assert q_binomial(n, 0) == IntPolynomial((1,))
    assert q_binomial(3, 2).evaluate(1) == 3
    assert q_binomial(2, 5).coeffs == ()


def test_q_binomial_matches_subset_sums():
    for n in range(11):
        for k in range(n + 2):
            assert q_binomial(n, k).coeffs == _q_binomial_by_subset_sums(n, k)


def test_q_binomial_degree():
    for n in range(9):
        for k in range(n + 1):
            assert len(q_binomial(n, k).coeffs) - 1 == k * (n - k)


def test_q_binomial_deeper_than_the_recursion_limit():
    poly = q_binomial(1100, 1)  # 1 + q + ... + q^1099
    assert poly.evaluate(1) == 1100
    assert len(poly.coeffs) - 1 == 1099


def test_polynomial_canonical_form():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).coeffs == ()
    assert IntPolynomial((0, 0)).coeffs == ()


def test_polynomial_arithmetic():
    p = IntPolynomial((1, 1))  # 1 + q
    q = IntPolynomial((-1, 0, 2))  # -1 + 2q^2
    assert (p + q).coeffs == (0, 1, 2)
    assert (q + IntPolynomial((1, 0, -2))).coeffs == ()
    assert p.evaluate(5) == 6


def test_polynomial_addition_rejects_other_types():
    # NotImplemented from both sides, so Python raises TypeError
    with pytest.raises(TypeError):
        IntPolynomial((1,)) + 1.5
    with pytest.raises(TypeError):
        "a" + IntPolynomial((1,))


def test_polynomial_immutable_and_hashable():
    p = IntPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(IntPolynomial((1, 2)))
    assert p == IntPolynomial((1, 2))


def test_polynomial_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPolynomial((1.5, 2))


def test_concurrent_cache_access():
    results = []

    def worker():
        results.append((fib(600), f_factorial(150)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0][0] == fib(600)
