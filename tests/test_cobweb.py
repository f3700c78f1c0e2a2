import copy
import pickle
import subprocess
import sys
import tracemalloc
from math import prod

import pytest

from fibcobweb import cobweb
from fibcobweb.cobweb import (
    CobwebPoset,
    IncMatrix,
    VertexCoord,
    build,
    count_all_chains,
    count_max_chains_from_vertex,
    enumerate_max_chains,
    mobius,
    zeta_explicit,
    zeta_from_order,
)
from fibcobweb.guards import GuardExceeded
from fibcobweb.seqcore import f_factorial, f_falling, fib
from fibcobweb.verify import _dense_product


def test_build_examples():
    assert build(5).vertex_count == 12
    assert build(1).vertex_count == 1
    assert build(6).level_sizes == (1, 1, 2, 3, 5, 8)
    with pytest.raises(ValueError):
        build(0)


def test_level_layout():
    for n in range(1, 11):
        p = build(n)
        assert p.vertex_count == fib(n + 2) - 1
        for s in range(1, n + 1):
            r = p.level_range(s)
            assert r.start == fib(s + 1)
            assert len(r) == fib(s)


def test_linear_index_examples():
    p = build(6)
    assert p.linear_index(VertexCoord(1, 1)) == 1
    assert p.linear_index(VertexCoord(2, 3)) == 4
    assert p.coord_of(8) == VertexCoord(1, 5)


def test_index_coord_roundtrip():
    p = build(8)
    for x in range(1, p.vertex_count + 1):
        assert p.linear_index(p.coord_of(x)) == x
    for s in range(1, 9):
        for j in range(1, fib(s) + 1):
            v = VertexCoord(j, s)
            assert p.coord_of(p.linear_index(v)) == v


def test_coordinate_validation():
    p = build(4)
    with pytest.raises(ValueError):
        p.linear_index(VertexCoord(4, 4))  # level 4 has 3 vertices
    with pytest.raises(ValueError):
        p.linear_index(VertexCoord(1, 5))
    with pytest.raises(ValueError):
        p.coord_of(0)
    with pytest.raises(ValueError):
        p.coord_of(p.vertex_count + 1)


P4 = build(4)  # 7 vertices


@pytest.mark.parametrize(
    "query, bad",
    [
        (lambda: P4.leq(0, 3), 0),
        (lambda: P4.leq(3, 99), 99),
        (lambda: P4.leq(0, 99), 0),  # two bad indices name x
        (lambda: P4.leq(99, 99), 99),
        (lambda: P4.level_of(0), 0),
        (lambda: P4.coord_of(8), 8),
        (lambda: count_all_chains(P4, 0, 99), 0),
        (lambda: count_all_chains(P4, 2, 99), 99),
    ],
)
def test_queries_name_the_first_bad_index(query, bad):
    with pytest.raises(ValueError) as info:
        query()
    assert str(info.value) == f"linear index {bad} out of range 1..7"


@pytest.mark.parametrize(
    "call",
    [
        lambda: P4.linear_index((1.5, 3)),
        lambda: P4.linear_index((1, "3")),
        lambda: enumerate_max_chains(P4, (1.0, 2), 3),
        lambda: enumerate_max_chains(P4, (1, 2), 3.0),
        lambda: count_max_chains_from_vertex(P4, (1, 2.0), 4),
        lambda: count_max_chains_from_vertex(P4, (1, 2), 4.5),
    ],
)
def test_cold_entry_points_refuse_non_integer_coordinates(call):
    # int() would truncate 1.5 to 1; the warm queries (leq, level_of,
    # coord_of, count_all_chains) keep to their range test
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("x, y", [(0, 8), (1, 8)])
def test_matrix_entries_out_of_range(x, y):
    with pytest.raises(ValueError) as info:
        mobius(P4).entry(x, y)
    assert str(info.value) == f"entry ({x}, {y}) out of range 1..7"


def test_order_relation():
    p = build(6)
    assert p.leq(1, 1)
    assert p.leq(3, 5) and p.leq(5, 13)
    assert not p.leq(3, 4)  # same level
    assert not p.leq(5, 3)


def test_hasse_edges_count():
    p = build(5)
    edges = list(p.hasse_edges())
    assert len(edges) == sum(fib(s) * fib(s + 1) for s in range(1, 5))
    assert (1, 2) in edges and (2, 3) in edges and (2, 4) in edges


def test_zeta_entries():
    z = zeta_from_order(build(6))
    assert all(z.entry(x, x) == 1 for x in range(1, 21))
    assert z.entry(3, 4) == 0
    assert z.entry(5, 8) == 1


def test_zeta_explicit_row_eight_zeros():
    z = zeta_explicit(build(6))
    assert [z.entry(8, y) for y in range(9, 13)] == [0, 0, 0, 0]
    assert [z.entry(8, y) for y in range(13, 16)] == [1, 1, 1]


def test_zeta_explicit_single_vertex():
    assert zeta_explicit(build(1)).rows == ((1,),)


def test_zeta_constructions_agree():
    for n in range(1, 13):
        p = build(n)
        assert zeta_explicit(p) == zeta_from_order(p)


def test_zeta_from_order_matches_the_order_relation():
    for n in range(1, 13):
        p = build(n)
        z = zeta_from_order(p)
        for x in range(1, p.vertex_count + 1):
            for y in range(1, p.vertex_count + 1):
                assert z.entry(x, y) == int(p.leq(x, y))


def test_mobius_matches_the_level_formula():
    for n in range(1, 13):
        p = build(n)
        m = mobius(p)
        level = {x: p.level_of(x) for x in range(1, p.vertex_count + 1)}
        above = {
            (s, t): -prod(1 - fib(i) for i in range(s + 1, t))
            for s in range(1, n + 1)
            for t in range(s + 1, n + 1)
        }
        for x, s in level.items():
            for y, t in level.items():
                want = 1 if x == y else above.get((s, t), 0)
                assert m.entry(x, y) == want


def test_mobius_small_entries():
    m = mobius(build(3))
    assert all(m.entry(x, x) == 1 for x in range(1, 5))
    assert m.entry(1, 2) == -1
    assert m.entry(1, 3) == 0


def test_mobius_inverts_zeta():
    for n in range(1, 9):
        p = build(n)
        z = zeta_from_order(p)
        m = mobius(p)
        ident = [[int(x == y) for y in range(z.dim)] for x in range(z.dim)]
        assert _dense_product(z.rows, m.rows) == ident
        assert _dense_product(m.rows, z.rows) == ident


def test_mobius_alternating_sum():
    p = build(5)
    z = zeta_from_order(p)
    m = mobius(p)
    for x in range(1, z.dim + 1):
        for y in range(x, z.dim + 1):
            if not z.entry(x, y):
                continue
            total = sum(
                m.entry(x, t)
                for t in range(x, y + 1)
                if z.entry(x, t) and z.entry(t, y)
            )
            assert total == (1 if x == y else 0)


def test_chain_counts_from_root():
    p = build(10)
    root = VertexCoord(1, 1)
    assert count_max_chains_from_vertex(p, root, 1) == 1
    assert count_max_chains_from_vertex(p, root, 5) == 30
    assert count_max_chains_from_vertex(p, root, 10) == 122522400
    for n in range(1, 11):
        assert count_max_chains_from_vertex(p, root, n) == f_factorial(n)
    with pytest.raises(ValueError):
        count_max_chains_from_vertex(p, root, 11)


def test_chain_counts_from_vertex():
    p = build(6)
    assert count_max_chains_from_vertex(p, VertexCoord(1, 3), 6) == 120
    assert count_max_chains_from_vertex(p, VertexCoord(2, 4), 4) == 1
    for k in range(1, 7):
        for j in range(1, fib(k) + 1):
            for n in range(k, 7):
                assert count_max_chains_from_vertex(
                    p, VertexCoord(j, k), n
                ) == f_falling(n, n - k)
    with pytest.raises(ValueError):
        count_max_chains_from_vertex(p, VertexCoord(1, 4), 3)


def test_chain_count_factorises_through_levels():
    p = build(8)
    root = VertexCoord(1, 1)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert count_max_chains_from_vertex(p, root, n) == count_max_chains_from_vertex(
                p, root, k
            ) * count_max_chains_from_vertex(p, VertexCoord(1, k), n)


def test_enumerate_max_chains():
    p = build(6)
    root_chains = enumerate_max_chains(p, VertexCoord(1, 1), 3)
    assert len(root_chains) == 2
    assert root_chains[0][0] == VertexCoord(1, 1)
    assert root_chains == sorted(root_chains)

    assert len(enumerate_max_chains(p, VertexCoord(1, 2), 2)) == 1
    assert len(enumerate_max_chains(p, VertexCoord(1, 2), 5)) == 30


def test_enumerate_lengths_match_counts():
    p = build(6)
    for k in range(1, 7):
        for j in range(1, fib(k) + 1):
            v = VertexCoord(j, k)
            for n in range(k, 7):
                assert len(enumerate_max_chains(p, v, n)) == f_falling(n, n - k)


def test_enumerate_guard():
    p = build(12)
    with pytest.raises(GuardExceeded):
        enumerate_max_chains(p, VertexCoord(1, 1), 12)


def test_dense_builds_guarded(monkeypatch):
    p = build(16)  # dimension 2583
    for builder in (zeta_from_order, zeta_explicit, mobius):
        with pytest.raises(GuardExceeded, match="matrix dimension = 2583"):
            builder(p)
        assert builder(build(12)).dim == 376
    monkeypatch.setattr(cobweb, "DENSE_LIMIT", 10)
    with pytest.raises(GuardExceeded):
        mobius(build(5))  # dimension 12
    assert mobius(build(5), unsafe_limits=True).dim == 12


def test_dense_guard_fires_before_memory_runs_out():
    # N = 20 has dimension 17710: about 2.5 GB of entries, far over 1 GB
    code = (
        "import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from fibcobweb import GuardExceeded, build, mobius\n"
        "try:\n"
        "    mobius(build(20))\n"
        "except GuardExceeded as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "matrix dimension = 17710 exceeds guard limit 2000\n"


def _chains_brute(p, x, y):
    if x == y:
        return 1
    return sum(
        _chains_brute(p, z, y)
        for z in range(x + 1, y + 1)
        if p.leq(x, z) and p.leq(z, y)
    )


def test_count_all_chains():
    p3 = build(3)
    assert count_all_chains(p3, 2, 2) == 1
    assert count_all_chains(p3, 1, 3) == 2
    assert count_all_chains(p3, 3, 4) == 0
    assert count_all_chains(p3, 4, 1) == 0
    for n in range(1, 7):
        p = build(n)
        for x in range(1, p.vertex_count + 1):
            for y in range(1, p.vertex_count + 1):
                want = _chains_brute(p, x, y) if p.leq(x, y) else 0
                assert count_all_chains(p, x, y) == want


def test_count_all_chains_beyond_dense_range():
    p = build(40)
    want = 1
    for i in range(2, 40):
        want *= 1 + fib(i)
    assert count_all_chains(p, 1, p.vertex_count) == want
    top = p.level_range(40)
    assert count_all_chains(p, top.start, top.start + 1) == 0
    assert count_all_chains(p, top.start + 1, top.start) == 0


def test_poset_equality_and_immutability():
    assert build(4) == build(4)
    assert build(4) != build(5)
    assert hash(build(4)) == hash(build(4))
    with pytest.raises(AttributeError):
        build(3).max_level = 7


@pytest.mark.parametrize("value", [build(4), mobius(build(3))], ids=repr)
def test_poset_and_matrix_pickle_and_copy_by_value(value):
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_poset_and_matrix_compare_and_print_by_value():
    assert CobwebPoset(4) != CobwebPoset(5)
    assert CobwebPoset(4) != 4
    assert hash(CobwebPoset(4)) == hash(build(4))
    assert repr(CobwebPoset(max_level=4)) == "CobwebPoset(max_level=4)"
    assert repr(zeta_from_order(build(3))) == "IncMatrix(dim=4)"


def test_incmatrix_basics():
    m = IncMatrix(((1, 2), (0, 1)))
    assert m.dim == 2
    assert m.entry(1, 2) == 2
    with pytest.raises(ValueError):
        m.entry(0, 1)
    with pytest.raises(ValueError):
        IncMatrix(((1, 2), (3,)))
    assert _dense_product(m.rows, ((1, -2), (0, 1))) == [[1, 0], [0, 1]]


def test_incmatrix_rejects_non_integer_entries():
    for rows in ([[1.5, 2.9], [0, 1]], [[1, 2], [0, "1"]]):
        with pytest.raises(TypeError):
            IncMatrix(rows)


def test_internal_builds_match_the_checked_constructor():
    # The builders skip the public constructor's per-entry conversion; their
    # rows must still be square tuples of plain ints.
    def assert_checked(m):
        assert m == IncMatrix(m.rows)
        assert type(m.rows) is tuple
        assert all(type(row) is tuple for row in m.rows)
        assert all(type(v) is int for row in m.rows for v in row)

    for n in range(1, 13):
        p = build(n)
        for builder in (zeta_from_order, zeta_explicit, mobius):
            assert_checked(builder(p))


def test_a_cold_dense_build_peaks_at_about_the_matrix_it_returns():
    # Each row is copied once out of a per-level buffer; holding every row
    # twice (lists, then tuples) would peak at twice the matrix.
    p = build(12)
    cobweb._mobius.cache_clear()
    for builder in (zeta_from_order, zeta_explicit, mobius):
        tracemalloc.start()
        try:
            m = builder(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(m.rows) + sum(sys.getsizeof(row) for row in m.rows)
        assert peak <= 1.1 * size, (builder.__name__, peak / size)


def test_incmatrix_is_the_checked_tuple_of_its_rows():
    m = mobius(build(4))
    assert isinstance(m, tuple)
    assert m == m.rows
    assert len(m) == m.dim
    assert all(m[i] == m.rows[i] for i in range(m.dim))
    built = IncMatrix([[1, 2], [0, 1]])
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert type(copied) is IncMatrix
        assert copied == built
    # both copies are rebuilt through the checked constructor
    bad = cobweb._frozen([(1.5,)])
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(TypeError):
        copy.deepcopy(bad)


def test_incmatrix_first_difference():
    a = IncMatrix(((1, 0), (0, 1)))
    b = IncMatrix(((1, 1), (0, 1)))
    assert a.first_difference(b) == (1, 2)
    assert a.first_difference(a) is None
