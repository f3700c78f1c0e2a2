"""Deterministic exact-cover search (Algorithm X on dict-of-sets).

Column selection is fewest-candidates-first with the smallest column as tie
break; candidate rows are tried in ascending index order, so results are
reproducible across runs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Sequence


def _build_columns(families: Sequence[frozenset]) -> dict:
    columns: dict[Hashable, set[int]] = {}
    for i, fam in enumerate(families):
        for elem in fam:
            columns.setdefault(elem, set()).add(i)
    return columns


def _covers(
    universe: Iterable[Hashable], families: Sequence[frozenset]
) -> Iterator[list[int]]:
    universe = set(universe)
    for fam in families:
        if not fam <= universe:
            raise ValueError("candidate family is not a subset of the universe")
    columns = _build_columns(families)
    for elem in universe:
        columns.setdefault(elem, set())
    chosen: list[int] = []

    def cover(row: int) -> list[set[int]]:
        removed = []
        for elem in sorted(families[row]):
            for other in columns[elem]:
                for e2 in families[other]:
                    if e2 != elem and e2 in columns:
                        columns[e2].discard(other)
            removed.append(columns.pop(elem))
        return removed

    def uncover(row: int, removed: list[set[int]]) -> None:
        for elem, rows in zip(sorted(families[row], reverse=True), reversed(removed)):
            columns[elem] = rows
            for other in rows:
                for e2 in families[other]:
                    if e2 != elem and e2 in columns:
                        columns[e2].add(other)

    # Depth-first search on an explicit stack: pending[d] iterates the rows of
    # the column opened at depth d, chosen[d] is the row tried there.
    undo: list[list[set[int]]] = []
    pending: list[Iterator[int]] = []
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


def solve_first(
    universe: Iterable[Hashable], families: Sequence[frozenset]
) -> Optional[list[int]]:
    """First exact cover in the deterministic search order, or None."""
    for solution in _covers(universe, families):
        return sorted(solution)
    return None


def count_covers(universe: Iterable[Hashable], families: Sequence[frozenset]) -> int:
    """Total number of exact covers (distinct row sets)."""
    return sum(1 for _ in _covers(universe, families))
