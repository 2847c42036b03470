"""Dense integer interning of URLs.

Every distinct URL is assigned one id, in first-seen order, so the trie
kernels can key children on machine integers.  Ids are dense (``0..n-1``),
which lets grade tables and other per-URL side data live in flat lists
indexed by symbol instead of string-keyed dicts.  Because ids follow first
appearance, not string order, :func:`string_ranks` gives the vectorised
sorts (trace plane, predict-table compile) a per-id rank in string order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class SymbolTable:
    """A bijection between URLs and dense integer symbol ids.

    Ids are handed out in first-intern order starting at 0 and are never
    reused, so any sequence interned through one table stays decodable for
    the table's lifetime.
    """

    __slots__ = ("_ids", "_urls")

    def __init__(self, urls: Iterable[str] = ()) -> None:
        self._ids: dict[str, int] = {}
        self._urls: list[str] = []
        for url in urls:
            self.intern(url)

    # -- interning -----------------------------------------------------------

    def intern(self, url: str) -> int:
        """Return the id for ``url``, assigning the next dense id if new."""
        sym = self._ids.get(url)
        if sym is None:
            sym = len(self._urls)
            self._ids[url] = sym
            self._urls.append(url)
        return sym

    def intern_sequence(self, urls: Sequence[str]) -> tuple[int, ...]:
        """Intern a URL sequence in one pass (the per-session hot path)."""
        get = self._ids.get
        out: list[int] = []
        append = out.append
        for url in urls:
            sym = get(url)
            if sym is None:
                sym = len(self._urls)
                self._ids[url] = sym
                self._urls.append(url)
            append(sym)
        return tuple(out)

    def intern_ids(self, ids: np.ndarray, table: Sequence[str]) -> np.ndarray:
        """Intern ``table[i]`` for every ``i`` in ``ids`` and return each
        one's symbol id.

        New URLs are numbered in the order ``ids`` first mentions them,
        which is the numbering interning the URLs one at a time gives.
        ``table`` must hold no URL twice.
        """
        seen, first = np.unique(ids, return_index=True)
        seen = seen[np.argsort(first)]
        remap = np.zeros(len(table), dtype=np.int64)
        remap[seen] = np.fromiter(
            (self.intern(table[i]) for i in seen.tolist()),
            dtype=np.int64,
            count=len(seen),
        )
        return remap[ids]

    # -- lookups -------------------------------------------------------------

    def get(self, url: str) -> int | None:
        """The id for ``url``, or None when it was never interned."""
        return self._ids.get(url)

    def url(self, sym: int) -> str:
        """The URL a symbol id stands for."""
        return self._urls[sym]

    def urls(self) -> tuple[str, ...]:
        """Every interned URL, in id order."""
        return tuple(self._urls)

    def __len__(self) -> int:
        return len(self._urls)

    def __contains__(self, url: str) -> bool:
        return url in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._urls)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"SymbolTable({len(self._urls)} urls)"


def intern_paths(
    paths: Iterable[Sequence[str]],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """URL paths as ``(ids, lengths, table)``: every URL's id, path after
    path, in one flat array; the length of each path; and the URLs in
    first-seen id order."""
    symbols = SymbolTable()
    intern = symbols.intern_sequence
    ids: list[int] = []
    lengths: list[int] = []
    for path in paths:
        interned = intern(path)
        ids.extend(interned)
        lengths.append(len(interned))
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(lengths, dtype=np.int64),
        symbols.urls(),
    )


def string_ranks(table: Sequence[str]) -> np.ndarray:
    """Lexicographic rank of each table entry, by Python string order.

    Sorting interned *ids* would order URLs by first appearance; the object
    paths order by the strings themselves, so vectorised sorts map ids
    through these ranks to reproduce ``sorted(...)`` exactly.  The ranks
    come from Python's own ``sorted``: a numpy unicode array strips
    trailing NULs, so its order can differ.
    """
    order = sorted(range(len(table)), key=table.__getitem__)
    ranks = np.empty(len(table), dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(
        len(table), dtype=np.int64
    )
    return ranks
