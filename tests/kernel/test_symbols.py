"""Unit tests for the URL symbol table."""

import pickle
import random

import numpy as np

from repro.kernel.symbols import SymbolTable


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        table = SymbolTable()
        assert table.intern("/a") == 0
        assert table.intern("/b") == 1
        assert table.intern("/a") == 0
        assert len(table) == 2

    def test_intern_sequence(self):
        table = SymbolTable()
        ids = table.intern_sequence(("/a", "/b", "/a"))
        assert ids == (0, 1, 0)

    def test_intern_ids_equals_interning_one_at_a_time(self):
        rng = random.Random(7)
        urls = [f"/u{i}" for i in range(12)]
        for _ in range(60):
            table = rng.sample(urls, len(urls))
            ids = np.array(
                [rng.randrange(len(table)) for _ in range(rng.randrange(30))],
                dtype=np.int64,
            )
            seeded = rng.sample(urls, rng.randrange(5))
            bulk, loop = SymbolTable(seeded), SymbolTable(seeded)
            assert bulk.intern_ids(ids, table).tolist() == [
                loop.intern(table[i]) for i in ids.tolist()
            ]
            assert bulk.urls() == loop.urls()

    def test_seeded_constructor(self):
        table = SymbolTable(["/a", "/b"])
        assert table.get("/b") == 1
        assert len(table) == 2

    def test_get_unknown_returns_none(self):
        assert SymbolTable().get("/missing") is None

    def test_url_inverts_intern(self):
        table = SymbolTable()
        sym = table.intern("/page.html")
        assert table.url(sym) == "/page.html"

    def test_contains_and_iter(self):
        table = SymbolTable(["/a", "/b"])
        assert "/a" in table and "/c" not in table
        assert list(table) == ["/a", "/b"]
        assert table.urls() == ("/a", "/b")


class TestPickling:
    def test_round_trip(self):
        table = SymbolTable(["/a", "/b", "/c"])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.urls() == table.urls()
        assert clone.get("/b") == 1
        assert clone.intern("/d") == 3
