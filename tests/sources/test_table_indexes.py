"""Hash indexes stay equal to a from-scratch hash of their column.

The columnar scan builds a column's index the first time a WHERE seeds
from it, and every write after that keeps it current: an INSERT appends
the new position, an UPDATE moves only the positions it touched, a
DELETE renumbers.  These tests recompute each index from the column
buffer after every step of a seeded write schedule, and after a writer
has raced readers that build indexes on first use.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest

from repro.sources.relational import Database
from repro.sources.relational.table import Column, Table


def assert_indexes_current(database: Database) -> None:
    """Every index of every table equals its column hashed afresh."""
    for name in database.table_names():
        table = database.require_table(name)
        for column, index_map in table._indexes.items():
            fresh = table._hash_column(table.column_index(column))
            assert dict(index_map) == dict(fresh), (name, column)


POOLS = {
    "id": [None] + list(range(40)),
    "bucket": [None, 0, 1, 2, 3, 4],
    "name": [None, "alpha", "beta", "gamma", ""],
    "flag": [None, True, False],
    "price": [None, 0.5, 1.5, 3.0, 99.25],
}


def literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def insert(rng: random.Random) -> str:
    values = ", ".join(literal(rng.choice(pool)) for pool in POOLS.values())
    return f"INSERT INTO p (id, bucket, name, flag, price) VALUES ({values})"


def random_step(rng: random.Random) -> str:
    """One write or read of the schedule; an equality WHERE builds its
    column's index the first time the columnar engine meets it."""
    column, other = rng.sample(list(POOLS), 2)
    value = literal(rng.choice(POOLS[column]))
    where = f"{other} = {literal(rng.choice(POOLS[other][1:]))}"
    roll = rng.random()
    if roll < 0.3:
        return insert(rng)
    if roll < 0.6:
        if rng.random() < 0.3:  # a wider UPDATE, no seed
            where = f"id < {rng.randrange(40)}"
        return f"UPDATE p SET {column} = {value} WHERE {where}"
    if roll < 0.7:
        return f"DELETE FROM p WHERE {where} AND id > {rng.randrange(40)}"
    if roll < 0.75:
        return f"CREATE INDEX ON p ({column})"
    return f"SELECT id, name FROM p WHERE {where}"


class TestWriteSchedule:
    @pytest.mark.parametrize("seed", range(4))
    def test_indexes_equal_a_fresh_hash_after_every_step(self, seed):
        rng = random.Random(seed)
        database, oracle = Database("schedule"), Database("oracle",
                                                          engine="row")
        for sql in ["CREATE TABLE p (id INTEGER, bucket INTEGER, "
                    "name TEXT, flag BOOLEAN, price REAL)"] + [
                        insert(rng) for _ in range(60)]:
            database.execute(sql)
            oracle.execute(sql)
        for step in range(150):
            sql = random_step(rng)
            assert database.execute(sql).rows == oracle.execute(sql).rows, (
                step, sql)
            assert_indexes_current(database)
        table = database.require_table("p")
        # first-use builds, not just CREATE INDEX, were maintained
        assert sum(table.has_index(column) for column in POOLS) >= 4
        assert (database.execute("SELECT * FROM p").rows
                == oracle.execute("SELECT * FROM p").rows)

    def test_unsorted_repeated_positions(self):
        table = Table("t", [Column("a", "INTEGER"), Column("b", "TEXT")])
        for number in range(12):
            table.insert({"a": number % 3, "b": "x"})
        table.create_index("a")
        table.create_index("b")
        table.update_positions([9, 2, 9, 5, 0], {0: 7, 1: None})
        table.update_positions([4, 3], {0: 0})
        for column, index_map in table._indexes.items():
            assert dict(index_map) == dict(
                table._hash_column(table.column_index(column)))
        assert table._indexes["a"][7] == [0, 2, 5, 9]
        assert table._indexes["a"][0] == [3, 4, 6]

    def test_a_one_row_update_rehashes_nothing(self, monkeypatch):
        database = Database("one")
        database.execute("CREATE TABLE p (id INTEGER, bucket INTEGER)")
        table = database.require_table("p")
        for number in range(500):
            table.insert({"id": number, "bucket": number % 10})
        database.execute("SELECT id FROM p WHERE bucket = 3")  # builds
        database.execute("SELECT bucket FROM p WHERE id = 7")  # builds
        monkeypatch.setattr(Table, "_hash_column", None)  # any call raises
        assert database.execute(
            "UPDATE p SET bucket = 3 WHERE id = 7").rows == [(1,)]
        assert database.execute(
            "SELECT id FROM p WHERE bucket = 3").rows[:2] == [(3,), (7,)]
        assert 7 not in table._indexes["bucket"][7]
        monkeypatch.undo()
        assert_indexes_current(database)

    def test_an_emptied_bucket_is_dropped(self):
        table = Table("t", [Column("a", "TEXT")])
        table.insert({"a": "only"})
        table.create_index("a")
        table.update_positions([0], {0: "other"})
        assert dict(table._indexes["a"]) == {"other": [0]}

    def test_a_nan_row_leaving_its_bucket_rehashes_the_column(self):
        """A NaN equals no key, not even the one it was filed under, so
        its old bucket cannot be found: the column is hashed again."""
        table = Table("t", [Column("r", "REAL")])
        for value in (1.0, "nan", "nan", 2.0):
            table.insert({"r": value})
        table.create_index("r")
        table.update_positions([1], {0: 2.0})
        index_map = table._indexes["r"]
        assert (index_map[1.0], index_map[2.0]) == ([0], [1, 3])
        assert [positions for key, positions in index_map.items()
                if key != key] == [[2]]

    def test_a_pickled_table_keeps_its_indexes_and_a_lock(self):
        database = Database("pickled")
        database.executescript("CREATE TABLE p (id INTEGER, bucket INTEGER);"
                               "INSERT INTO p (id, bucket) VALUES (1, 1),"
                               " (2, 2)")
        database.execute("SELECT id FROM p WHERE bucket = 2")
        clone = pickle.loads(pickle.dumps(database))
        clone.execute("INSERT INTO p (id, bucket) VALUES (3, 2)")
        assert clone.execute("SELECT id FROM p WHERE bucket = 2").rows == [
            (2,), (3,)]
        assert_indexes_current(clone)


class TestFirstUseBesideAWriter:
    """Readers build the ``bucket`` and ``tag`` indexes on first use
    while a writer inserts and updates (and builds the ``id`` index
    itself): no write may be missed by an index built beside it."""

    ROUNDS = 8
    ROWS = 1_000
    WRITES = 150

    def world(self) -> Database:
        database = Database("race")
        database.execute("CREATE TABLE p (id INTEGER, bucket INTEGER, "
                         "tag TEXT)")
        table = database.require_table("p")
        for number in range(self.ROWS):
            table.insert({"id": number, "bucket": number % 10,
                          "tag": f"t{number % 5}"})
        return database

    def test_indexes_stay_current(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(self.ROUNDS):
                self.one_round(random.Random(round_number))
        finally:
            sys.setswitchinterval(interval)

    def one_round(self, rng: random.Random) -> None:
        database = self.world()
        start = threading.Barrier(3)
        done = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                start.wait()
                for n in range(self.WRITES):
                    database.execute(
                        f"INSERT INTO p (id, bucket, tag) VALUES "
                        f"({self.ROWS + n}, {n % 10}, 't{n % 5}')")
                    database.execute(
                        f"UPDATE p SET bucket = {n % 7}, tag = 't{n % 3}' "
                        f"WHERE id = {rng.randrange(self.ROWS + n)}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader(where: str):
            try:
                start.wait()
                while not done.is_set():
                    database.execute(f"SELECT id FROM p WHERE {where}")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader, args=("bucket = 3",)),
                   threading.Thread(target=reader, args=("tag = 't1'",))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        table = database.require_table("p")
        assert all(table.has_index(c) for c in ("id", "bucket", "tag"))
        assert_indexes_current(database)
        for where in ("bucket = 3", "tag = 't1'", "id = 7"):
            sql = f"SELECT id, bucket, tag FROM p WHERE {where}"
            assert (database.execute(sql).rows
                    == database.execute(sql, engine="row").rows), where
