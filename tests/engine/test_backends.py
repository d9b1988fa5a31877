"""Cache backends: LRU bound, sharded tier, and cross-backend equivalence.

The chain contract: whichever tier stores a reliability value, every
backend must hand back the *bit-identical* float — a sweep's results may
never depend on which cache configuration executed it.
"""

import sqlite3
import threading

import pytest

from repro.engine.backends import (
    BACKEND_NAMES,
    CacheBackend,
    make_backend,
)
from repro.engine.backends.memory import MemoryBackend
from repro.engine.backends.sharded import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    MIN_SHARDS,
    ShardedBackend,
)
from repro.engine.backends.sqlite import SQLiteBackend
from repro.engine.cache import ReliabilityCache, problem_digest
from repro.reliability import failure_probability
from repro.reliability.exact import reliability_cache
from repro.verify.corpus import corpus_cases


def _digest(i: int) -> str:
    return f"{i:064x}"


class TestProtocol:
    def test_every_backend_satisfies_the_protocol(self, tmp_path):
        backends = [
            MemoryBackend(),
            SQLiteBackend(tmp_path / "one.sqlite"),
            ShardedBackend(tmp_path / "sharded"),
        ]
        for backend in backends:
            assert isinstance(backend, CacheBackend)
            backend.close()

    def test_make_backend_names(self, tmp_path):
        assert make_backend("memory", str(tmp_path)) is None
        assert make_backend("sqlite", None) is None
        sql = make_backend("auto", str(tmp_path / "a"))
        shd = make_backend("auto", str(tmp_path / "b"), shards=16)
        explicit = make_backend("sharded", str(tmp_path / "c"))
        try:
            assert sql.name == "sqlite"
            assert shd.name == "sharded" and shd.shards == 16
            assert explicit.name == "sharded" and explicit.shards == DEFAULT_SHARDS
        finally:
            for b in (sql, shd, explicit):
                b.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            make_backend("redis", str(tmp_path))
        assert "sqlite" in BACKEND_NAMES and "sharded" in BACKEND_NAMES


class TestMemoryLRU:
    def test_bound_evicts_oldest_first(self):
        backend = MemoryBackend(max_entries=3)
        for i in range(3):
            backend.put(_digest(i), "bdd", float(i))
        # Touch 0 so 1 becomes the least recently used.
        assert backend.get(_digest(0)) == 0.0
        backend.put(_digest(3), "bdd", 3.0)
        assert backend.evictions == 1
        assert backend.get(_digest(1)) is None
        assert backend.get(_digest(0)) == 0.0
        assert len(backend) == 3

    def test_first_write_wins_refreshes_recency(self):
        backend = MemoryBackend(max_entries=2)
        backend.put(_digest(0), "bdd", 0.5)
        backend.put(_digest(1), "bdd", 1.5)
        backend.put(_digest(0), "bdd", 99.0)  # dup: value kept, recency bumped
        backend.put(_digest(2), "bdd", 2.5)   # evicts 1, not 0
        assert backend.get(_digest(0)) == 0.5
        assert backend.get(_digest(1)) is None

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryBackend(max_entries=0)

    def test_cache_front_tier_is_bounded(self, tmp_path):
        cache = ReliabilityCache(str(tmp_path), max_memory_entries=4)
        with cache:
            for i in range(10):
                cache.put(_digest(i), "bdd", float(i))
            assert cache.memory_evictions == 6
            # Evicted entries re-read from the persistent tier, not lost.
            assert cache.get(_digest(0)) == 0.0
            assert len(cache) == 10

    def test_degraded_to_memory_stays_bounded(self, tmp_path):
        # Regression: a broken SQLite tier degrades the cache to its
        # memory tier, and the LRU bound must keep holding there.
        cache = ReliabilityCache(str(tmp_path), max_memory_entries=3)
        cache.put(_digest(0), "bdd", 0.0)
        cache._conn.close()  # break the persistent tier behind its back
        for i in range(1, 8):
            cache.put(_digest(i), "bdd", float(i))
        assert cache.memory_evictions == 8 - 3
        assert len(cache._memory) == 3
        assert cache.get(_digest(7)) == 7.0
        assert cache.get(_digest(1)) is None  # evicted, tier broken: miss


class TestShardedBackend:
    def test_shard_count_bounds(self, tmp_path):
        for bad in (MIN_SHARDS - 1, MAX_SHARDS + 1, 0):
            with pytest.raises(ValueError):
                ShardedBackend(tmp_path / "bad", shards=bad)

    def test_routing_is_stable_and_in_range(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16)
        for i in range(64):
            shard = backend.shard_of(_digest(i * 7919))
            assert 0 <= shard < 16
            assert shard == backend.shard_of(_digest(i * 7919))
        backend.close()

    def test_persisted_shard_count_wins_on_reopen(self, tmp_path):
        first = ShardedBackend(tmp_path, shards=32)
        first.put(_digest(1), "bdd", 0.25)
        first.close()
        # Reopening with a different requested count must keep 32 — a
        # resize would re-route digests away from their stored shard.
        second = ShardedBackend(tmp_path, shards=128)
        assert second.shards == 32
        assert second.get(_digest(1)) == 0.25
        second.close()

    def test_lazy_shards_and_len(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=64)
        for i in range(20):
            backend.put(_digest(i), "bdd", float(i))
        open_files = sum(1 for b in backend._backends if b is not None)
        assert 0 < open_files <= 20
        assert len(backend) == 20
        backend.close()
        assert backend.closed
        assert backend.get(_digest(0)) is None  # closed: degrade to miss

    def test_shard_stats_count_traffic(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16)
        backend.put(_digest(5), "bdd", 0.5)
        assert backend.get(_digest(5)) == 0.5
        assert backend.get(_digest(6)) is None
        stats = backend.shard_stats()
        assert sum(s["stores"] for s in stats) == 1
        assert sum(s["hits"] for s in stats) == 1
        assert sum(s["misses"] for s in stats) == 1
        backend.close()

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16)
        per_thread, threads = 50, 8
        errors = []

        def hammer(t: int) -> None:
            try:
                for i in range(per_thread):
                    backend.put(_digest(t * per_thread + i), "bdd",
                                float(t * per_thread + i))
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        workers = [threading.Thread(target=hammer, args=(t,))
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        assert len(backend) == per_thread * threads
        for n in range(0, per_thread * threads, 37):
            assert backend.get(_digest(n)) == float(n)
        backend.close()


class TestCrossBackendEquivalence:
    """Memory, SQLite, and sharded caches must be bit-identical."""

    def _cases(self):
        return [c for c in corpus_cases(include_eps=False)][:8]

    def test_corpus_values_bit_identical_across_backends(self, tmp_path):
        cases = self._cases()
        baseline = [failure_probability(c.problem, method="bdd")
                    for c in cases]

        configs = {
            "memory": dict(cache_dir=None),
            "sqlite": dict(cache_dir=str(tmp_path / "sql"), backend="sqlite"),
            "sharded": dict(cache_dir=str(tmp_path / "shard"),
                            backend="sharded", shards=16),
        }
        for name, kwargs in configs.items():
            cache = ReliabilityCache(**kwargs)
            with cache, reliability_cache(cache):
                cold = [failure_probability(c.problem, method="bdd")
                        for c in cases]
                warm = [failure_probability(c.problem, method="bdd")
                        for c in cases]
            assert cold == baseline, f"{name} cold values diverged"
            assert warm == baseline, f"{name} warm values diverged"
            assert cache.stats.hits >= len(cases), name

    def test_sqlite_and_sharded_store_identical_bits(self, tmp_path):
        cases = self._cases()
        sql = ReliabilityCache(str(tmp_path / "sql"), backend="sqlite")
        shd = ReliabilityCache(str(tmp_path / "shard"), backend="sharded",
                               shards=16)
        with sql, shd:
            for case in cases:
                with reliability_cache(sql):
                    failure_probability(case.problem, method="bdd")
                with reliability_cache(shd):
                    failure_probability(case.problem, method="bdd")
            for case in cases:
                digest = problem_digest(case.problem, "bdd")
                a = sql.get(digest)
                b = shd.get(digest)
                assert a is not None and b is not None
                assert a.hex() == b.hex(), case.name

    def test_warm_reopen_serves_identical_floats(self, tmp_path):
        cases = self._cases()
        values = {}
        with ReliabilityCache(str(tmp_path), backend="sharded",
                              shards=16) as cache, reliability_cache(cache):
            for case in cases:
                values[case.name] = failure_probability(case.problem,
                                                        method="bdd")
        # Fresh process simulation: new cache object over the same files.
        with ReliabilityCache(str(tmp_path), backend="sharded") as warm, \
                reliability_cache(warm):
            for case in cases:
                again = failure_probability(case.problem, method="bdd")
                assert again.hex() == values[case.name].hex()
            assert warm.stats.hits == len(cases)
            assert warm.stats.misses == 0


class TestWriteBackBatching:
    def test_flush_lands_on_batch_threshold(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16, batch_size=4)
        # Route everything to one shard so the threshold is exercised.
        digests = [d for d in (_digest(i) for i in range(200))
                   if backend.shard_of(d) == 0][:4]
        shard_file = backend.path / "relcache-000.sqlite"
        for d in digests[:3]:
            backend.put(d, "bdd", 0.5)
        before = SQLiteBackend(shard_file)
        assert len(before) == 0  # still buffered
        before.close()
        backend.put(digests[3], "bdd", 0.5)  # 4th write: group commit
        after = SQLiteBackend(shard_file)
        assert len(after) == 4
        after.close()
        backend.close()

    def test_reads_see_buffered_writes(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16, batch_size=100)
        backend.put(_digest(1), "bdd", 0.125)
        assert backend.get(_digest(1)) == 0.125  # read-your-writes
        backend.close()

    def test_close_flushes_for_a_cold_reopen(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16, batch_size=100)
        for i in range(10):
            backend.put(_digest(i), "bdd", float(i))
        backend.close()
        reopened = ShardedBackend(tmp_path)
        for i in range(10):
            assert reopened.get(_digest(i)) == float(i)
        reopened.close()

    def test_len_counts_buffered_entries(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16, batch_size=100)
        for i in range(7):
            backend.put(_digest(i), "bdd", float(i))
        assert len(backend) == 7
        backend.close()

    def test_first_write_wins_inside_the_buffer(self, tmp_path):
        backend = ShardedBackend(tmp_path, shards=16, batch_size=100)
        backend.put(_digest(1), "bdd", 0.25)
        backend.put(_digest(1), "bdd", 0.75)
        assert backend.get(_digest(1)) == 0.25
        backend.close()

    def test_batch_size_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedBackend(tmp_path, batch_size=0)


class TestSQLiteMigration:
    """Regression: two processes opening one fresh cache file both saw no
    ``problem`` column, and the second ``ALTER TABLE`` failed in the pool
    initializer with "duplicate column name"."""

    def test_column_added_in_the_window_before_alter(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "race.sqlite"
        first = SQLiteBackend(path)
        # The second opener's column check ran before the first added the
        # column, so it goes on to an ALTER that SQLite now refuses.
        real_columns = SQLiteBackend._columns
        monkeypatch.setattr(
            SQLiteBackend, "_columns",
            lambda self: real_columns(self) - {"problem"},
        )
        second = SQLiteBackend(path)
        monkeypatch.undo()
        try:
            second.put(_digest(1), "bdd", 0.25, payload={"k": 1})
            assert first.get(_digest(1)) == 0.25
            assert len(first) == len(second) == 1
        finally:
            first.close()
            second.close()

    def test_old_schema_file_gains_the_column(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(
            "CREATE TABLE reliability (digest TEXT PRIMARY KEY, "
            "method TEXT NOT NULL, value REAL NOT NULL, "
            "created_at REAL NOT NULL)"
        )
        conn.execute(
            "INSERT INTO reliability VALUES (?, 'bdd', 0.5, 0.0)", (_digest(7),)
        )
        conn.commit()
        conn.close()
        backend = SQLiteBackend(path)
        try:
            assert "problem" in backend._columns()
            assert backend.get(_digest(7)) == 0.5
        finally:
            backend.close()

    def test_other_alter_errors_still_raise(self, tmp_path, monkeypatch):
        path = tmp_path / "locked.sqlite"
        SQLiteBackend(path).close()
        monkeypatch.setattr(SQLiteBackend, "_columns", lambda self: set())

        class _Conn:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql.startswith("ALTER"):
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect", lambda *a, **kw: _Conn(real_connect(*a, **kw))
        )
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            SQLiteBackend(path)
