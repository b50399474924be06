"""The content-addressed store behind the result and trace caches.

Pins the on-disk format (keys and entry bytes must not drift, or every
existing cache directory silently goes cold), the store's torn-read
contract, and that a cache's ``len``/``clear`` act on its own backend
only.
"""

from repro.analysis.resultcache import ResultCache
from repro.resilience.contentstore import (
    ContentStore,
    LocalDirBackend,
    content_hash,
)
from repro.traces import SyntheticSpec
from repro.traces.packed import PackedTrace
from repro.traces.tracecache import TraceCache

SPEC = SyntheticSpec(name="mcf", footprint_bytes=1 << 20, spatial=0.9,
                     temporal=0.9, mpki=16.1, write_fraction=0.25,
                     hot_fraction=0.5, base_addr=0)

RECORD = {"norm_ipc": 1.5, "workload": "leela", "hits": [1, 2]}

RESULT_KEY = (
    "778917937018d05c3798e5283618bf3985ccc88e3021bca88c4015f3bc49750f")
TRACE_KEY = (
    "88b3e0af264ad29488fa81313398fb89b23f7a4ed22c4b076683d701b9dcc80b")
STORED_TRACE_KEY = (
    "f202c857b16379b1b331d120bd78cf823b85248593db26612ff9d2a481b7130e")

RESULT_BYTES = (
    b'{"digest": "997d95e096bb83f025262337849aad83a74d7ba695ef354b26f30a1'
    b'51aee9420", "record": {"norm_ipc": 1.5, "workload": "leela", '
    b'"hits": [1, 2]}}')
TRACE_BYTES = (
    b'{"digest": "1d64add2a6388367c9bc2d1f1b384b069a6ef382cdaaa89771dd103'
    b'e28613a25", "count": 3, "format": 1}\n' + bytes(range(24)))


class TestOnDiskFormat:
    """Keys and entry bytes as written by repro 1.5.0.

    A deliberate format or generator bump changes these on purpose;
    anything else that moves them is a regression.
    """

    def test_keys_pinned(self):
        assert ResultCache.key_for(design="Bumblebee", workload="leela",
                                   seed=1234, scale=0.03125) == RESULT_KEY
        assert TraceCache.key_for(SPEC, 64, 9) == TRACE_KEY
        assert content_hash({"n": 64}) == ResultCache.key_for(n=64)

    def test_result_entry_bytes_pinned(self, tmp_path):
        ResultCache(tmp_path).put("ab" * 32, RECORD)
        assert (tmp_path / f"{'ab' * 32}.json").read_bytes() == \
            RESULT_BYTES

    def test_trace_entry_bytes_pinned(self, tmp_path):
        trace = PackedTrace.frombytes(bytes(range(24)))
        TraceCache(tmp_path).put(SPEC, 3, 9, trace)
        entry = tmp_path / f"{STORED_TRACE_KEY}.trace"
        assert entry.read_bytes() == TRACE_BYTES

    def test_existing_entries_keep_hitting(self, tmp_path):
        (tmp_path / f"{'ab' * 32}.json").write_bytes(RESULT_BYTES)
        (tmp_path / f"{STORED_TRACE_KEY}.trace").write_bytes(TRACE_BYTES)
        results, traces = ResultCache(tmp_path), TraceCache(tmp_path)
        assert results.get("ab" * 32) == RECORD
        assert traces.get(SPEC, 3, 9) == \
            PackedTrace.frombytes(bytes(range(24)))
        assert (results.hits, traces.hits) == (1, 1)


class TestBackendScope:
    """``len``/``clear`` act on the cache's backend, never the CWD."""

    def test_trace_cache_leaves_foreign_files(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        victim = cwd / "victim.trace"
        victim.write_bytes(b"not ours")
        monkeypatch.chdir(cwd)
        cache = TraceCache(backend=LocalDirBackend(tmp_path / "store",
                                                   ".trace"))
        cache.put(SPEC, 3, 9, PackedTrace.frombytes(bytes(range(24))))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
        assert victim.read_bytes() == b"not ours"

    def test_result_cache_leaves_foreign_files(self, tmp_path,
                                               monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        victim = cwd / "victim.json"
        victim.write_text("{}")
        monkeypatch.chdir(cwd)
        cache = ResultCache(backend=LocalDirBackend(tmp_path / "store",
                                                    ".json"))
        cache.put("ab" * 32, RECORD)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert victim.exists()


class _Scripted:
    """A byte backend replaying scripted ``get`` outcomes."""

    def __init__(self, *outcomes) -> None:
        self.outcomes = list(outcomes)
        self.gets = 0
        self.discarded: list[str] = []

    def get(self, key):
        self.gets += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def discard(self, key):
        self.discarded.append(key)


class _Text(ContentStore):
    def decode(self, data):
        return data.decode("ascii")


class TestTornReadContract:
    def test_absent_entry_is_miss(self):
        store = _Text(_Scripted(None))
        assert store.fetch("k") is None
        assert (store.hits, store.misses, store.backend.gets) == (0, 1, 1)

    def test_backend_oserror_is_immediate_miss(self):
        backend = _Scripted(ConnectionError("coordinator gone"))
        store = _Text(backend)
        assert store.fetch("k") is None
        assert (store.misses, backend.gets, backend.discarded) == \
            (1, 1, [])

    def test_transient_tear_rereads_once(self):
        backend = _Scripted(b"\xff torn", b"whole")
        store = _Text(backend)
        assert store.fetch("k") == "whole"
        assert (store.hits, store.misses, backend.discarded) == (1, 0, [])

    def test_persistent_damage_is_discarded(self):
        backend = _Scripted(b"\xff", b"\xfe")
        store = _Text(backend)
        assert store.fetch("k") is None
        assert (store.misses, backend.gets, backend.discarded) == \
            (1, 2, ["k"])

    def test_local_read_error_is_miss_without_unlink(self, tmp_path):
        entry = tmp_path / f"{'ab' * 32}.json"
        entry.mkdir()                        # reads raise an OSError
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32) is None
        assert entry.is_dir()
        assert cache.misses == 1
