"""One content-addressed byte store behind the result and trace caches.

Every cached artefact — a result record, a packed trace — is a pure
function of its inputs, so it is stored under a SHA-256 hash of the
complete input description (:func:`content_hash`).  A key maps either
to the one correct byte string or to nothing, which makes a store safe
to share across processes and machines.

Two layers:

* a **byte backend** — ``get(key) -> bytes | None``, ``put(key, data)``
  and ``discard(key)``; :class:`LocalDirBackend` is a directory of
  ``<key><suffix>`` files (also the shared-filesystem deployment), and
  the fabric's HTTP backend talks to the coordinator's
  ``/cache/<kind>/<key>`` routes.  A new transport (S3, redis, ...)
  implements just those three methods;
* :class:`ContentStore` — the typed caches' common core: hit/miss
  counting, ``len``/``clear``, and the torn-read contract below.
  :class:`~repro.analysis.resultcache.ResultCache` and
  :class:`~repro.traces.tracecache.TraceCache` subclass it with their
  entry codecs.

Torn-read contract of :meth:`ContentStore.fetch`: damage never
surfaces as an error.

* the backend has no entry → miss;
* the backend raises ``OSError`` (unreadable file, unreachable
  coordinator) → miss at once, entry left alone (the next put replaces
  it);
* the entry fails to decode → read once more (with many writers
  sharing one store, the first read may have seen a concurrent put
  whose rename had not landed yet); if it still fails the entry is
  genuinely damaged, so it is discarded and reported as a miss — the
  caller recomputes and the put heals the store.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .checkpoint import atomic_write_bytes


def content_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON text of ``payload``.

    Canonical means sorted keys and no spaces; non-JSON values (enums,
    paths) are serialised through ``str``.  This is the key of every
    content-store entry.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class LocalDirBackend:
    """Byte store over a directory of ``<key><suffix>`` files.

    Puts go through :func:`~repro.resilience.checkpoint.
    atomic_write_bytes` (temp file + fsync + rename + directory fsync),
    so readers never observe a partial file and an entry survives a
    crash right after the put returns.

    Args:
        root: The directory (created lazily on first put).
        suffix: Filename suffix — ``".json"`` for result entries,
            ``".trace"`` for trace entries — so a coordinator can serve
            a native cache directory over HTTP unchanged.
    """

    def __init__(self, root: str | Path, suffix: str) -> None:
        self.root = Path(root)
        self.suffix = suffix

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str) -> bytes | None:
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            return None

    def put(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self._path(key), data)

    def discard(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def _entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob(f"*{self.suffix}"))

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class ContentStore:
    """Typed-cache core over one byte backend.

    Subclasses supply :meth:`decode` (bytes -> value, raising
    ``ValueError``/``KeyError``/``TypeError`` on damage) and their own
    typed ``get``/``put``.

    Attributes:
        backend: The byte backend.
        hits: Lookups served by the store.
        misses: Lookups that found no usable entry.
    """

    def __init__(self, backend) -> None:
        self.backend = backend
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Path:
        """Directory of a local store (``AttributeError`` if remote)."""
        return self.backend.root

    def decode(self, data: bytes) -> Any:
        """One entry's bytes as a value; raises on any damage."""
        raise NotImplementedError

    def fetch(self, key: str) -> Any | None:
        """The decoded entry under ``key``, or None (see module doc)."""
        for _ in range(2):
            try:
                data = self.backend.get(key)
            except OSError:
                data = None
            if data is None:
                self.misses += 1
                return None
            try:
                value = self.decode(data)
            except (ValueError, KeyError, TypeError):
                continue
            self.hits += 1
            return value
        self.backend.discard(key)
        self.misses += 1
        return None

    def __len__(self) -> int:
        return len(self.backend)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        return self.backend.clear()
