"""Persistent, content-addressed cache of experiment results.

Every simulated cell of the evaluation — one design (or Bumblebee
configuration) on one workload — is a pure function of its inputs: the
trace is regenerated from a seed, the controller from a frozen config.
The :class:`ResultCache` exploits that purity by keying each record on a
SHA-256 hash of the *complete* input description (design, controller
knobs, workload spec, scale, window, seed, and the package version), so

* a repeated run — across benchmark sessions, CLI invocations, or sweep
  re-entries — loads the stored record instead of simulating;
* any change to an input, or to the simulator itself (version bump),
  changes the key and transparently invalidates the entry — stale data
  can never be returned, only left behind as unreachable files;
* a corrupted or hand-edited entry is detected through an embedded
  digest of the record and silently recomputed.

Entries are single JSON files ``{"digest": ..., "record": ...}`` under
the cache root (default ``$REPRO_CACHE_DIR`` or
``~/.cache/repro-bumblebee``), stored through the shared
:class:`~repro.resilience.contentstore.ContentStore` (atomic, durable
puts; torn reads are misses).  JSON round-trips Python floats exactly
(shortest-round-trip repr), so a cached record is bit-identical to the
freshly computed one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..resilience.contentstore import (
    ContentStore,
    LocalDirBackend,
    content_hash,
)


def default_cache_dir() -> Path:
    """The cache root used when none is given.

    ``$REPRO_CACHE_DIR`` wins when set; otherwise
    ``~/.cache/repro-bumblebee``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-bumblebee"


class ResultCache(ContentStore):
    """Store of result records keyed by input content hash.

    Args:
        root: Directory holding the entries (created lazily).  Defaults
            to :func:`default_cache_dir`.
        backend: A byte backend to use instead of a local directory
            (the fabric worker passes the coordinator's HTTP store).

    Attributes:
        hits: Number of successful :meth:`get` lookups.
        misses: Number of lookups that found nothing usable.
    """

    def __init__(self, root: str | Path | None = None, *,
                 backend=None) -> None:
        if backend is None:
            backend = LocalDirBackend(
                root if root is not None else default_cache_dir(),
                ".json")
        super().__init__(backend)

    @staticmethod
    def key_for(**fields: Any) -> str:
        """Content-hash key of one experiment cell.

        Every input that can change the result must appear in
        ``fields``; nested dataclass dumps (``dataclasses.asdict``) and
        enums are fine — non-JSON values are serialised via ``str``.
        """
        return content_hash(fields)

    def decode(self, data: bytes) -> Any:
        """Validate one entry's embedded digest; raises on any damage."""
        wrapped = json.loads(data)
        record = wrapped["record"]
        if content_hash(record) != wrapped["digest"]:
            raise ValueError("record digest mismatch")
        return record

    def get(self, key: str) -> Any | None:
        """The record under ``key``, or None (see :meth:`fetch`)."""
        return self.fetch(key)

    def put(self, key: str, record: Any) -> None:
        """Store ``record`` (JSON-serialisable) under ``key``."""
        wrapped = {"digest": content_hash(record), "record": record}
        self.backend.put(key, json.dumps(wrapped).encode("utf-8"))
