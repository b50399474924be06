"""Host-speed probe: scales a run's host times to a reference speed.

The benchmark runs on shared hosts whose CPU speed drifts by 10-30%
over minutes as neighbours come and go.  That drift, not the program,
dominated the spread of the fig8 workloads' times between runs.  The
probe runs a fixed piece of interpreter and numpy work, which does not
touch ``repro``, at cell boundaries throughout the timed phase.  Every
host time of the run is then multiplied by ``REFERENCE_S / median probe
time``: the seconds the run would have taken on a host where the probe
takes exactly ``REFERENCE_S``.  A change to the program moves the
scaled times just as it moves the raw ones; a slower host moves the
probe as well and cancels out.  Raw times are kept beside the scaled
ones in the run's summary.

A workload whose timed phase serves records (one small file read, JSON
round trip and ``fsync``'d append per cell) slowed down by up to 1.8x in
some phases of the host while the compute probe moved by 1.3x: code that
runs right after a wait for the disk finds its caches cold, and how cold
depends on what ran meanwhile.  For such a workload each probe also runs
a serving probe of the same shape (``_serve_work``), and the scale is
the geometric mean of the two probes' factors.  Over 26 windows of 15 s
on a shared 2-core host, a pass of the cached workload spread 21% (IQR /
median) unscaled, 9% scaled by the compute probe alone and 4.5% scaled
by both.
"""

from __future__ import annotations

import copy
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

#: CPU seconds one compute probe takes on the reference host.
REFERENCE_S = 0.1

#: CPU seconds one serving probe takes on the reference host.
SERVE_REFERENCE_S = 0.02

#: Records one serving probe writes (one pass of the cached plan).
SERVE_RECORDS = 84

#: Minimum elapsed time between two probes taken at cell boundaries.
EVERY_S = 0.5

#: Bound at import: a pass swaps ``os.fsync`` for a wrapper that charges
#: the wait to the pass, and a probe inside a pass must not be charged.
_fsync = os.fsync

#: A campaign-record-shaped document for the serving probe.
_RECORD = json.dumps({
    "workload": "probe", "design": "Probe[ratio=0.5]",
    "metrics": {f"m{i}": i / 7 for i in range(12)},
    "config": {"requests": 600, "warmup": 300, "seed": 1, "scale": 0.03125},
    "spec": {"name": "Probe[ratio=0.5]", "base": "Probe",
             "params": {"ratio": 0.5}},
    "timing": {f"t{i}": i * 1e-4 for i in range(11)}})


def _work() -> None:
    """A fixed mix of dict, float and numpy work (~0.1 s)."""
    table: dict = {}
    total = 0.0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += i * 1.000001
    lanes = np.arange(65_536, dtype=np.int64)
    for _ in range(20):
        mixed = (lanes * 2_654_435_761) & 0xFFFF
        np.argsort(mixed, kind="stable")
        np.bincount(mixed & 1023)


def _serve_work(path: Path) -> None:
    """Decode, copy, encode and ``fsync``-append ``SERVE_RECORDS``
    records to ``path`` (~0.02 s of CPU)."""
    with open(path, "w") as handle:
        for _ in range(SERVE_RECORDS):
            record = copy.deepcopy(json.loads(_RECORD))
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            _fsync(handle.fileno())


class SpeedProbe:
    """Probe samples of one run, and the time they took away from it.

    Attributes:
        serve_path: File the serving probe rewrites, or None for a
            workload that serves no records.
        samples: CPU seconds of each compute probe.
        serve_samples: CPU seconds of each serving probe (empty unless
            ``serve_path`` was given).
        cpu_s: CPU seconds spent probing (to subtract from a pass).
        wall_s: Elapsed seconds spent probing.
    """

    def __init__(self, serve_path: "Path | None" = None) -> None:
        self.serve_path = serve_path
        self.samples: list = []
        self.serve_samples: list = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        """Take one probe now."""
        wall, cpu = time.perf_counter(), time.process_time()
        _work()
        self.samples.append(time.process_time() - cpu)
        if self.serve_path is not None:
            start = time.process_time()
            _serve_work(self.serve_path)
            self.serve_samples.append(time.process_time() - start)
        self.cpu_s += time.process_time() - cpu
        self._last = time.perf_counter()
        self.wall_s += self._last - wall

    def at_boundary(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        factor = REFERENCE_S / statistics.median(self.samples)
        if not self.serve_samples:
            return factor
        serve = SERVE_REFERENCE_S / statistics.median(self.serve_samples)
        return math.sqrt(factor * serve)
