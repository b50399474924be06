"""Execution backends: the single *how* behind every campaign fill.

Every way this project computes ``design x workload`` cells — the
serial loop, the process pool, the supervised pool, and the distributed
fabric — is an :class:`ExecutionBackend` filling a campaign opened from
a :class:`~repro.exec.plan.CellPlan`.  All of them emit through
:meth:`~repro.analysis.campaign.Campaign.persist_comparison` in
deterministic cell order, so the clean-prefix / fsync'd / resume-keyed
record stream (and the ``--no-timing`` byte-identity contract) is a
property of the plane: the same plan produces the same file bytes on
any backend, pinned by ``tests/test_exec.py``.

Backends:

==================  ===================================================
:class:`SerialBackend`     in-process loop (``--jobs 1``, no
                           supervision)
:class:`PoolBackend`       process pool and/or supervised pool
                           (``--jobs N`` / ``--supervise`` /
                           ``--timeout`` / ``--retries``)
:class:`FabricBackend`     join an existing fleet as a worker and
                           mirror the coordinator's file
                           (``--fabric URL``)
:class:`FleetServeBackend` host a coordinator and lease cells to
                           external workers, batch by batch — the
                           explorer's adaptive fleet mode
                           (``explore --fabric-serve PORT``)
==================  ===================================================

Interrupt behaviour is uniform: SIGTERM/SIGINT flushes the completed
prefix and raises
:class:`~repro.analysis.campaign.CampaignInterrupted` with the resume
hint, whichever backend was running.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable, Sequence


def run_cells(harness, cells: Sequence[tuple], jobs: "int | None" = 1,
              supervise=None, on_result=None, on_quarantine=None):
    """Fill cells on a harness without a campaign (figure drivers).

    The plane's campaign-less entry point: dedup, cache reuse,
    serial/pool/supervised execution, and ordered incremental emission,
    exactly as a campaign fill — just without persistence.
    """
    from ..analysis.parallel import run_design_cells
    return run_design_cells(harness, cells, jobs=jobs,
                            on_result=on_result, supervise=supervise,
                            on_quarantine=on_quarantine)


def fill_cells(campaign, cells: Sequence[tuple],
               jobs: "int | None" = 1, supervise=None) -> int:
    """Fill a campaign's missing cells; returns the number of new runs.

    The orchestration previously embedded in ``Campaign.run``: filter
    already-present cells, persist each completion in deterministic
    cell order (fsync'd clean prefix), quarantine supervised failures
    instead of aborting, and convert SIGTERM/SIGINT into
    :class:`~repro.analysis.campaign.CampaignInterrupted` after
    flushing.
    """
    from ..analysis.campaign import CampaignInterrupted, QuarantinedCell
    missing = [(design, workload) for design, workload in cells
               if not campaign.has(design, workload)]
    if not missing:
        return 0
    completed = 0

    def persist(design, workload, comparison) -> None:
        nonlocal completed
        if campaign.persist_comparison(design, workload, comparison):
            completed += 1

    def quarantine(design, workload, failure) -> None:
        campaign.quarantined.append(QuarantinedCell(
            getattr(design, "name", design), workload,
            tuple(failure.attempts)))

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:          # not the main thread
        previous = None
    try:
        run_cells(campaign.harness, missing, jobs=jobs,
                  on_result=persist, supervise=supervise,
                  on_quarantine=quarantine)
    except KeyboardInterrupt:
        campaign.flush_pending()
        raise CampaignInterrupted(campaign.path,
                                  campaign.completed_cells) from None
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        campaign.flush_pending()
    return completed


@dataclass
class ExecutionOutcome:
    """What one plan execution produced.

    Attributes:
        campaign: The campaign holding the results — usually the one
            passed in, but a backend that rebuilt it from mirrored
            bytes (fabric) returns the reloaded instance; callers must
            render from here.
        new_runs: Cells newly persisted by this execution.
        notes: Backend-specific summary lines the CLI prints before the
            standard campaign summary.
    """

    campaign: object
    new_runs: int = 0
    notes: tuple = ()


class ExecutionBackend:
    """Protocol every backend implements.

    ``execute`` runs a whole plan; ``run_cells`` runs one batch against
    an already-open campaign (the explorer's adaptive path — it decides
    the next batch from the results of the last).  Both leave the
    campaign file a clean prefix at every instant.
    """

    name = "abstract"

    def execute(self, plan, campaign) -> ExecutionOutcome:
        return ExecutionOutcome(
            campaign=campaign,
            new_runs=self.run_cells(campaign, plan.cells()))

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """In-process, one cell at a time."""

    name = "serial"

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        return fill_cells(campaign, cells, jobs=1)


class PoolBackend(ExecutionBackend):
    """Process pool, optionally supervised (timeouts/retries/quarantine).

    Args:
        jobs: Worker processes (0/None = all cores).
        supervise: Optional
            :class:`~repro.resilience.supervisor.Supervision`; engages
            the supervised pool even at ``jobs=1``.
    """

    name = "pool"

    def __init__(self, jobs: "int | None" = 1, supervise=None) -> None:
        self.jobs = jobs
        self.supervise = supervise

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        return fill_cells(campaign, cells, jobs=self.jobs,
                          supervise=self.supervise)


class FabricBackend(ExecutionBackend):
    """Join an existing fleet at ``url`` and mirror its campaign file.

    The whole-plan path behind ``--fabric URL``: work leased cells as
    one more fleet worker, then pull the coordinator's campaign bytes
    over ``GET /file`` and reload them as the outcome campaign — so the
    post-run summary (timing, engines, quarantine render) is computed
    from exactly the records a local run would have produced.

    ``run_cells`` (adaptive batches) is refused: a client worker cannot
    inject cells into a remote coordinator's fixed lease table.  Host
    the fleet instead (:class:`FleetServeBackend`).
    """

    name = "fabric"

    def __init__(self, url: str,
                 progress: "Callable[[str], None] | None" = None) -> None:
        self.url = url
        self.progress = progress

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        from .plan import PlanError
        raise PlanError(
            "--fabric joins an existing fleet and cannot drive adaptive "
            "cell batches; host the fleet with --fabric-serve instead")

    def execute(self, plan, campaign) -> ExecutionOutcome:
        import os

        from ..analysis.campaign import Campaign, QuarantinedCell
        from ..fabric import FabricClient, run_worker
        before = campaign.completed_cells
        completed = run_worker(self.url, progress=self.progress)
        client = FabricClient(self.url, f"campaign-cli-{os.getpid()}")
        status, data = client.request("GET", "/file")
        state = client.call("GET", "/status")
        if status != 200 or state is None:
            raise RuntimeError(
                f"--fabric: coordinator at {self.url} would not serve "
                f"its campaign file (HTTP {status})")
        plan.out.write_bytes(data)
        mirrored = Campaign(campaign.harness, plan.out,
                            record_timing=plan.record_timing,
                            store=campaign.store,
                            store_source=plan.source)
        for cell in state.get("quarantined") or []:
            mirrored.quarantined.append(QuarantinedCell(
                cell["design"], cell["workload"],
                tuple(cell["attempts"])))
        note = (f"fabric: fleet at {self.url}; this worker completed "
                f"{completed} cell(s); mirrored "
                f"{state['emitted']}/{state['cells']} cells -> "
                f"{plan.out}")
        return ExecutionOutcome(
            campaign=mirrored,
            new_runs=max(0, mirrored.completed_cells - before),
            notes=(note,))


class FleetServeBackend(ExecutionBackend):
    """Host a coordinator and lease cells to external workers.

    The adaptive fleet mode: a held coordinator starts with an empty
    lease table, each ``run_cells`` batch is appended to it
    (:meth:`~repro.fabric.coordinator.FabricCoordinator.extend`), and
    workers attached with ``repro fabric work URL`` drain batches as
    they appear.  ``close`` releases the hold so the fleet winds down
    with the normal ``--once`` done/linger handshake.

    Args:
        host / port: Listen address (port 0 = ephemeral).
        lease_s / retries / quarantine_workers / seed: Fleet policy
            (mirrors ``repro fabric serve``).
        linger_s: How long to keep answering stragglers after release.
        progress: Line sink for the serving announcement.
    """

    name = "fleet"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_s: float = 30.0, retries: int = 3,
                 quarantine_workers: int = 2, seed: int = 0,
                 linger_s: float = 2.0,
                 progress: "Callable[[str], None] | None" = None) -> None:
        self.host = host
        self.port = port
        self.lease_s = lease_s
        self.retries = retries
        self.quarantine_workers = quarantine_workers
        self.seed = seed
        self.linger_s = linger_s
        self.progress = progress
        self._coordinator = None
        self._thread = None

    def serve(self, campaign) -> str:
        """Start (or return) the coordinator; returns its URL."""
        if self._thread is not None:
            return self._coordinator.url
        from ..fabric import FabricCoordinator, FabricPolicy
        from ..fabric.coordinator import CoordinatorThread
        harness = campaign.harness
        policy = FabricPolicy(lease_s=self.lease_s,
                              max_attempts=self.retries + 1,
                              quarantine_workers=self.quarantine_workers,
                              seed=self.seed)
        self._coordinator = FabricCoordinator(
            campaign, (), (), policy=policy,
            result_backend=getattr(harness.cache, "backend", None),
            trace_backend=getattr(harness.trace_cache, "backend", None),
            hold=True)
        self._thread = CoordinatorThread(
            self._coordinator, host=self.host, port=self.port,
            once=True, linger_s=self.linger_s)
        url = self._thread.start()
        if self.progress is not None:
            self.progress(f"fabric: serving adaptive cells at {url} "
                          f"(attach workers with 'repro fabric work "
                          f"{url}')")
        return url

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        from ..analysis.campaign import CampaignInterrupted
        self.serve(campaign)
        unique = list(dict.fromkeys(tuple(cell) for cell in cells))
        before = campaign.completed_cells
        self._coordinator.extend(unique)
        try:
            while any(not campaign.has(design, workload)
                      and self._coordinator.cell_status(design, workload)
                      != "quarantined"
                      for design, workload in unique):
                time.sleep(0.05)
        except KeyboardInterrupt:
            campaign.flush_pending()
            raise CampaignInterrupted(
                campaign.path, campaign.completed_cells) from None
        return campaign.completed_cells - before

    def close(self) -> None:
        if self._thread is None:
            return
        self._coordinator.release()
        if not self._thread.wait(timeout_s=self.linger_s + 30.0):
            self._thread.stop()
        self._thread = None
        self._coordinator = None
