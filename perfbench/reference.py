"""Pinned reference records: the benchmark's output check.

A speed-only change must leave every simulated statistic identical, so
every run compares each cell's persisted campaign record, minus its
``timing`` block, for exact equality with a record pinned from an
earlier commit.  Records are compared through the SHA-256 of their
canonical JSON (sorted keys, ``repr``-exact floats), so a one-bit
change in any field is a mismatch.

The references pin "unchanged", not "true": the model has no hardware
reference, so no error against real hardware is reported anywhere.

Pin (or re-pin, after a change that is meant to move a statistic)::

    python3 perfbench/reference.py --seed 1234 0 1 2

which writes ``perfbench/references/seed-<n>.json`` for each seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "references"

#: ``ExperimentConfig``'s default seed.
DEFAULT_SEED = 1234


def cell_key(record: dict) -> str:
    """A record's cell: ``<design>::<workload>``."""
    return f"{record['design']}::{record['workload']}"


def digest(record: dict) -> str:
    """SHA-256 of the record's canonical JSON, ``timing`` excluded."""
    body = {key: value for key, value in record.items() if key != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(records: list) -> dict:
    """``{cell: digest}`` of a pass's records."""
    return {cell_key(record): digest(record) for record in records}


def mismatches(records: list, expected: dict) -> list:
    """Cells of ``expected`` that ``records`` lack or hold differently,
    plus cells ``records`` hold that ``expected`` does not name."""
    actual = digests(records)
    bad = [cell for cell, want in expected.items()
           if actual.get(cell) != want]
    return bad + [cell for cell in actual if cell not in expected]


def load(seed: int) -> "dict | None":
    """``{workload: {cell: digest}}`` pinned for ``seed``, or None."""
    path = REFERENCE_DIR / f"seed-{seed}.json"
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)["workloads"]


def source_digest(root: Path = ROOT) -> str:
    """SHA-256 over the program's source files (path + bytes)."""
    sha = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def commit(root: Path = ROOT) -> "str | None":
    """The checked-out commit read from ``.git``, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def pin(seed: int, names: list, tmp: Path) -> dict:
    """Compute one seed's reference digests for ``names``."""
    from workloads import WORKLOADS, run_pass, set_up
    out = {}
    for name in names:
        state = set_up(WORKLOADS[name], seed, tmp / name)
        records = state.cold if state.cold is not None else \
            run_pass(state, 0).records
        out[name] = digests(records)
        print(f"seed {seed} {name}: {len(records)} cells", flush=True)
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, nargs="+",
                        default=[DEFAULT_SEED])
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for seed in args.seed:
        path = REFERENCE_DIR / f"seed-{seed}.json"
        existing = {}
        if path.exists():
            existing = json.loads(path.read_text())["workloads"]
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            existing.update(pin(seed, args.workload, Path(tmp)))
        payload = {"seed": seed, "source_sha256": source_digest(),
                   "commit": commit(), "workloads": existing}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n")
    return 0


if __name__ == "__main__":
    from workloads import isolate
    isolate(ROOT)
    sys.exit(main())
