"""Append-only campaign results store: JSONL rows + checkpoint manifest.

Every executor writes one JSON line per completed
:class:`~repro.experiments.grid.WorkUnit` into ``rows.jsonl`` — the full
scenario tags (config/network/topology/policy), the grid coordinates
(granularity/rep) and the :class:`~repro.experiments.harness.RepResult`
payload.  ``manifest.json`` records the generating
:class:`~repro.experiments.grid.ScenarioGrid`, so ``--resume <dir>`` can
rebuild the campaign, skip completed units, and refuse a store that was
written for a different grid.

Crash safety is the append-only discipline: each row is one flushed
line, so a killed campaign loses at most the in-flight units; a trailing
partial line (the kill landed mid-write) is skipped on load and dropped
by the first append, so new records always start on a clean line while
read-only loads never modify the file.  Floats round-trip exactly through JSON (``repr``-based), which is
what keeps resumed and distributed campaigns bit-identical to serial
in-memory runs.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, Iterator, Mapping, Optional, Sequence, Union

from repro.experiments.grid import ScenarioGrid, WorkUnit
from repro.experiments.harness import RepResult, flatten_rep_result
from repro.experiments.registry import STORES, register_store

MANIFEST_NAME = "manifest.json"
ROWS_NAME = "rows.jsonl"
STORE_FORMAT = 1

#: file names of the columnar backend (``repro.experiments.columnar``),
#: shared here so each backend can refuse a directory written by the other
COLUMNAR_TAIL_NAME = "tail.jsonl"
COLUMNAR_CHUNK_GLOB = "chunk-*.npz"

#: the scenario tag columns every stored row carries
TAG_COLUMNS = ("config", "network", "topology", "policy")


class StoreError(RuntimeError):
    """A store is unreadable, corrupt, or belongs to a different campaign."""


def row_matches(row: Mapping, where: Optional[Mapping]) -> bool:
    """Shared ``where=`` predicate semantics of the query layer.

    Each key filters one row column: a scalar keeps rows whose value
    equals it, a list/tuple/set/frozenset keeps rows whose value is a
    member.  ``None`` (as a value) matches the ``None`` metric entries a
    failed crash replay leaves.
    """
    if not where:
        return True
    for key, want in where.items():
        have = row.get(key)
        if isinstance(want, (list, tuple, set, frozenset)):
            if have not in want:
                return False
        elif have != want:
            return False
    return True


def project_row(row: Mapping, columns: Optional[Sequence[str]]) -> dict:
    """Restrict a row to ``columns`` (in the requested order)."""
    if columns is None:
        return dict(row)
    return {name: row[name] for name in columns}


def canonical_row_key(row: Mapping) -> tuple:
    """The executor-independent ordering of per-rep rows.

    Append order on disk depends on which executor ran the campaign, so
    every ``rep_rows()`` implementation sorts by this key — scenario,
    then granularity, rep, algorithm.
    """
    return (
        row["config"],
        row["network"],
        row["topology"],
        row["policy"],
        row["granularity"],
        row["rep"],
        row["algorithm"],
    )


def result_to_dict(result: RepResult) -> dict:
    """JSON payload of one rep result (exact float round-trip)."""
    return {
        "faultfree_norm": result.faultfree_norm,
        "metrics": result.metrics,
    }


def result_from_dict(data: dict, granularity: float, rep: int) -> RepResult:
    return RepResult(
        granularity=granularity,
        rep=rep,
        faultfree_norm=data["faultfree_norm"],
        metrics=data["metrics"],
    )


class RunStore:
    """Where campaign results accumulate, in memory or on disk.

    ``RunStore(None)`` is the ephemeral in-memory store every default
    campaign uses; ``RunStore(directory)`` persists rows as they complete
    and reloads them on construction, which is all resume needs.  Appends
    are thread-safe and idempotent per unit id (requeue races after a
    presumed-dead worker reconnects cannot duplicate rows).
    """

    #: registry name recorded in the manifest; resume refuses a mismatch
    backend_name = "jsonl"

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        # re-entrant: backend subclasses wrap append() under the same lock
        self._lock = threading.RLock()
        self._results: dict[str, RepResult] = {}
        self._tags: dict[str, dict] = {}
        self._order: list[str] = []
        self._rows_fh: Optional[IO[str]] = None
        self._repair_truncate: Optional[int] = None
        self._repair_newline = False
        self._duplicate_appends = 0
        self._replayed_rows = 0
        self._duplicates_by_attempt: dict[str, int] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._load_rows()

    # ------------------------------------------------------------------ load

    @property
    def rows_path(self) -> Optional[Path]:
        return self.directory / ROWS_NAME if self.directory else None

    @property
    def manifest_path(self) -> Optional[Path]:
        return self.directory / MANIFEST_NAME if self.directory else None

    def _reject_foreign_backend(self) -> None:
        """Refuse a directory another backend's files live in — loading
        it as JSONL would silently look empty and mix two formats."""
        if (self.directory / COLUMNAR_TAIL_NAME).exists() or any(
            self.directory.glob(COLUMNAR_CHUNK_GLOB)
        ):
            raise StoreError(
                f"{self.directory}: directory holds a 'columnar' store; "
                "open it with open_store()/make_store('columnar', ...)"
            )

    def _load_rows(self) -> None:
        path = self.rows_path
        if path is None:
            return
        self._reject_foreign_backend()
        if not path.exists():
            return
        # Streamed line by line (the buffer is one row, not the file):
        # resuming a multi-GB campaign must not need file-size RSS.
        offset = 0  # byte position where the current line starts
        ends_with_newline = True
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh):
                ends_with_newline = raw.endswith(b"\n")
                line = raw[:-1] if ends_with_newline else raw
                if line.strip():
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        if fh.read().strip():
                            raise StoreError(
                                f"{path}: corrupt row at line {i + 1} "
                                "(not a trailing partial write)"
                            ) from None
                        # A kill landed mid-append; the half-written unit
                        # reruns.  Remember where the partial bytes start
                        # so the first append can drop them — repairing
                        # here would make read-only loads mutate a store
                        # another process may still be writing.
                        self._repair_truncate = offset
                        return
                    self._ingest(record)
                offset += len(raw)
        if offset and not ends_with_newline:
            # The kill landed after a full record but before its
            # newline; the first append must complete the line before
            # writing, or its record would glue onto this one.
            self._repair_newline = True

    def _ingest(self, record: dict) -> None:
        unit_id = record["unit_id"]
        if unit_id in self._results:  # replayed append from a requeue race
            self._replayed_rows += 1
            return
        self._results[unit_id] = result_from_dict(
            record["result"], record["granularity"], record["rep"]
        )
        self._tags[unit_id] = {
            key: record[key] for key in ("config", "network", "topology", "policy")
        }
        self._order.append(unit_id)

    # --------------------------------------------------------------- writing

    def append(
        self, unit: WorkUnit, result: RepResult, attempt: str = "primary"
    ) -> bool:
        """Record one completed unit; returns False if already present.

        ``attempt`` tags which execution attempt delivered the result —
        ``"primary"`` for a unit's first lease, ``"speculative"`` /
        ``"stolen"`` / ``"stale"`` for the straggler-mitigation paths.
        The tag changes nothing about what is stored (first ack wins,
        identical rows either way); it only attributes swallowed
        duplicates in :meth:`dedup_stats`, so fault harnesses can assert
        *which* mechanism produced each losing delivery.
        """
        record = {
            "unit_id": unit.unit_id,
            **unit.scenario,
            "granularity": unit.granularity,
            "rep": unit.rep,
            "result": result_to_dict(result),
        }
        with self._lock:
            if unit.unit_id in self._results:
                self._duplicate_appends += 1
                self._duplicates_by_attempt[attempt] = (
                    self._duplicates_by_attempt.get(attempt, 0) + 1
                )
                return False
            self._results[unit.unit_id] = result
            self._tags[unit.unit_id] = unit.scenario
            self._order.append(unit.unit_id)
            if self.directory is not None:
                if self._rows_fh is None:
                    self._rows_fh = self._open_rows_for_append()
                self._rows_fh.write(json.dumps(record, separators=(",", ":")))
                self._rows_fh.write("\n")
                self._rows_fh.flush()
        return True

    def _open_rows_for_append(self) -> IO[str]:
        """Open rows.jsonl for appending, repairing any mid-write kill
        damage recorded at load time (deferred so read-only loads never
        touch the file)."""
        path = self.rows_path
        if self._repair_truncate is not None and path.exists():
            with open(path, "r+b") as fh:
                fh.truncate(self._repair_truncate)
        elif self._repair_newline and path.exists():
            with open(path, "ab") as fh:
                fh.write(b"\n")
        self._repair_truncate = None
        self._repair_newline = False
        return open(path, "a")

    def close(self) -> None:
        with self._lock:
            if self._rows_fh is not None:
                self._rows_fh.close()
                self._rows_fh = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- manifest

    def write_manifest(
        self, grid: ScenarioGrid, extra: Optional[Mapping[str, object]] = None
    ) -> None:
        """Record the grid (and optional ``extra`` metadata) this store
        was created for.

        ``extra`` keys are merged into the manifest top level without
        participating in :meth:`ensure_manifest`'s mismatch checks — the
        campaign service uses this to stamp each job store with its
        job/tenant identity while the grid comparison stays exactly the
        campaign contract.  Reserved manifest keys cannot be shadowed.
        """
        if self.directory is None:
            return
        manifest: dict = {}
        if extra:
            manifest.update(extra)
        manifest.update(
            {
                "format": STORE_FORMAT,
                "backend": self.backend_name,
                "total_units": grid.total_units,
                "grid": grid.to_dict(),
            }
        )
        self.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    def _read_manifest(self) -> dict:
        path = self.manifest_path
        if path is None:
            raise StoreError("in-memory stores have no manifest")
        if not path.exists():
            raise StoreError(f"{self.directory}: no {MANIFEST_NAME} to resume from")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"{path}: unreadable manifest ({exc})") from None

    def read_manifest(self) -> dict:
        """The raw manifest mapping, including any ``extra`` metadata
        recorded at :meth:`write_manifest` time."""
        return self._read_manifest()

    def read_manifest_grid(self) -> ScenarioGrid:
        """The grid this store was created for (``campaign resume <dir>``)."""
        return ScenarioGrid.from_dict(self._read_manifest()["grid"])

    def ensure_manifest(
        self, grid: ScenarioGrid, extra: Optional[Mapping[str, object]] = None
    ) -> None:
        """Write the manifest, or verify an existing one matches ``grid``.

        A store belongs to exactly one campaign: resuming with a
        different grid would silently mix incompatible rows, so any
        mismatch is an error rather than a merge.  The manifest also
        records the backend that wrote the store (pre-backend manifests
        count as ``"jsonl"``), and resuming with a different one is
        refused the same way.
        """
        if self.directory is None:
            return
        if self.manifest_path.exists():
            manifest = self._read_manifest()
            recorded = manifest.get("backend", "jsonl")
            if recorded != self.backend_name:
                raise StoreError(
                    f"{self.directory}: store was written by the "
                    f"{recorded!r} backend, not {self.backend_name!r}; "
                    "open it with open_store() (or the matching "
                    "--store-backend)"
                )
            existing = ScenarioGrid.from_dict(manifest["grid"])
            if existing.to_dict() != grid.to_dict():
                raise StoreError(
                    f"{self.directory}: store was created for a different "
                    "campaign grid (config/scenario mismatch)"
                )
        else:
            self.write_manifest(grid, extra=extra)

    # --------------------------------------------------------------- reading

    def dedup_stats(self) -> dict:
        """How many replayed deliveries idempotency swallowed.

        ``duplicate_appends`` counts live :meth:`append` calls for units
        already present (requeue races, duplicate socket deliveries);
        ``replayed_rows`` counts duplicate rows skipped while loading
        ``rows.jsonl`` (a crash landed between a rerun's append and the
        original's — harmless, the first row wins).  Both should be 0 in
        a fault-free campaign; fault-injection suites assert they absorb
        exactly the injected replays.

        When any live duplicate carried an attempt tag, a ``by_attempt``
        mapping breaks ``duplicate_appends`` down by tag (``"primary"``,
        ``"speculative"``, ``"stolen"``, ``"stale"``) — attributing each
        losing delivery to the mechanism that raced.  The key is absent
        when there were no duplicates, so fault-free stats stay exactly
        the two legacy counters.
        """
        with self._lock:
            stats: dict = {
                "duplicate_appends": self._duplicate_appends,
                "replayed_rows": self._replayed_rows,
            }
            if self._duplicates_by_attempt:
                stats["by_attempt"] = dict(self._duplicates_by_attempt)
            return stats

    def completed_ids(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, unit_id: str) -> bool:
        return unit_id in self._results

    def result(self, unit_id: str) -> RepResult:
        return self._results[unit_id]

    def results(self) -> dict[str, RepResult]:
        with self._lock:
            return dict(self._results)

    def rep_rows(self) -> list[dict]:
        """Scenario-tagged per-rep rows, flattened for stats/compare.

        One row per (unit, algorithm): scenario tags + granularity/rep +
        ``algorithm`` + the rep's metric values.  Append order on disk is
        executor-dependent, so rows are returned sorted by
        (scenario, granularity, rep, algorithm) — canonical and
        executor-independent.
        """
        rows: list[dict] = []
        with self._lock:
            items = [
                (uid, self._tags[uid], self._results[uid]) for uid in self._order
            ]
        for uid, tags, result in items:
            rows.extend(flatten_rep_result(tags, result))
        rows.sort(
            key=lambda r: (
                r["config"],
                r["network"],
                r["topology"],
                r["policy"],
                r["granularity"],
                r["rep"],
                r["algorithm"],
            )
        )
        return rows

    def iter_rows(
        self,
        where: Optional[Mapping] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> Iterator[dict]:
        """Stream per-rep rows, one at a time, in append order.

        The query surface shared by every backend: ``where`` filters on
        any row column (scalar equality, or membership for a
        list/tuple/set value — see :func:`row_matches`) and ``columns``
        projects each yielded row down to the named columns.  Unlike
        :meth:`rep_rows`, nothing is materialized beyond the row being
        yielded, and the order is append order (executor-dependent) —
        sort consumers on the canonical key when order matters.
        """
        with self._lock:
            items = [(self._tags[uid], self._results[uid]) for uid in self._order]
        for tags, result in items:
            for row in flatten_rep_result(tags, result):
                if row_matches(row, where):
                    yield project_row(row, columns)


def _columnar_factory(directory: Union[str, Path, None] = None) -> "RunStore":
    # Imported lazily so the registry knows the name without the store
    # module depending on the (NumPy-using) columnar module at import.
    from repro.experiments.columnar import ColumnarStore

    return ColumnarStore(directory)


# The builtin store backends, by `store.backend` spec name: "memory" is
# the ephemeral in-process store every default campaign uses, "jsonl"
# the append-only directory store above, "columnar" the chunked
# NumPy-structured-array store for million-row campaigns
# (repro.experiments.columnar).  `register_store` adds more.
register_store("memory", lambda directory=None: RunStore(None))
register_store("jsonl", lambda directory=None: RunStore(directory))
register_store("columnar", _columnar_factory)


def make_store(backend: str, directory: Union[str, Path, None] = None) -> RunStore:
    """Instantiate a results store from a registered backend name."""
    return STORES.get(backend, key="store.backend")(directory=directory)


def read_store_backend(directory: Union[str, Path]) -> str:
    """The backend a store directory was written by.

    Prefers the manifest's ``backend`` record; directories predating it
    (or not yet carrying a manifest) are sniffed by their files, with
    empty directories defaulting to ``"jsonl"``.
    """
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if manifest.exists():
        try:
            recorded = json.loads(manifest.read_text()).get("backend")
        except (OSError, json.JSONDecodeError):
            recorded = None  # the backend's own loader reports corruption
        if recorded is not None:
            return recorded
    if (directory / COLUMNAR_TAIL_NAME).exists() or any(
        directory.glob(COLUMNAR_CHUNK_GLOB)
    ):
        return "columnar"
    return "jsonl"


def open_store(directory: Union[str, Path]) -> RunStore:
    """Open an existing store directory with whichever backend wrote it.

    What ``campaign resume <dir>`` (and every bare-directory ``store=``
    argument) goes through, so a columnar campaign resumes onto columnar
    chunks instead of being misread as an empty JSONL store.
    """
    return make_store(read_store_backend(directory), directory)
