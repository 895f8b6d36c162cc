"""Distributed sweep sharding: lease-based work stealing over one journal.

A figure sweep is embarrassingly parallel, and
:class:`~repro.experiments.journal.SweepJournal` fingerprints are already
host-independent SHA-256 over ``(figure, args, version)`` — so the only
thing standing between the single-machine supervised runtime and a fleet
of workers sharing a directory is *coordination that survives death*.
This module provides it with three filesystem primitives, chosen so that
every failure mode degrades to duplicate work, never to wrong results:

* **Lease files** (``leases/<figure>.<fp>.lease.json``): a worker claims
  a point by atomically creating its lease (``O_CREAT | O_EXCL`` — the
  filesystem adjudicates races), writing its owner id and a deadline.  A
  heartbeat thread renews held leases at a third of the TTL; a lease
  whose deadline passed is **stolen** by renaming it into ``graves/`` (an
  atomic compare-and-swap: exactly one stealer wins the rename) and
  claiming afresh with a bumped generation counter.
* **Per-worker segments** (``segments/<figure>.<worker>.seg.jsonl``):
  each worker records completed points through its own
  :class:`~repro.experiments.journal.SweepJournal` (``writer=`` its
  worker id) — the same store, file layout and crash-consistency rules
  as a ``--checkpoint-dir`` run.  Every worker tails every segment and
  merges last-record-wins by fingerprint; corrupt lines are
  quarantined, never trusted.
* **A manifest** (``shard.json``): pins the namespace to one package
  version.  Mixing releases would silently miss every fingerprint, so a
  mismatch is a hard :class:`~repro.resilience.errors.ShardError`.

**Why results are bit-identical to a serial run, no matter what.**
Leases are a *performance* mechanism only — they reduce duplicate work,
they do not guard correctness.  Any interleaving of deaths, steals and
duplicate claims at worst makes two workers compute the same point, and
both then append records with the same fingerprint and (because the
point arithmetic is deterministic and the codec bit-exact) byte-identical
values; last-record-wins merging makes the duplicates invisible.  The
claim faults of :class:`~repro.resilience.faults.SweepFaultPlan`
deliberately manufacture the worst interleavings (SIGKILL mid-lease,
stalled heartbeats, claim bypasses, torn segments) and the tests assert
the merged arrays hash-match the serial reference.

:class:`ShardExecutor` presents the same surface as
:class:`~repro.experiments.executor.SweepExecutor` (``map``/``report``/
``reports``/``close``), so every figure module's ``executor=`` plumbing
works unchanged.  Each claimed point runs through the same attempt loop
as a serial sweep (:func:`~repro.experiments.executor.run_attempts`).
With ``jobs=N`` a worker forks ``N - 1`` local helpers onto its namespace
before it starts sweeping and collects them before ``map`` returns; this
is also how ``SweepExecutor(jobs=N)`` runs in parallel.
``repro sweep-worker FIGURE --shard-dir DIR`` is the process entry point,
and ``--jobs N`` makes it N local workers.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import signal
import socket
import threading
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.experiments.executor import (
    PointOutcome,
    SweepReport,
    run_attempts,
    settle_recorded,
)
from repro.experiments.journal import SweepJournal, fingerprint_point
from repro.obs import runtime as _rt
from repro.obs.instrument import Instrumentation
from repro.resilience.errors import LeaseError, ShardError, SweepError
from repro.resilience.faults import SweepFaultPlan
from repro.resilience.retry import RetryPolicy, jitter_fraction

__all__ = [
    "LEASE_SCHEMA",
    "MANIFEST_SCHEMA",
    "Lease",
    "ShardExecutor",
    "ShardNamespace",
    "default_worker_id",
]

#: Lease file schema version.
LEASE_SCHEMA = "repro-shard-lease/1"
#: Namespace manifest schema version.
MANIFEST_SCHEMA = "repro-shard/1"

#: Characters allowed in worker ids (they become file-name components).
_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per live process on a shared filesystem."""
    host = socket.gethostname().split(".")[0] or "host"
    return _sanitize(f"{host}-{os.getpid()}")


def _create_excl(path: Path, text: str) -> bool:
    """Durably create ``path`` holding ``text`` (``O_CREAT | O_EXCL`` — the
    filesystem picks one winner); False when it already exists."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return True


def _sanitize(worker_id: str) -> str:
    out = "".join(c if c in _SAFE else "-" for c in str(worker_id))
    if not out:
        raise ValueError(f"worker id {worker_id!r} has no usable characters")
    return out


# ----------------------------------------------------------------------
@dataclass
class Lease:
    """One worker's claim on one sweep point, as stored in its lease file."""

    figure: str
    fp: str
    index: int
    owner: str
    generation: int
    deadline: float
    #: set by the heartbeat when a renewal finds the lease stolen/gone
    lost: bool = field(default=False, compare=False)
    #: drill flag: the heartbeat skips renewing a stalled lease
    stalled: bool = field(default=False, compare=False)
    #: drill flag: a duplicate-claim bypass holds no file at all
    phantom: bool = field(default=False, compare=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": LEASE_SCHEMA,
                "figure": self.figure,
                "fp": self.fp,
                "index": self.index,
                "owner": self.owner,
                "generation": self.generation,
                "deadline": self.deadline,
            },
            separators=(",", ":"), sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, *, path=None) -> "Lease":
        try:
            obj = json.loads(text)
        except ValueError:
            raise LeaseError(
                f"unparsable lease file {path}", path=path
            ) from None
        if not isinstance(obj, dict) or obj.get("schema") != LEASE_SCHEMA:
            raise LeaseError(
                f"foreign or unversioned lease file {path} "
                f"(schema {obj.get('schema') if isinstance(obj, dict) else None!r})",
                path=path,
                owner=obj.get("owner") if isinstance(obj, dict) else None,
            )
        return cls(
            figure=obj["figure"], fp=obj["fp"], index=int(obj["index"]),
            owner=obj["owner"], generation=int(obj["generation"]),
            deadline=float(obj["deadline"]),
        )


# ----------------------------------------------------------------------
class ShardNamespace:
    """Layout and invariants of one shared shard directory.

    Creating the namespace is idempotent and race-safe: the first worker
    to ``O_EXCL``-create ``shard.json`` wins, everyone else validates it.
    A manifest from a different package version raises
    :class:`~repro.resilience.errors.ShardError` — fingerprints are
    version-scoped, so sharing a namespace across releases could only
    waste work or, worse, hide it.
    """

    def __init__(self, root: str | Path, *, version: str | None = None):
        if version is None:
            from repro import __version__ as version
        self.root = Path(root)
        self.version = str(version)
        self.leases = self.root / "leases"
        self.graves = self.root / "graves"
        self.telemetry_dir = self.root / "telemetry"
        #: the namespace's point store (offline gc reads through it;
        #: each worker appends through its own, named after itself)
        self.store = SweepJournal(self.root, version=self.version, writer="gc")
        for d in (self.root, self.leases, self.graves,
                  self.store.segments_dir, self.store.quarantine_dir,
                  self.telemetry_dir):
            d.mkdir(parents=True, exist_ok=True)
        self._check_manifest()

    def _check_manifest(self) -> None:
        path = self.root / "shard.json"
        body = json.dumps(
            {"schema": MANIFEST_SCHEMA, "version": self.version},
            separators=(",", ":"), sort_keys=True,
        )
        if _create_excl(path, body):
            return
        obj = None
        try:
            obj = json.loads(path.read_text())
        except ValueError:
            pass
        if not isinstance(obj, dict) or obj.get("schema") != MANIFEST_SCHEMA:
            raise ShardError(
                f"{path} is not a shard manifest; refusing to use "
                f"{self.root} as a shard namespace",
                shard_dir=self.root,
            )
        if obj.get("version") != self.version:
            raise ShardError(
                f"shard namespace {self.root} belongs to version "
                f"{obj.get('version')!r}, this worker is {self.version!r}; "
                "fingerprints are version-scoped — use a fresh directory",
                shard_dir=self.root,
            )

    # -- paths ---------------------------------------------------------
    def lease_path(self, figure: str, fp: str) -> Path:
        return self.leases / f"{figure}.{fp[:32]}.lease.json"

    def telemetry_path(self, worker: str) -> Path:
        return self.telemetry_dir / f"{worker}.tel.jsonl"

    # -- maintenance ---------------------------------------------------
    def gc(self, figure: str | None = None) -> dict[str, tuple[int, int]]:
        """Compact the segments of finished sweeps; drop dead lease state.

        :meth:`SweepJournal.compact <repro.experiments.journal.SweepJournal.compact>`
        merges each figure's segments (all figures by default) into one
        ``<figure>.merged.seg.jsonl``, quarantining bad lines first; then
        the lease files of fingerprints that have a record and the
        figure's graves are deleted — finished points need no
        coordination state.  Returns ``{figure: (kept, dropped)}``.

        Only safe while no worker is actively sweeping that figure (the
        CLI exposes it as ``--checkpoint-gc``, an offline maintenance
        step).
        """
        counts = self.store.compact(figure)
        for fig in counts:
            for fp in self.store.records(fig):
                self.lease_path(fig, fp).unlink(missing_ok=True)
            for grave in self.graves.glob(f"{fig}.*"):
                grave.unlink(missing_ok=True)
        return counts


# ----------------------------------------------------------------------
class ShardExecutor:
    """Sweep points cooperatively with every worker sharing ``shard_dir``.

    Duck-type compatible with
    :class:`~repro.experiments.executor.SweepExecutor` — figure modules
    take it through the same ``executor=`` keyword.  Points run in the
    worker processes (this one and its forked helpers), supervised by the
    same :class:`~repro.resilience.retry.RetryPolicy` attempt loop and
    per-attempt deadline as a serial sweep; *dead* peers are handled by
    lease expiry.

    Every worker appends an advisory, CRC-sealed telemetry stream to
    ``telemetry/<worker>.tel.jsonl`` — lifecycle, progress/metric
    heartbeats, per-point wall times and trace-span batches — which
    ``repro status`` and the fleet trace merger aggregate
    (:mod:`repro.obs.fleet`).  Results never depend on it.

    Parameters
    ----------
    shard_dir:
        The shared namespace directory (any filesystem all workers see).
    worker_id:
        Stable unique id of this worker; defaults to ``<host>-<pid>``.
    jobs:
        Local worker processes: ``map`` forks ``jobs - 1`` helpers
        (worker ids ``<worker_id>-1``, …) onto the namespace and joins as
        the first.  Each helper pipes back its point outcomes, spans and
        metrics; a point a helper computed is reported with the helper's
        outcome, so the report reads as a serial run's would.
    lease_ttl:
        Seconds a lease lives without renewal.  The heartbeat renews at
        ``ttl / 3``; a worker dead longer than the TTL gets its points
        stolen.  Cross-machine namespaces assume clocks agree to well
        under the TTL (NTP-grade skew is fine for the 30 s default).
    poll:
        Base sleep between claim scans when no point was claimable
        (jittered deterministically per worker to avoid thundering herds).
    retry:
        Per-point inline retry policy (default: 3 attempts).
    faults:
        :class:`~repro.resilience.faults.SweepFaultPlan` drill: point
        faults (hangs, raises; armed in every local worker) and claim
        faults (deaths mid-lease, stalled heartbeats, duplicate claims,
        torn segments; armed in the first helper when ``jobs > 1``).
    """

    def __init__(
        self,
        shard_dir: str | Path,
        *,
        worker_id: str | None = None,
        jobs: int = 1,
        lease_ttl: float = 30.0,
        poll: float = 0.1,
        retry: RetryPolicy | None = None,
        faults: SweepFaultPlan | None = None,
        version: str | None = None,
    ):
        if jobs < 1 or int(jobs) != jobs:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        if not lease_ttl > 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl!r}")
        if not poll > 0:
            raise ValueError(f"poll must be positive, got {poll!r}")
        self.ns = ShardNamespace(shard_dir, version=version)
        self.worker_id = _sanitize(
            worker_id if worker_id is not None else default_worker_id()
        )
        #: this worker's point store: appends to its own segment, merges all
        self.store = SweepJournal(self.ns.root, version=self.ns.version,
                                  writer=self.worker_id)
        self.jobs = int(jobs)
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.retry = retry if retry is not None else RetryPolicy()
        faults = faults if faults is not None else SweepFaultPlan()
        #: this worker's drill; with ``jobs > 1`` the claim faults go to
        #: the first helper (``_helper_faults``) and never to this worker
        self.faults = faults if self.jobs == 1 else faults.point_faults()
        self._helper_faults = faults
        #: report of the most recent :meth:`map` (None before the first)
        self.report: SweepReport | None = None
        #: reports of every :meth:`map` on this executor, oldest first
        self.reports: list[SweepReport] = []
        #: successful lease acquisitions (drills key on this counter)
        self.claims = 0

        self._held: dict[str, Lease] = {}  # fp -> lease, heartbeat-renewed
        self._held_lock = threading.Lock()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        self._tel_writer = None  # lazily-opened TelemetryWriter
        #: fleet-progress counters the heartbeat snapshots (ints/floats
        #: only — GIL-atomic reads, written solely by the map thread)
        self._tel_counts = {"computed": 0, "merged": 0, "stolen": 0,
                            "failed": 0, "idle": 0.0}
        self._shipped_spans: set[int] = set()
        self._steal_seq = 0
        #: when set, only records these workers wrote count: a local
        #: ``SweepExecutor`` run without ``resume`` reuses nothing older
        self._owners: frozenset[str] | None = None

    @property
    def worker_ids(self) -> list[str]:
        """This worker's id, then its local helpers' (``jobs > 1``)."""
        return [self.worker_id] + [
            f"{self.worker_id}-{k}" for k in range(1, self.jobs)
        ]

    def _records(self, figure: str) -> dict[str, dict]:
        """The store's merged view, less records of other runs' workers
        when :attr:`_owners` is set."""
        records = self.store.records(figure)
        return records if self._owners is None else {
            fp: rec for fp, rec in records.items()
            if rec.get("owner") in self._owners}

    # -- lease protocol ------------------------------------------------
    def _peek_lease(self, figure: str, fp: str) -> Lease | None:
        path = self.ns.lease_path(figure, fp)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:  # pragma: no cover - transient NFS races
            if exc.errno in (errno.ESTALE, errno.ENOENT):
                return None
            raise
        try:
            return Lease.from_json(text, path=path)
        except LeaseError:
            if not text.strip():
                # A torn lease write from a dying kernel: claimable.
                return None
            raise

    def _bury(self, figure: str, fp: str, generation: int) -> bool:
        """Rename a lease into ``graves/`` — an atomic compare-and-swap
        with exactly one winner.  False when another worker moved it."""
        self._steal_seq += 1
        grave = self.ns.graves / (
            f"{figure}.{fp[:32]}.g{generation}"
            f".{self.worker_id}.{self._steal_seq}.json"
        )
        try:
            os.rename(self.ns.lease_path(figure, fp), grave)
        except FileNotFoundError:
            return False
        return True

    def _claim(self, figure: str, fp: str, index: int, generation: int,
               **attrs) -> Lease | None:
        """Race to create a lease at ``generation`` (``> 1`` is a steal)
        under a ``lease_acquire`` span carrying ``attrs``; ``None`` when
        another worker created it first."""
        lease = Lease(
            figure=figure, fp=fp, index=index, owner=self.worker_id,
            generation=generation, deadline=time.time() + self.lease_ttl,
        )
        ins = _rt.ACTIVE
        with nullcontext() if ins is None else ins.span(
                "lease_acquire", figure=figure, index=index,
                generation=generation, **attrs):
            won = _create_excl(self.ns.lease_path(figure, fp), lease.to_json())
        if not won:
            return None
        if ins is not None:
            stolen = generation > 1
            ins.count("repro_leases_acquired_total",
                      mode="steal" if stolen else "fresh")
            if stolen:
                ins.count("repro_points_stolen_total")
        return lease

    def try_claim(self, figure: str, fp: str, index: int) -> Lease | None:
        """Claim one point: fresh acquire, or steal an expired lease.

        Returns the held :class:`Lease` (``generation > 1`` marks a
        steal) or ``None`` when a live peer holds the point.
        """
        if self.faults.duplicate_claim:
            # Drill: compute without coordinating at all — the worst
            # duplicate-claim race, on purpose.  Merge must absorb it.
            return Lease(figure=figure, fp=fp, index=index,
                         owner=self.worker_id, generation=1,
                         deadline=time.time() + self.lease_ttl, phantom=True)
        current = self._peek_lease(figure, fp)
        if current is None:
            if self.ns.lease_path(figure, fp).exists():
                # A torn (empty) lease from a crashed claimer would block
                # the O_EXCL create; clear it like a steal (if another
                # worker cleared it first, just race for the claim).
                self._bury(figure, fp, 0)
            return self._claim(figure, fp, index, 1)
        # A live lease blocks us — even our own from a previous
        # incarnation of this worker id, until it expires like any other.
        if time.time() <= current.deadline:
            return None
        ins = _rt.ACTIVE
        if ins is not None:
            ins.count("repro_lease_expiries_total")
        if not self._bury(figure, fp, current.generation):
            return None  # another stealer (or a releasing owner) won
        # A third worker may re-claim between our rename and create;
        # benign — we simply do not get the point.
        return self._claim(figure, fp, index, current.generation + 1,
                           stolen_from=current.owner)

    def renew(self, lease: Lease, *, observe: bool = True) -> bool:
        """Extend a held lease; returns False (and flags it lost) if stolen.

        Peeks before writing so a thief's fresh lease is never clobbered;
        the unavoidable peek→write window only ever causes duplicate
        computation, which the merge absorbs.
        """
        if lease.phantom:
            return True
        if not self._owns(lease):
            lease.lost = True
            return False
        lease.deadline = time.time() + self.lease_ttl
        path = self.ns.lease_path(lease.figure, lease.fp)
        # The heartbeat thread and the map thread both renew: each writes
        # its own temp file, so one's replace never moves the other's.
        tmp = path.with_name(
            path.name + f".renew.{self.worker_id}.{threading.get_ident()}"
        )
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(lease.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        ins = _rt.ACTIVE if observe else None
        if ins is not None:
            with ins.span("lease_renew", figure=lease.figure,
                          index=lease.index, generation=lease.generation):
                pass
            ins.count("repro_lease_renewals_total")
        return True

    def release(self, lease: Lease) -> None:
        """Drop a held lease (only if still ours — never a thief's)."""
        if not lease.phantom and self._owns(lease):
            self.ns.lease_path(lease.figure, lease.fp).unlink(missing_ok=True)

    def _owns(self, lease: Lease) -> bool:
        """True while the lease file still holds this exact claim."""
        try:
            current = self._peek_lease(lease.figure, lease.fp)
        except LeaseError:
            return False
        return (
            current is not None
            and current.owner == lease.owner
            and current.generation == lease.generation
        )

    # -- heartbeat -----------------------------------------------------
    def _heartbeat(self) -> None:
        # NOTE: the tracer is single-threaded by design; the heartbeat
        # must never emit spans.  Metrics are thread-safe (every family
        # locks its series), so renewals are *counted* here — and each
        # beat also writes a progress + metrics-snapshot telemetry
        # record so `repro status` sees even a claim-starved worker.
        interval = self.lease_ttl / 3.0
        while not self._hb_stop.wait(interval):
            ins = _rt.ACTIVE
            with self._held_lock:
                leases = list(self._held.values())
            for lease in leases:
                if lease.stalled or lease.lost:
                    continue
                try:
                    if self.renew(lease, observe=False) and ins is not None:
                        ins.count("repro_lease_renewals_total")
                except OSError:  # pragma: no cover - transient fs hiccup
                    pass
            self._emit_progress()
            if self._tel_writer is not None and ins is not None \
                    and ins.metrics is not None:
                self._tel_writer.emit("metrics", metrics=ins.metrics.to_dict())

    def _emit_progress(self) -> None:
        """Append one progress record (called from both threads)."""
        if self._tel_writer is None:
            return
        with self._held_lock:
            held = sorted(lease.index for lease in self._held.values())
        counts = self._tel_counts
        self._tel_writer.emit(
            "progress", held=held, claims=self.claims,
            computed=counts["computed"], merged=counts["merged"],
            stolen=counts["stolen"], failed=counts["failed"],
            idle=round(counts["idle"], 6),
        )

    def _ship_spans(self) -> None:
        """Telemetry-ship every closed, not-yet-shipped tracer span.

        Runs on the map thread only (the tracer is single-threaded);
        each span ships exactly once, keyed by its index in the worker
        tracer's flat list, so the fleet reader can restore parent
        links across batches.  The still-open container span (the CLI's
        ``experiment`` root) never closes mid-run and never ships.
        """
        ins = _rt.ACTIVE
        if self._tel_writer is None or ins is None or ins.tracer is None:
            return
        from repro.obs.fleet import spans_to_wire

        fresh = [i for i, sp in enumerate(ins.tracer.spans)
                 if sp.closed and i not in self._shipped_spans]
        if not fresh:
            return
        self._shipped_spans.update(fresh)
        self._tel_writer.emit(
            "spans", spans=spans_to_wire(ins.tracer.spans, fresh)
        )

    def _start_heartbeat(self) -> None:
        if self._hb_thread is None:
            self._hb_thread = threading.Thread(
                target=self._heartbeat,
                name=f"shard-heartbeat-{self.worker_id}",
                daemon=True,
            )
            self._hb_thread.start()

    def _hold(self, lease: Lease) -> None:
        with self._held_lock:
            self._held[lease.fp] = lease
        self._start_heartbeat()

    def _drop(self, lease: Lease) -> None:
        with self._held_lock:
            self._held.pop(lease.fp, None)
        self.release(lease)

    # -- point computation ---------------------------------------------
    def _finish_point(self, figure: str, args: tuple, lease: Lease,
                      out: PointOutcome, ok: bool, value: Any) -> None:
        """Record, release, and report one claimed point after compute."""
        if ok:
            # Renew (and notice theft) right before the record lands; a
            # lost lease still records — the thief's value is
            # bit-identical, last wins.
            self.renew(lease)
            self.store.record(
                figure, args, index=out.index, value=value,
                attempts=out.attempts, owner=self.worker_id,
                generation=lease.generation, tear=self.faults.tear_segment,
            )
            out.owner = self.worker_id
            out.generation = lease.generation
            out.steals = max(0, lease.generation - 1)
            if lease.generation > 1:
                out.status = "stolen"  # run_attempts settled the rest
                self._tel_counts["stolen"] += 1
            self._tel_counts["computed"] += 1
            self._tel_writer.emit(
                "point", index=out.index, seconds=round(out.seconds, 9),
                status=out.status, generation=lease.generation,
            )
        else:
            self._tel_counts["failed"] += 1
        self._drop(lease)
        self._ship_spans()
        self._emit_progress()

    # -- the cooperative sweep -----------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        calls: Sequence[tuple],
        *,
        label: str | None = None,
    ) -> list[Any]:
        """``[fn(*args) for args in calls]``, cooperatively with the fleet.

        Every worker calls this with the *same* figure and calls; each
        point is computed by whichever worker claims it (or steals it
        from a dead claimant), and every worker returns the identical,
        bit-exact assembled result list.  Local helpers (``jobs > 1``)
        are forked first and reaped — or, on error and Ctrl-C, killed —
        before this returns.
        """
        calls = list(calls)
        figure = label or getattr(fn, "__name__", "sweep")
        report = SweepReport(label=figure, total=len(calls))
        report.points = [PointOutcome(index=i) for i in range(len(calls))]
        self.report = report
        self.reports.append(report)
        # Fork before this process starts its heartbeat thread.
        helpers = self._fork_helpers(fn, calls, figure)
        try:
            results = self._sweep(fn, calls, figure, report)
            self._reap(helpers, figure, report)
        except BaseException:
            self._reap(helpers, figure, None)
            raise
        if not report.complete:
            raise report.beyond_retry("are in the shard segments")
        return results

    def _sweep(self, fn, calls, figure, report) -> list[Any]:
        """This worker's claim loop; returns the results, complete or not."""
        fps = [
            fingerprint_point(figure, args, self.ns.version) for args in calls
        ]
        ins = _rt.ACTIVE

        if self._tel_writer is None:
            from repro.obs.fleet import TelemetryWriter

            self._tel_writer = TelemetryWriter(
                self.ns.telemetry_path(self.worker_id), self.worker_id
            )
        tracer = ins.tracer if ins is not None else None
        self._tel_writer.emit(
            "hello", figure=figure, total=len(calls), pid=os.getpid(),
            host=socket.gethostname().split(".")[0],
            epoch_unix=(
                tracer.epoch_unix if tracer is not None else time.time()
            ),
        )
        # Heartbeat from the very start (not first claim), so even a
        # claim-starved worker shows a live pulse in `repro status`.
        self._start_heartbeat()

        results: list[Any] = [None] * len(calls)
        done: set[int] = set()
        local_failed: set[int] = set()

        def settle(status: str) -> None:
            done.update(settle_recorded(
                self._records(figure), fps,
                [i for i in range(len(calls)) if i not in done],
                report, results, status=status,
            ))
            self._tel_counts["merged"] = len(done)

        settle("resumed")

        tick = 0
        try:
            while len(done) < len(calls):
                progressed = False
                pending = [i for i in range(len(calls)) if i not in done]
                offset = (
                    zlib.crc32(self.worker_id.encode()) % max(1, len(pending))
                )
                scan = pending[offset:] + pending[:offset]
                for i in scan:
                    if i in local_failed:
                        continue
                    lease = self.try_claim(figure, fps[i], i)
                    if lease is None:
                        continue
                    progressed = True
                    if fps[i] in self._records(figure):
                        # A peer recorded the point and released its
                        # lease after our last merge: nothing to compute.
                        self.release(lease)
                        break
                    self.claims += 1
                    if self.faults.dies_now(self.claims):
                        # Drill: die holding the lease — no cleanup, no
                        # release; peers must steal after the TTL.
                        os.kill(os.getpid(), signal.SIGKILL)
                    if self.faults.stalls_now(self.claims):
                        lease.stalled = True  # heartbeat abandons it
                        time.sleep(self.faults.stall_seconds)
                    self._hold(lease)
                    # One container span per claimed point: compute plus
                    # the coordination overhead around it (segment fsync,
                    # lease release, telemetry), so the fleet coverage
                    # gate sees where claimed wall time actually went.
                    out = report.points[i]
                    with nullcontext() if ins is None else ins.span(
                            "shard_point", index=i,
                            generation=lease.generation):
                        ok, value = run_attempts(
                            fn, calls[i], out, self.retry, self.faults,
                            mode="shard",
                        )
                        self._finish_point(figure, calls[i], lease, out,
                                           ok, value)
                    if ok:
                        results[i] = value
                        done.add(i)
                    else:
                        local_failed.add(i)
                    break  # refresh the merged view between points
                settle("peer")
                if progressed or len(done) >= len(calls):
                    continue
                # Nothing claimable: either peers hold live leases on
                # the remainder, or every remaining point failed here.
                still = [i for i in range(len(calls)) if i not in done]
                if all(i in local_failed for i in still) and \
                        not self._any_live_peer_lease(figure, fps, still):
                    break  # failed here beyond retry, no live peer left
                tick += 1
                nap = self.poll * (0.75 + 0.5 * jitter_fraction(
                    zlib.crc32(self.worker_id.encode()) & 0xFFFF, tick
                ))
                time.sleep(nap)
                self._tel_counts["idle"] += nap
        except KeyboardInterrupt:
            report.interrupted = True
            self._release_held()
            raise
        finally:
            self._stop_heartbeat()
            self._ship_spans()
            if ins is not None and ins.metrics is not None:
                # Final cumulative snapshot: short sweeps end before
                # the heartbeat ever ships one.
                self._tel_writer.emit(
                    "metrics", metrics=ins.metrics.to_dict())
            if report.interrupted:
                status = "interrupted"
            elif report.complete:
                status = "complete"
            else:
                status = "failed"
            counts = self._tel_counts
            self._tel_writer.emit(
                "bye", status=status, claims=self.claims,
                computed=counts["computed"], merged=counts["merged"],
                stolen=counts["stolen"], failed=counts["failed"],
                idle=round(counts["idle"], 6),
            )
        return results

    # -- local helpers -------------------------------------------------
    def _fork_helpers(self, fn, calls, figure) -> list[list]:
        """Fork ``jobs - 1`` helpers onto this namespace; each is a
        ``[pid, read fd, payload]`` entry (pid and fd ``None`` once
        reaped).  A ``die-after-claim`` helper is reaped before any other
        worker claims, so its lease is provably orphaned."""
        helpers: list[list] = []
        observe = _rt.ACTIVE is not None
        try:
            for k in range(1, self.jobs):
                rfd, wfd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(rfd)
                    self._helper_main(k, fn, calls, figure, wfd, observe)
                os.close(wfd)
                helpers.append([pid, rfd, None])
                if k == 1 and self._helper_faults.die_after_claims is not None:
                    self._reap_one(helpers[-1])
        except BaseException:
            self._reap(helpers, figure, None)
            raise
        return helpers

    def _helper_main(self, k, fn, calls, figure, wfd, observe) -> None:
        """Body of forked helper ``k``: sweep as ``<worker_id>-<k>`` and
        pipe back ``(outcomes, spans, metrics)``.  Never returns."""
        try:
            ins = Instrumentation.enabled() if observe else None
            with nullcontext() if ins is None else ins.activate():
                peer = ShardExecutor(
                    self.ns.root, worker_id=f"{self.worker_id}-{k}",
                    lease_ttl=self.lease_ttl, poll=self.poll,
                    retry=self.retry, version=self.ns.version,
                    faults=self._helper_faults if k == 1 else self.faults,
                )
                peer._owners = self._owners
                with peer:
                    try:
                        peer.map(fn, calls, label=figure)
                    except SweepError:
                        pass  # its report holds the failures
            payload = (peer.report.points,
                       ins.tracer.spans if ins is not None else None,
                       ins.metrics if ins is not None else None)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)  # an error or Ctrl-C: exit without a payload

    @staticmethod
    def _reap_one(helper: list) -> None:
        """Read a helper's payload to EOF, then wait for it (idempotent)."""
        pid, fd, _ = helper
        if fd is not None:
            with os.fdopen(fd, "rb") as fh:
                helper[1] = None
                data = fh.read()
            try:
                helper[2] = pickle.loads(data)
            except Exception:  # killed mid-send, or sent nothing
                pass
        if pid is not None:
            os.waitpid(pid, 0)
            helper[0] = None

    def _reap(self, helpers: list[list], figure: str,
              report: SweepReport | None) -> None:
        """Collect every helper.  Without a ``report`` (error, Ctrl-C)
        SIGKILL them and free the leases they held; with one, graft each
        helper's spans, merge its metrics, and give each point it
        computed — settled here as ``peer`` — the helper's own outcome."""
        if report is None:
            for pid, _fd, _ in helpers:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
        for helper in helpers:
            self._reap_one(helper)
        if report is None:
            ours = set(self.worker_ids[1:])
            for path in self.ns.leases.glob(f"{figure}.*.lease.json"):
                try:
                    if Lease.from_json(path.read_text()).owner in ours:
                        path.unlink(missing_ok=True)
                except (OSError, LeaseError):
                    pass  # gone already, or torn: a peer clears it
            return
        ins = _rt.ACTIVE
        for _pid, _fd, payload in helpers:
            if payload is None:
                continue  # SIGKILLed: sent nothing
            points, spans, metrics = payload
            if ins is not None:
                if spans and ins.tracer is not None:
                    ins.tracer.graft(spans)
                if metrics is not None and ins.metrics is not None:
                    ins.metrics.merge(metrics)
            for theirs in points:
                mine = report.points[theirs.index]
                if mine.status == "peer" and theirs.attempts \
                        and theirs.owner == mine.owner:
                    report.points[theirs.index] = theirs

    def _any_live_peer_lease(
        self, figure: str, fps: list[str], indices: list[int]
    ) -> bool:
        now = time.time()
        for i in indices:
            try:
                lease = self._peek_lease(figure, fps[i])
            except LeaseError:
                continue
            if (
                lease is not None
                and lease.owner != self.worker_id
                and now <= lease.deadline
            ):
                return True
        return False

    # -- lifecycle -----------------------------------------------------
    def _release_held(self) -> None:
        with self._held_lock:
            leases = list(self._held.values())
            self._held.clear()
        for lease in leases:
            try:
                self.release(lease)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _stop_heartbeat(self) -> None:
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
            self._hb_thread = None
        self._hb_stop = threading.Event()

    def close(self) -> None:
        """Release leases, stop the heartbeat, close segment + telemetry."""
        self._stop_heartbeat()
        self._release_held()
        self.store.close()
        if self._tel_writer is not None:
            self._tel_writer.close()
            self._tel_writer = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
