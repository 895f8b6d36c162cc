"""The point store: CRC-sealed checkpoints of completed sweep points.

A figure sweep is a list of independent points; losing a 40-minute run to
a crash on point 37 of 40 is the failure mode this module removes.
:class:`SweepJournal` is the one store behind both sweep runtimes — the
single-process :class:`~repro.experiments.executor.SweepExecutor`
(``--checkpoint-dir``) and each
:class:`~repro.experiments.shard.ShardExecutor` worker (``--shard-dir``)
— and both directories share one layout::

    segments/<figure>.<writer>.seg.jsonl   # one append-only file per writer
    segments/<figure>.merged.seg.jsonl     # what compaction leaves
    quarantine/<writer>.quarantine.jsonl   # bad lines, kept for post-mortem

Each writer appends one line per *completed* point to its own file, so no
two processes interleave bytes; every reader tails all writers' files
incrementally and merges them last-record-wins by fingerprint.

* **Stable fingerprints.** A record is keyed by a SHA-256 over a
  canonical rendering of ``(figure, point arguments, repro version)``:
  floats by their IEEE-754 hex form, dataclasses by sorted field
  name/value pairs, :class:`~repro.distributions.shapes.Shape` by
  ``(name, sorted params)`` — no ``repr`` ambiguity, no pickle, no hash
  randomization.  Change a parameter (or upgrade the package) and the
  fingerprint misses: the point is recomputed, never silently reused.
* **Bit-exact values.** ``ndarray`` round-trips as base64 of its raw
  bytes plus dtype/shape, floats as ``float.hex()``, so a resumed sweep
  is *bit-identical* to the uninterrupted run
  (``tests/experiments/test_supervision.py``).
* **Crash-consistent appends.** Every record carries a CRC-32 of its own
  canonical rendering and is fsync'd before the point counts, so a crash
  tears at most a writer's last line.  Readers consume only
  newline-terminated lines, so a torn *tail* stays invisible and its
  point is recomputed; the next append to that file starts a fresh line
  rather than gluing onto the torn bytes.  Any other bad line — a torn
  middle, a CRC mismatch, bytes that are not UTF-8 — is **quarantined**
  once per reader (``repro_journal_quarantined_total``), never trusted,
  never fatal.

Only successes are recorded; failures are re-run on resume.  Lookup takes
the last record per fingerprint, so a store never has to be deleted to be
safe; :meth:`SweepJournal.compact` merges a figure's files into one when
the history is no longer wanted.  Directories in the older single-file
layout (``<figure>.journal.jsonl``) are not read: their points are
recomputed, never misread.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, IO

import numpy as np

from repro.distributions.shapes import Shape
from repro.obs import runtime as _rt

__all__ = [
    "SweepJournal",
    "canonical_value",
    "decode_value",
    "encode_value",
    "fingerprint_point",
    "load_records_text",
    "make_record",
    "record_crc",
    "record_line",
]

#: Journal line schema version (bump on incompatible record changes).
SCHEMA = "repro-sweep-journal/1"


# ----------------------------------------------------------------------
# Bit-exact value codec
def encode_value(value: Any) -> Any:
    """JSON-encodable rendering of a point result, bit-exact for floats."""
    if isinstance(value, np.ndarray):
        return {
            "__kind__": "ndarray",
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(
                "ascii"
            ),
        }
    if isinstance(value, (np.floating, float)):
        return {"__kind__": "float", "hex": float(value).hex()}
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return {"__kind__": "int", "value": int(value)}
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__kind__": "list", "items": [encode_value(v) for v in value]}
    if value is None or isinstance(value, (bool, str)):
        return value
    raise TypeError(
        f"cannot journal a point result of type {type(value).__name__}"
    )


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if not isinstance(obj, dict):
        return obj
    kind = obj.get("__kind__")
    if kind == "ndarray":
        arr = np.frombuffer(
            base64.b64decode(obj["data"]), dtype=np.dtype(obj["dtype"])
        )
        return arr.reshape(obj["shape"]).copy()  # owned, writable
    if kind == "float":
        return float.fromhex(obj["hex"])
    if kind == "int":
        return int(obj["value"])
    if kind == "tuple":
        return tuple(decode_value(v) for v in obj["items"])
    if kind == "list":
        return [decode_value(v) for v in obj["items"]]
    raise ValueError(f"unknown journal value kind {kind!r}")


# ----------------------------------------------------------------------
# Canonical fingerprints
def canonical_value(obj: Any) -> Any:
    """A JSON-stable, process-independent rendering of point arguments.

    The model-cache layer (:mod:`repro.serve.cache`) keys warm models by
    the same rendering, so a spec hashes identically whether it reaches
    the solver through a checkpointed sweep or a service query.
    """
    if isinstance(obj, Shape):
        return ["shape", obj.name, sorted(
            (k, canonical_value(v)) for k, v in obj.params.items()
        )]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            sorted(
                (f.name, canonical_value(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        ]
    if isinstance(obj, np.ndarray):
        return ["ndarray", obj.dtype.str, list(obj.shape),
                base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode("ascii")]
    if isinstance(obj, (np.floating, float)):
        return ["f", float(obj).hex()]
    if isinstance(obj, (np.integer,)):
        return ["i", int(obj)]
    if isinstance(obj, (tuple, list)):
        return [canonical_value(v) for v in obj]
    if isinstance(obj, dict):
        return ["dict", sorted((str(k), canonical_value(v)) for k, v in obj.items())]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(
        f"cannot fingerprint a point argument of type {type(obj).__name__}; "
        "journal keys must be built from numbers, strings, arrays, shapes "
        "and dataclasses"
    )


def fingerprint_point(figure: str, args: tuple, version: str) -> str:
    """Stable SHA-256 key of one sweep point: (figure, params, version)."""
    payload = json.dumps(
        [SCHEMA, version, figure, canonical_value(tuple(args))],
        separators=(",", ":"), sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Record schema (one line per completed point)
def record_crc(rec: dict) -> int:
    """CRC-32 over the canonical rendering of a record (minus its crc)."""
    body = json.dumps(
        {k: v for k, v in rec.items() if k != "crc"},
        separators=(",", ":"), sort_keys=True,
    )
    return zlib.crc32(body.encode("utf-8"))


def make_record(
    figure: str,
    args: tuple,
    *,
    version: str,
    index: int,
    value: Any,
    status: str = "ok",
    attempts: int = 1,
    owner: str | None = None,
    generation: int | None = None,
) -> dict:
    """One checkpoint record, CRC-sealed, ready to serialize as a line.

    ``owner``/``generation`` are shard provenance: the worker id that
    computed the point and the lease generation it held (1 = first
    holder, >1 = the point was stolen that many minus one times).  Both
    are optional additive fields; readers of schema /1 tolerate their
    absence (and ignore fields they do not know, such as the ``seconds``
    older shard records carry).
    """
    rec: dict[str, Any] = {
        "schema": SCHEMA,
        "fp": fingerprint_point(figure, args, version),
        "figure": figure,
        "version": version,
        "index": index,
        "status": status,
        "attempts": attempts,
        "value": encode_value(value),
    }
    if owner is not None:
        rec["owner"] = owner
    if generation is not None:
        rec["generation"] = int(generation)
    rec["crc"] = record_crc(rec)
    return rec


def record_line(rec: dict) -> str:
    """The journal's serialized form of one record (no newline)."""
    return json.dumps(rec, separators=(",", ":"))


def load_records_text(
    text: str,
    *,
    on_bad_line: Callable[[int, str, str], None] | None = None,
) -> dict[str, dict]:
    """Parse journal text into ``{fingerprint: record}``, last record wins.

    Recovery semantics (the crash-consistency contract):

    * text after the last newline — the torn tail of a killed writer, or
      a line still being written — is not parsed (``--resume``
      recomputes its point);
    * a complete malformed line (torn middle after a partial flush, CRC
      mismatch from bit rot, half a record glued to the next append) is
      reported through ``on_bad_line(lineno, raw, why)`` and skipped —
      quarantined, never trusted, never fatal;
    * valid JSON of a foreign schema is ignored (forward compatibility).
    """
    records: dict[str, dict] = {}
    complete = text[: text.rfind("\n") + 1]
    for i, raw in enumerate(complete.split("\n")[:-1]):
        line = raw.strip()
        if not line:
            continue
        why = None
        rec = None
        try:
            rec = json.loads(line)
        except ValueError:
            why = "unparsable"
        if rec is not None:
            if not isinstance(rec, dict) or "schema" not in rec:
                why = "not-a-record"
            elif rec.get("schema") != SCHEMA:
                continue  # foreign-but-valid line: ignore
            elif "fp" not in rec or "value" not in rec:
                why = "missing-fields"
            elif "crc" in rec and record_crc(rec) != rec["crc"]:
                why = "crc-mismatch"
        if why is not None:
            if on_bad_line is not None:
                on_bad_line(i + 1, line, why)
            continue
        records[rec["fp"]] = rec
    return records


# ----------------------------------------------------------------------
class SweepJournal:
    """The point store of one checkpoint directory or shard namespace.

    Appends go to this store's own file per figure; reads merge every
    writer's files for that figure (see the module docstring for the
    layout and the crash-consistency rules).

    Parameters
    ----------
    root:
        Checkpoint directory or shard namespace (its ``segments/`` and
        ``quarantine/`` subdirectories are created on first write).
    version:
        Package version folded into every fingerprint; defaults to the
        installed :data:`repro.__version__`, so records never leak
        across releases.
    writer:
        Names this store's own file per figure and its quarantine file
        (a file-name component).  Concurrent writers need distinct
        names: shard workers pass their worker id, and the default
        ``"journal"`` serves a single-process ``--checkpoint-dir`` run.
    """

    def __init__(self, root: str | Path, *, version: str | None = None,
                 writer: str = "journal"):
        if version is None:
            from repro import __version__ as version
        self.root = Path(root)
        self.version = str(version)
        self.writer = str(writer)
        self.segments_dir = self.root / "segments"
        self.quarantine_dir = self.root / "quarantine"
        #: per figure, per file: (inode, bytes consumed, lines consumed)
        self._tails: dict[str, dict[Path, tuple[int, int, int]]] = {}
        #: per figure: last-record-wins merge of every writer's records
        self._merged: dict[str, dict[str, dict]] = {}
        self._quarantined: set[tuple[str, int, str]] = set()
        self._handles: dict[str, IO[bytes]] = {}

    # -- layout --------------------------------------------------------
    def path(self, figure: str, writer: str | None = None) -> Path:
        """One writer's append-only file for ``figure`` (default: ours)."""
        return self.segments_dir / f"{figure}.{writer or self.writer}.seg.jsonl"

    def paths(self, figure: str) -> list[Path]:
        """Every writer's file for ``figure``, a compacted one included."""
        return sorted(self.segments_dir.glob(f"{figure}.*.seg.jsonl"))

    def quarantine_path(self, writer: str | None = None) -> Path:
        """Where a reader's quarantined lines go (default: ours)."""
        return self.quarantine_dir / f"{writer or self.writer}.quarantine.jsonl"

    # -- reading -------------------------------------------------------
    def _quarantine(self, source: Path, lineno: int, raw: str, why: str) -> None:
        """Preserve one bad line for post-mortem (once per store), never
        trust it."""
        key = (source.name, lineno, raw)
        if key in self._quarantined:
            return  # re-read after compaction: already preserved
        self._quarantined.add(key)
        qpath = self.quarantine_path()
        qpath.parent.mkdir(parents=True, exist_ok=True)
        with qpath.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"source": source.name, "line": lineno, "why": why,
                 "raw": raw},
                separators=(",", ":"),
            ) + "\n")
        ins = _rt.ACTIVE
        if ins is not None:
            ins.count("repro_journal_quarantined_total")

    def records(self, figure: str) -> dict[str, dict]:
        """The last-record-wins view ``{fingerprint: record}`` of every
        writer's file, after absorbing the lines completed since the last
        call.

        Only newline-terminated data is consumed, so a writer's in-flight
        or torn last line stays invisible; a file replaced or truncated
        underneath (compaction) is re-read from the start.  Bytes decode
        with replacement, so a line that is not UTF-8 is quarantined
        instead of raising.
        """
        tails = self._tails.setdefault(figure, {})
        merged = self._merged.setdefault(figure, {})
        new, consumed = 0, False
        for path in self.paths(figure):
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            ino, off, lines = tails.get(path, (st.st_ino, 0, 0))
            if ino != st.st_ino or st.st_size < off:
                off, lines = 0, 0
            if st.st_size == off:
                continue
            with open(path, "rb") as fh:
                fh.seek(off)
                chunk = fh.read(st.st_size - off)
            end = chunk.rfind(b"\n") + 1
            if not end:
                continue  # no complete new line yet
            text = chunk[:end].decode("utf-8", errors="replace")
            tails[path] = (st.st_ino, off + end, lines + text.count("\n"))
            found = load_records_text(
                text,
                on_bad_line=lambda n, raw, why, p=path, base=lines:
                    self._quarantine(p, base + n, raw, why),
            )
            merged.update(found)
            new += len(found)
            consumed = True
        ins = _rt.ACTIVE
        if consumed and ins is not None:
            with ins.span("segment_merge", figure=figure, records=new,
                          total=len(merged)):
                pass
        return merged

    def lookup(self, figure: str, args: tuple) -> tuple[bool, Any]:
        """``(hit, value)`` for one point; the value is bit-exact."""
        rec = self.records(figure).get(
            fingerprint_point(figure, args, self.version)
        )
        if rec is None:
            return False, None
        return True, decode_value(rec["value"])

    # -- writing -------------------------------------------------------
    def _handle(self, figure: str) -> IO[bytes]:
        fh = self._handles.get(figure)
        if fh is None:
            path = self.path(figure)
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._handles[figure] = open(path, "a+b")
            size = fh.seek(0, os.SEEK_END)
            if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
                fh.write(b"\n")  # a killed writer's torn tail: new line
        return fh

    def record(self, figure: str, args: tuple, *, index: int, value: Any,
               status: str = "ok", attempts: int = 1,
               owner: str | None = None, generation: int | None = None,
               tear: bool = False) -> None:
        """Append one completed point to our file, CRC-sealed and fsync'd.

        ``tear`` is the ``torn-segment`` drill: a torn half-record line
        follows the record, and every reader must quarantine it.
        """
        ins = _rt.ACTIVE
        with nullcontext() if ins is None else ins.span(
                "checkpoint_write", figure=figure, index=index):
            line = record_line(make_record(
                figure, args, version=self.version, index=index, value=value,
                status=status, attempts=attempts, owner=owner,
                generation=generation,
            )) + "\n"
            if tear:
                line += '{"schema":"' + SCHEMA + '","fp":"torn-\n'
            fh = self._handle(figure)
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        if ins is not None:
            ins.count("repro_checkpoint_writes_total")

    # -- maintenance ---------------------------------------------------
    def compact(self, figure: str | None = None) -> dict[str, tuple[int, int]]:
        """Merge every writer's file for a figure into one merged file.

        Returns ``{figure: (kept, dropped)}``: the records in the merged
        ``<figure>.merged.seg.jsonl`` and the lines not carried over
        (superseded records, and bad lines, which are quarantined before
        their file is deleted; a torn last line, never a record, goes
        with its file).  The merged file is durable (temp, fsync, atomic
        rename) before any source is unlinked, so a crash mid-compaction
        leaves at worst duplicate records, which last-record-wins
        absorbs.  Open append handles are closed first.  Only safe while
        nobody appends to the figure (the CLI exposes it as the offline
        ``--checkpoint-gc``).
        """
        if figure is not None:
            figures = [figure]
        else:
            figures = sorted({
                p.name.split(".", 1)[0]
                for p in self.segments_dir.glob("*.seg.jsonl")
            })
        self.close()
        counts: dict[str, tuple[int, int]] = {}
        for fig in figures:
            paths = self.paths(fig)
            if not paths:
                continue
            self._tails.pop(fig, None)  # count every line from byte 0
            self._merged.pop(fig, None)
            records = self.records(fig)
            read = sum(lines for _, _, lines in self._tails[fig].values())
            target = self.path(fig, "merged")
            tmp = target.with_name(target.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(
                    record_line(rec) + "\n"
                    for rec in sorted(records.values(),
                                      key=lambda r: (r.get("index", 0), r["fp"]))
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
            for path in paths:
                if path != target:
                    path.unlink(missing_ok=True)
            self._tails.pop(fig, None)
            counts[fig] = (len(records), read - len(records))
        return counts

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close any open append files (safe to call repeatedly)."""
        for fh in self._handles.values():
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        self._handles.clear()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
