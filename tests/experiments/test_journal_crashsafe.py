"""Crash consistency of the checkpoint journal.

The contract (see :mod:`repro.experiments.journal`):

* a journal truncated at **any byte offset** inside its last record —
  the exact state a power loss or SIGKILL mid-append leaves behind —
  loads every earlier record and silently drops the torn tail, and the
  next append starts a fresh line instead of gluing onto the torn bytes;
* a torn *middle* record (partial flush glued to a later append), a
  CRC mismatch (bit rot) or a byte that is not UTF-8 is quarantined —
  preserved for post-mortem, never trusted, never fatal;
* compaction merges every writer's file last-record-wins durably (temp
  + fsync + atomic rename), so a crash mid-compaction leaves old or new,
  never a hybrid.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.journal import (
    SweepJournal,
    load_records_text,
    make_record,
    record_crc,
    record_line,
)


def _value(i):
    return np.arange(4, dtype=float) * i + 0.25


def _journal(tmp_path, **kw):
    kw.setdefault("version", "test")
    return SweepJournal(tmp_path / "ckpt", **kw)


def _fill(journal, n=3, figure="figX"):
    for i in range(n):
        journal.record(figure, (float(i),), index=i, value=_value(i))
    journal.close()


# ----------------------------------------------------------------------
class TestTornTail:
    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        """The satellite regression: recovery from every possible tear."""
        j = _journal(tmp_path)
        _fill(j, n=3)
        path = j.path("figX")
        whole = path.read_bytes()
        lines = whole.splitlines(keepends=True)
        assert len(lines) == 3
        body_end = len(whole) - len(lines[-1])

        for cut in range(body_end + 1, len(whole)):  # every tear offset
            path.write_bytes(whole[:cut])
            fresh = _journal(tmp_path)
            hit0, val0 = fresh.lookup("figX", (0.0,))
            hit1, val1 = fresh.lookup("figX", (1.0,))
            hit2, val2 = fresh.lookup("figX", (2.0,))
            assert hit0 and hit1, f"tear at byte {cut} lost an intact record"
            assert val0.tobytes() == _value(0).tobytes()
            assert val1.tobytes() == _value(1).tobytes()
            if cut < len(whole) - 1:
                # Mid-record tear: the tail must vanish, never half-load.
                assert not hit2, f"tear at byte {cut} resurrected a torn record"
            elif hit2:
                # Only the newline was lost: the record is whole — keeping
                # it is fine, returning a wrong value is not.
                assert val2.tobytes() == _value(2).tobytes()
            # A torn tail is benign: nothing may be quarantined for it.
            assert not fresh.quarantine_path().exists(), (
                f"tear at byte {cut} was quarantined instead of skipped"
            )
            fresh.close()

    def test_truncated_then_appended_recovers_the_point(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=2)
        path = j.path("figX")
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # tear the second record
        fresh = _journal(tmp_path)
        hit, _ = fresh.lookup("figX", (1.0,))
        assert not hit
        fresh.record("figX", (1.0,), index=1, value=_value(1))  # re-run
        hit, val = fresh.lookup("figX", (1.0,))
        assert hit and val.tobytes() == _value(1).tobytes()
        fresh.close()
        # The re-run's record starts its own line: the next resume finds
        # it instead of quarantining it glued to the torn bytes.
        again = _journal(tmp_path)
        hit, val = again.lookup("figX", (1.0,))
        assert hit and val.tobytes() == _value(1).tobytes()
        assert again.lookup("figX", (0.0,))[0]
        again.close()


# ----------------------------------------------------------------------
class TestQuarantine:
    def test_torn_middle_record_is_quarantined(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=3)
        path = j.path("figX")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear the middle record
        path.write_text("\n".join(lines) + "\n")

        fresh = _journal(tmp_path)
        assert fresh.lookup("figX", (0.0,))[0]
        assert not fresh.lookup("figX", (1.0,))[0]
        assert fresh.lookup("figX", (2.0,))[0]
        qpath = fresh.quarantine_path()
        assert qpath.exists()
        (entry,) = [json.loads(l) for l in qpath.read_text().splitlines()]
        assert entry["why"] == "unparsable"
        assert entry["source"] == "figX.journal.seg.jsonl"
        assert entry["line"] == 2
        fresh.close()

    def test_non_utf8_byte_is_quarantined_not_fatal(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=3)
        path = j.path("figX")
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"\n") + 10] = 0xFF  # one flipped byte in record 1
        path.write_bytes(bytes(raw))

        fresh = _journal(tmp_path)
        assert fresh.lookup("figX", (0.0,))[0]
        assert not fresh.lookup("figX", (1.0,))[0], "corrupt record trusted"
        assert fresh.lookup("figX", (2.0,))[0]
        (entry,) = [json.loads(l) for l in
                    fresh.quarantine_path().read_text().splitlines()]
        assert entry["line"] == 2
        assert fresh.compact("figX") == {"figX": (2, 1)}
        fresh.close()

    def test_crc_mismatch_is_quarantined(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=2)
        path = j.path("figX")
        lines = path.read_text().splitlines()
        # Bit-rot the *value* of record 0 while keeping valid JSON.
        rec = json.loads(lines[0])
        rec["index"] = 99  # CRC no longer matches
        lines[0] = json.dumps(rec, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        fresh = _journal(tmp_path)
        assert not fresh.lookup("figX", (0.0,))[0], "corrupt record trusted"
        assert fresh.lookup("figX", (1.0,))[0]
        entries = [json.loads(l) for l in
                   fresh.quarantine_path().read_text().splitlines()]
        assert [e["why"] for e in entries] == ["crc-mismatch"]
        fresh.close()

    def test_foreign_schema_lines_are_ignored_silently(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=1)
        path = j.path("figX")
        with path.open("a") as fh:
            fh.write('{"schema": "someone-elses/9", "fp": "x"}\n')
        fresh = _journal(tmp_path)
        assert fresh.lookup("figX", (0.0,))[0]
        assert not fresh.quarantine_path().exists()
        fresh.close()


# ----------------------------------------------------------------------
class TestRecordHelpers:
    def test_record_crc_covers_everything_but_itself(self):
        rec = make_record("figX", (1.0,), version="test", index=0,
                          value=_value(0))
        assert rec["crc"] == record_crc(rec)
        tampered = dict(rec)
        tampered["attempts"] = 7
        assert record_crc(tampered) != rec["crc"]

    def test_load_records_text_last_record_wins(self):
        a = make_record("figX", (1.0,), version="test", index=0,
                        value=_value(0), attempts=1)
        b = make_record("figX", (1.0,), version="test", index=0,
                        value=_value(0), attempts=2)
        text = record_line(a) + "\n" + record_line(b) + "\n"
        records = load_records_text(text)
        assert len(records) == 1
        assert next(iter(records.values()))["attempts"] == 2

    def test_load_records_text_reports_bad_lines(self):
        good = make_record("figX", (1.0,), version="test", index=0,
                           value=_value(0))
        bad = []
        text = '{"broken\n' + record_line(good) + "\n"
        records = load_records_text(
            text, on_bad_line=lambda n, raw, why: bad.append((n, why)))
        assert len(records) == 1
        assert bad == [(1, "unparsable")]

    def test_unterminated_garbage_tail_is_silent(self):
        good = make_record("figX", (1.0,), version="test", index=0,
                           value=_value(0))
        bad = []
        text = record_line(good) + "\n" + '{"torn'  # no trailing newline
        records = load_records_text(
            text, on_bad_line=lambda n, raw, why: bad.append((n, why)))
        assert len(records) == 1 and bad == []


# ----------------------------------------------------------------------
class TestCompaction:
    def test_compact_keeps_last_record_and_survives_reload(self, tmp_path):
        j = _journal(tmp_path)
        for _ in range(3):  # three re-runs: 9 lines, 3 live records
            _fill(j, n=3)
        path = j.path("figX")
        assert len(path.read_text().splitlines()) == 9
        j2 = _journal(tmp_path)
        assert j2.compact() == {"figX": (3, 6)}
        assert j2.paths("figX") == [j2.path("figX", "merged")]
        assert len(j2.path("figX", "merged").read_text().splitlines()) == 3
        for i in range(3):
            hit, val = j2.lookup("figX", (float(i),))
            assert hit and val.tobytes() == _value(i).tobytes()
        j2.close()

    def test_compact_single_figure_and_append_after(self, tmp_path):
        j = _journal(tmp_path)
        _fill(j, n=2, figure="figA")
        _fill(j, n=2, figure="figA")
        _fill(j, n=1, figure="figB")
        j2 = _journal(tmp_path)
        assert j2.compact("figA") == {"figA": (2, 2)}
        # Appending after compaction reopens cleanly.
        j2.record("figA", (9.0,), index=9, value=_value(9))
        j2.close()
        j3 = _journal(tmp_path)
        assert j3.lookup("figA", (9.0,))[0]
        assert j3.lookup("figB", (0.0,))[0]
        j3.close()

    def test_compact_merges_every_writer(self, tmp_path):
        a = _journal(tmp_path, writer="a")
        b = _journal(tmp_path, writer="b")
        _fill(a, n=2)
        _fill(b, n=3)
        j = _journal(tmp_path)
        assert j.compact() == {"figX": (3, 2)}
        assert [p.name for p in j.paths("figX")] == ["figX.merged.seg.jsonl"]
        for i in range(3):
            hit, val = _journal(tmp_path).lookup("figX", (float(i),))
            assert hit and val.tobytes() == _value(i).tobytes()
