"""Distributed shard protocol: leases, stealing, merging, drills.

The correctness contract under test: **any** interleaving of worker
deaths, lease steals, duplicate claims and torn segment writes yields a
merged result bit-identical to a serial run — duplicates are benign
because values are deterministic and the merge is last-record-wins by
fingerprint.  Liveness: a point claimed by a dead worker is stolen after
its lease TTL; a sweep whose every remaining point failed on every live
worker raises :class:`SweepError` instead of spinning.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.journal import (
    SweepJournal,
    fingerprint_point,
    load_records_text,
    make_record,
    record_line,
)
from repro.experiments.shard import (
    LEASE_SCHEMA,
    Lease,
    ShardExecutor,
    ShardNamespace,
    default_worker_id,
)
from repro.resilience.errors import LeaseError, ShardError, SweepError
from repro.resilience.faults import SweepFaultPlan
from repro.resilience.retry import RetryPolicy

FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02)
CALLS = [(float(i),) for i in range(6)]


def _arr(x):
    return np.arange(5, dtype=float) * x + 0.125


def _reference():
    return [_arr(*args) for args in CALLS]


def _worker(tmp_path, wid, **kw):
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("poll", 0.02)
    kw.setdefault("retry", FAST)
    kw.setdefault("version", "test")
    return ShardExecutor(tmp_path / "ns", worker_id=wid, **kw)


def _assert_bit_identical(results):
    for got, want in zip(results, _reference()):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Namespace invariants
class TestNamespace:
    def test_creates_layout_and_manifest(self, tmp_path):
        ns = ShardNamespace(tmp_path / "ns", version="test")
        for sub in ("leases", "graves", "segments", "quarantine"):
            assert (tmp_path / "ns" / sub).is_dir()
        manifest = json.loads((tmp_path / "ns" / "shard.json").read_text())
        assert manifest["schema"] == "repro-shard/1"
        assert manifest["version"] == "test"
        # Idempotent re-open with the same version.
        ShardNamespace(tmp_path / "ns", version="test")
        assert ns.version == "test"

    def test_version_mismatch_is_rejected(self, tmp_path):
        ShardNamespace(tmp_path / "ns", version="a")
        with pytest.raises(ShardError, match="version"):
            ShardNamespace(tmp_path / "ns", version="b")

    def test_foreign_manifest_is_rejected(self, tmp_path):
        (tmp_path / "ns").mkdir()
        (tmp_path / "ns" / "shard.json").write_text('{"schema": "other/1"}')
        with pytest.raises(ShardError, match="not a shard manifest"):
            ShardNamespace(tmp_path / "ns", version="test")

    def test_worker_id_sanitized(self, tmp_path):
        w = ShardExecutor(tmp_path / "ns", worker_id="host.with/dots:8",
                          version="test")
        assert w.worker_id == "host-with-dots-8"
        w.close()
        assert "-" in default_worker_id()


# ----------------------------------------------------------------------
# Lease protocol
class TestLeases:
    def test_fresh_claim_is_exclusive(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        w2 = _worker(tmp_path, "w2")
        fp = "a" * 64
        lease = w1.try_claim("figX", fp, 0)
        assert lease is not None and lease.generation == 1
        assert w2.try_claim("figX", fp, 0) is None  # live lease: hands off
        w1.release(lease)
        assert w2.try_claim("figX", fp, 0) is not None  # released: claimable
        w1.close(), w2.close()

    def test_expired_lease_is_stolen_with_bumped_generation(self, tmp_path):
        w1 = _worker(tmp_path, "w1", lease_ttl=0.05)
        w2 = _worker(tmp_path, "w2", lease_ttl=5.0)
        fp = "b" * 64
        lease = w1.try_claim("figX", fp, 0)
        assert lease is not None
        time.sleep(0.1)  # past w1's TTL
        stolen = w2.try_claim("figX", fp, 0)
        assert stolen is not None
        assert stolen.generation == 2
        assert stolen.owner == "w2"
        # The grave preserves the stolen lease for forensics.
        assert list(w2.ns.graves.glob("figX.*")), "steal must leave a grave"
        w1.close(), w2.close()

    def test_renew_extends_and_detects_theft(self, tmp_path):
        w1 = _worker(tmp_path, "w1", lease_ttl=0.05)
        w2 = _worker(tmp_path, "w2", lease_ttl=5.0)
        fp = "c" * 64
        lease = w1.try_claim("figX", fp, 0)
        old_deadline = lease.deadline
        time.sleep(0.01)
        assert w1.renew(lease)
        assert lease.deadline > old_deadline
        time.sleep(0.1)
        assert w2.try_claim("figX", fp, 0) is not None  # stolen
        assert not w1.renew(lease)  # renewal notices and never clobbers
        assert lease.lost
        w1.close(), w2.close()

    def test_concurrent_renewals_never_lose_their_temp_file(
        self, tmp_path, monkeypatch
    ):
        """The heartbeat renews while the map thread renews the same lease.

        Forced interleaving: the map thread's renewal has written its temp
        file and is about to ``os.replace`` it when a heartbeat renewal
        runs to completion.  Sharing one temp path, the first replace
        would find its file already moved (``FileNotFoundError``).
        """
        import threading

        import repro.experiments.shard as shard_mod

        w1 = _worker(tmp_path, "w1")
        lease = w1.try_claim("figX", "f" * 64, 0)
        real_replace = os.replace
        beats: list[bool] = []
        fired = threading.Event()

        def replace_after_heartbeat(src, dst):
            if not fired.is_set():
                fired.set()
                hb = threading.Thread(
                    target=lambda: beats.append(w1.renew(lease, observe=False))
                )
                hb.start()
                hb.join(30.0)
                assert not hb.is_alive()
            return real_replace(src, dst)

        monkeypatch.setattr(shard_mod.os, "replace", replace_after_heartbeat)
        assert w1.renew(lease)
        assert beats == [True]
        assert not lease.lost
        assert not list(w1.ns.lease_path("figX", "f" * 64).parent.glob(
            "*.renew.*")), "no temp file may be left behind"
        w1.close()

    def test_release_never_unlinks_a_thiefs_lease(self, tmp_path):
        w1 = _worker(tmp_path, "w1", lease_ttl=0.05)
        w2 = _worker(tmp_path, "w2", lease_ttl=5.0)
        fp = "d" * 64
        lease = w1.try_claim("figX", fp, 0)
        time.sleep(0.1)
        stolen = w2.try_claim("figX", fp, 0)
        assert stolen is not None
        w1.release(lease)  # stale owner: must be a no-op
        assert w1.ns.lease_path("figX", fp).exists()
        w1.close(), w2.close()

    def test_torn_empty_lease_file_is_claimable(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        w1.ns.lease_path("figX", "e" * 64).write_text("")
        assert w1.try_claim("figX", "e" * 64, 0) is not None
        w1.close()

    def test_garbage_lease_raises_lease_error(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        w1.ns.lease_path("figX", "f" * 64).write_text("not json at all")
        with pytest.raises(LeaseError):
            w1._peek_lease("figX", "f" * 64)
        w1.close()

    def test_lease_roundtrip(self):
        lease = Lease(figure="figX", fp="a" * 64, index=3, owner="w1",
                      generation=2, deadline=123.5)
        back = Lease.from_json(lease.to_json())
        assert back == lease
        with pytest.raises(LeaseError, match="foreign"):
            Lease.from_json('{"schema": "nope/1"}')
        assert LEASE_SCHEMA in lease.to_json()


# ----------------------------------------------------------------------
# Cooperative sweeps
class TestCooperativeSweep:
    def test_single_worker_sweeps_and_reports_ok(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        results = w1.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        rep = w1.report
        assert rep.complete and rep.ok == 6 and rep.exit_code() == 0
        assert all(p.owner == "w1" and p.generation == 1 for p in rep.points)
        w1.close()

    def test_second_worker_resumes_bit_identically(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        first = w1.map(_arr, CALLS, label="figX")
        w1.close()
        w2 = _worker(tmp_path, "w2")
        second = w2.map(_arr, CALLS, label="figX")
        _assert_bit_identical(first)
        _assert_bit_identical(second)
        assert w2.report.resumed == 6 and w2.report.exit_code() == 0
        w2.close()

    def test_peer_records_resolve_points_midrun(self, tmp_path):
        # w2 starts with half the records present: those resolve as
        # "resumed"; anything a peer writes *during* the run is "peer"
        # (exercised through the live-lease wait path in the kill drill).
        w1 = _worker(tmp_path, "w1")
        w1.map(_arr, CALLS[:3], label="figX")
        w1.close()
        w2 = _worker(tmp_path, "w2")
        w2.map(_arr, CALLS, label="figX")
        assert w2.report.resumed == 3 and w2.report.ok == 3
        w2.close()

    def test_failed_everywhere_raises_sweep_error(self, tmp_path):
        w1 = _worker(tmp_path, "w1",
                     faults=SweepFaultPlan(fail_point=2, fail_attempts=None),
                     retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                       max_delay=0.01, inline_fallback=False))
        with pytest.raises(SweepError) as err:
            w1.map(_arr, CALLS, label="figX")
        assert err.value.report.failed == 1
        assert err.value.report.exit_code() == 2
        # Completed points are nevertheless persisted for the next worker.
        w2 = _worker(tmp_path, "w2")
        results = w2.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        w1.close(), w2.close()

    def test_point_level_retry_drill_still_bit_identical(self, tmp_path):
        w1 = _worker(tmp_path, "w1", faults=SweepFaultPlan(fail_point=1))
        results = w1.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        assert w1.report.retried == 1 and w1.report.exit_code() == 1
        w1.close()

    def test_inline_fallback_salvage_is_counted(self, tmp_path):
        # The fallback attempt never fires the drill, so a point failing
        # every other attempt is salvaged — and counted like the serial
        # and pool runtimes count it.
        from repro.obs.instrument import Instrumentation

        w1 = _worker(tmp_path, "w1",
                     faults=SweepFaultPlan(fail_point=1, fail_attempts=None))
        ins = Instrumentation.enabled()
        with ins.activate():
            results = w1.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        assert w1.report.points[1].status == "salvaged"
        assert w1.report.points[1].attempts == 3
        assert w1.report.salvaged == 1 and w1.report.exit_code() == 1
        salvaged = ins.metrics.counter("repro_points_salvaged_total")
        assert salvaged.value() == 1
        w1.close()


# ----------------------------------------------------------------------
# Shard fault drills (the failure matrix)
class TestShardDrills:
    def test_duplicate_claim_race_is_benign(self, tmp_path):
        # w1 computes with NO leases at all (worst-case duplicate claims)
        # while w2 sweeps normally afterwards: the merge must contain one
        # record per fingerprint and both workers agree bit-exactly.
        w1 = _worker(tmp_path, "w1",
                     faults=SweepFaultPlan(duplicate_claim=True))
        r1 = w1.map(_arr, CALLS, label="figX")
        w2 = _worker(tmp_path, "w2")
        r2 = w2.map(_arr, CALLS, label="figX")
        _assert_bit_identical(r1)
        _assert_bit_identical(r2)
        merged = w2.store.records("figX")
        assert len(merged) == 6
        assert not list(w1.ns.leases.glob("*")), "phantom claims hold no files"
        w1.close(), w2.close()

    def test_stale_heartbeat_lets_peer_steal_yet_stays_exact(self, tmp_path):
        # w1 claims its first point, stops heartbeating and stalls past
        # the TTL; w2 steals and completes the sweep.  w1 then finishes
        # its stalled point late — a duplicate, absorbed by the merge.
        w1 = _worker(tmp_path, "w1", lease_ttl=0.2,
                     faults=SweepFaultPlan(stall_heartbeat_after=1,
                                           stall_seconds=0.5))
        w2 = _worker(tmp_path, "w2", lease_ttl=0.2)

        import threading
        r1_box, err_box = [], []

        def run_w1():
            try:
                r1_box.append(w1.map(_arr, CALLS, label="figX"))
            except BaseException as exc:  # pragma: no cover - surfaced below
                err_box.append(exc)

        t = threading.Thread(target=run_w1)
        t.start()
        time.sleep(0.35)  # let w1 claim + stall + expire
        r2 = w2.map(_arr, CALLS, label="figX")
        t.join(timeout=30)
        assert not t.is_alive() and not err_box, err_box
        _assert_bit_identical(r1_box[0])
        _assert_bit_identical(r2)
        assert w2.report.stolen >= 1
        w1.close(), w2.close()

    def test_torn_segment_is_quarantined_not_trusted(self, tmp_path):
        w1 = _worker(tmp_path, "w1",
                     faults=SweepFaultPlan(tear_segment=True))
        r1 = w1.map(_arr, CALLS, label="figX")
        _assert_bit_identical(r1)
        w2 = _worker(tmp_path, "w2")
        r2 = w2.map(_arr, CALLS, label="figX")
        _assert_bit_identical(r2)
        assert w2.report.resumed == 6
        qpath = w2.store.quarantine_path()
        assert qpath.name == "w2.quarantine.jsonl"
        assert qpath.exists(), "merge must quarantine the torn lines"
        entries = [json.loads(l) for l in qpath.read_text().splitlines()]
        assert all(e["why"] == "unparsable" for e in entries)
        # Each torn line is quarantined exactly once per reader.
        assert sorted(e["line"] for e in entries) == [2, 4, 6, 8, 10, 12]
        w1.close(), w2.close()

    def test_sigkill_mid_lease_then_survivor_steals(self, tmp_path):
        # Real SIGKILL in a subprocess: the doomed worker dies holding a
        # lease; the survivor must steal it and reproduce the serial
        # sweep bit-for-bit (hash-compared via tobytes).
        ns = tmp_path / "ns"
        code = (
            "import sys, numpy as np\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.experiments.shard import ShardExecutor\n"
            "from repro.resilience.faults import SweepFaultPlan\n"
            "def _arr(x):\n"
            "    return np.arange(5, dtype=float) * x + 0.125\n"
            "CALLS = [(float(i),) for i in range(6)]\n"
            "ex = ShardExecutor({ns!r}, worker_id='doomed', lease_ttl=0.5,\n"
            "                   poll=0.02, version='test',\n"
            "                   faults=SweepFaultPlan(die_after_claims=1))\n"
            "ex.map(_arr, CALLS, label='figX')\n"
        ).format(src=str(_SRC), ns=str(ns))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, timeout=120)
        assert proc.returncode == -9, proc.stderr.decode()

        survivor = _worker(tmp_path, "survivor", lease_ttl=0.5, poll=0.05)
        results = survivor.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        rep = survivor.report
        assert rep.stolen == 1 and rep.complete and rep.exit_code() == 1
        stolen = [p for p in rep.points if p.status == "stolen"]
        assert stolen[0].owner == "survivor" and stolen[0].generation == 2
        # No duplicate, missing, or corrupted point in the merged view.
        merged = survivor.store.records("figX")
        assert len(merged) == len(CALLS)
        assert sorted(r["index"] for r in merged.values()) == list(range(6))
        survivor.close()


_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
_SRC = os.path.abspath(_SRC)


# ----------------------------------------------------------------------
# Ctrl-C during a multi-worker run (satellite: interrupted worker lets
# go of its leases; a survivor finishes; merged result is bit-exact).
class TestInterrupt:
    def test_interrupted_worker_releases_and_survivor_finishes(self, tmp_path):
        interrupted = _worker(tmp_path, "interrupted")

        calls_done = []
        real = _arr

        def point(x):
            if len(calls_done) == 2:
                raise KeyboardInterrupt
            calls_done.append(x)
            return real(x)

        point.__name__ = "_arr"  # same figure label and fingerprints
        with pytest.raises(KeyboardInterrupt):
            interrupted.map(point, CALLS, label="figX")
        assert interrupted.report.interrupted
        interrupted.close()
        # Every lease was released (or would expire); none linger here.
        assert not list(interrupted.ns.leases.glob("figX.*")), (
            "Ctrl-C must not leave stale leases behind"
        )

        survivor = _worker(tmp_path, "survivor")
        results = survivor.map(_arr, CALLS, label="figX")
        _assert_bit_identical(results)
        assert survivor.report.complete
        assert survivor.report.resumed == len(calls_done)
        survivor.close()


# ----------------------------------------------------------------------
# Segment merging and gc
class TestMergeAndGC:
    def test_merge_is_last_record_wins_across_segments(self, tmp_path):
        ns = ShardNamespace(tmp_path / "ns", version="test")
        rec_a = make_record("figX", (1.0,), version="test", index=0,
                            value=_arr(1.0), owner="a", generation=1)
        rec_b = make_record("figX", (1.0,), version="test", index=0,
                            value=_arr(1.0), owner="b", generation=2)
        ns.store.path("figX", "a").write_text(record_line(rec_a) + "\n")
        ns.store.path("figX", "b").write_text(record_line(rec_b) + "\n")
        w = _worker(tmp_path, "w1")
        merged = w.store.records("figX")
        assert len(merged) == 1
        fp = fingerprint_point("figX", (1.0,), "test")
        assert merged[fp]["owner"] in ("a", "b")  # identical values anyway
        w.close()

    def test_incremental_tail_skips_unterminated_line(self, tmp_path):
        ns = ShardNamespace(tmp_path / "ns", version="test")
        rec = make_record("figX", (1.0,), version="test", index=0,
                          value=_arr(1.0))
        seg = ns.store.path("figX", "a")
        seg.write_text(record_line(rec) + "\n" + '{"half')
        w = _worker(tmp_path, "w1")
        assert len(w.store.records("figX")) == 1  # torn tail stays invisible
        # Completing the line makes the second record appear.
        rec2 = make_record("figX", (2.0,), version="test", index=1,
                           value=_arr(2.0))
        with seg.open("a") as fh:
            fh.write('-torn"}\n' + record_line(rec2) + "\n")
        assert len(w.store.records("figX")) == 2
        w.close()

    def test_gc_compacts_to_one_segment_and_drops_leases(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        w1.map(_arr, CALLS, label="figX")
        w1.close()
        # A stale lease and grave linger from some dead worker.
        w1.ns.lease_path("figX", "0" * 64).write_text(
            Lease(figure="figX", fp="0" * 64, index=9, owner="dead",
                  generation=1, deadline=0.0).to_json())
        (w1.ns.graves / "figX.junk.json").write_text("{}")
        assert w1.ns.gc() == {"figX": (6, 0)}
        segs = w1.ns.store.paths("figX")
        assert [p.name for p in segs] == ["figX.merged.seg.jsonl"]
        assert not list(w1.ns.graves.glob("figX.*"))
        # The compacted namespace still resumes bit-identically.
        w2 = _worker(tmp_path, "w2")
        _assert_bit_identical(w2.map(_arr, CALLS, label="figX"))
        assert w2.report.resumed == 6
        w2.close()

    def _gc_corrupted(self, tmp_path, corrupt):
        """Sweep, corrupt line 3 of the segment, gc; returns the
        quarantine entries and checks the merged file holds the rest."""
        w1 = _worker(tmp_path, "w1")
        w1.map(_arr, CALLS, label="figX")
        w1.close()
        seg = w1.store.path("figX")
        lines = seg.read_bytes().splitlines(keepends=True)
        bad = json.loads(lines[2])["index"]
        lines[2] = corrupt(lines[2])
        seg.write_bytes(b"".join(lines))
        assert w1.ns.gc() == {"figX": (5, 1)}
        merged = SweepJournal(w1.ns.root, version="test")
        assert [p.name for p in merged.paths("figX")] == [
            "figX.merged.seg.jsonl"]
        for i, args in enumerate(CALLS):
            hit, val = merged.lookup("figX", args)
            assert hit == (i != bad)
            if hit:
                assert val.tobytes() == _arr(*args).tobytes()
        return [json.loads(l) for l in
                w1.ns.store.quarantine_path().read_text().splitlines()]

    def test_gc_quarantines_a_crc_mismatch_before_deleting(self, tmp_path):
        def bit_rot(line):
            rec = json.loads(line)
            rec["index"] = 99  # valid JSON, CRC no longer matches
            return json.dumps(rec, separators=(",", ":")).encode() + b"\n"

        (entry,) = self._gc_corrupted(tmp_path, bit_rot)
        assert entry["why"] == "crc-mismatch"
        assert entry["line"] == 3
        assert json.loads(entry["raw"])["index"] == 99

    def test_gc_survives_a_non_utf8_byte(self, tmp_path):
        (entry,) = self._gc_corrupted(
            tmp_path, lambda line: line[:10] + b"\xff" + line[11:])
        assert entry["why"] == "unparsable"

    def test_records_carry_crc_and_provenance(self, tmp_path):
        w1 = _worker(tmp_path, "w1")
        w1.map(_arr, CALLS[:1], label="figX")
        w1.close()
        seg = w1.store.path("figX")
        records = load_records_text(seg.read_text())
        (rec,) = records.values()
        assert rec["owner"] == "w1" and rec["generation"] == 1
        assert "crc" in rec
