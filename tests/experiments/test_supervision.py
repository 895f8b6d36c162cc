"""Sweep supervision: helper-kill/hang/fail drills, checkpoints, resume, Ctrl-C.

Every drill here is deterministic (:class:`SweepFaultPlan` keys point
faults on point index and attempt number, claim faults on a worker's
claim count), so each supervision branch — helper SIGKILL and lease
steal, deadline timeout, exception retry, fallback salvage, journal
resume, KeyboardInterrupt — has a reproducible test, and every recovery
is asserted *bit-identical* to the unfaulted serial run.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.experiments.executor import PointOutcome, SweepExecutor, run_attempts
from repro.experiments.journal import (
    SweepJournal,
    decode_value,
    encode_value,
    fingerprint_point,
)
from repro.experiments.shard import ShardExecutor
from repro.obs import Instrumentation
from repro.resilience.errors import SweepError
from repro.resilience.faults import SweepFaultPlan
from repro.resilience.retry import RetryPolicy

#: Fast, deterministic retry schedule for drills.
FAST = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02)


def _arr(x):
    """Cheap picklable point function with an array result."""
    return np.arange(5, dtype=float) * x + 0.125


def _tick(x, path):
    """Point function that logs each invocation (counts re-runs)."""
    with open(path, "a") as fh:
        fh.write(f"{x}\n")
    return _arr(x)


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _interrupt_after(n, path):
    """Point function raising ``KeyboardInterrupt`` in whichever worker
    runs the ``n``-th point overall (``path`` counts across processes)."""
    def point(x):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b".")
        os.close(fd)
        if os.path.getsize(path) > n:
            raise KeyboardInterrupt
        return _arr(x)

    point.__name__ = "_arr"
    return point


def _no_helpers_left():
    """True once every forked helper of this process has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


CALLS = [(float(i),) for i in range(6)]


def _reference():
    return SweepExecutor(1).map(_arr, CALLS)


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                        max_delay=0.5, jitter=0.0)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(4) == pytest.approx(0.5)  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=0.1, jitter=0.25)
        for index in range(20):
            for attempt in (1, 2):
                d1 = p.delay(attempt, index)
                d2 = p.delay(attempt, index)
                assert d1 == d2  # same (index, attempt) -> same delay
                raw = p.base_delay * p.multiplier ** (attempt - 1)
                assert raw <= d1 <= raw * 1.25 + 1e-12
        # different points spread out (not all identical)
        delays = {p.delay(1, i) for i in range(20)}
        assert len(delays) > 1

    def test_fallback_accounting(self):
        p = RetryPolicy(max_attempts=3)
        assert not p.is_fallback(2)
        assert p.is_fallback(3)
        lone = RetryPolicy(max_attempts=1)
        assert not lone.is_fallback(1)
        no_fallback = RetryPolicy(max_attempts=3, inline_fallback=False)
        assert not no_fallback.is_fallback(3)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


class TestFaultPlan:
    def test_triggers_key_on_index_and_attempt(self):
        plan = SweepFaultPlan(fail_point=2, fail_attempts=1)
        assert plan.fires("fail", 2, 1)
        assert not plan.fires("fail", 2, 2)
        assert not plan.fires("fail", 1, 1)
        assert not plan.fires("hang", 2, 1)
        always = SweepFaultPlan(hang_point=0, hang_attempts=None)
        assert always.fires("hang", 0, 99)
        drill = SweepFaultPlan(fail_point=1, die_after_claims=1)
        assert drill.point_faults() == SweepFaultPlan(fail_point=1)


# ----------------------------------------------------------------------
class TestCrashRecovery:
    """A helper SIGKILLed holding a lease: the survivor steals the point."""

    def test_helper_sigkill_is_stolen_bit_identically(self, tmp_path):
        ref = _reference()
        ex = ShardExecutor(tmp_path / "ns", jobs=2, lease_ttl=0.5,
                           poll=0.02, retry=FAST,
                           faults=SweepFaultPlan(die_after_claims=1))
        with ex:
            out = ex.map(_arr, CALLS, label="figK")
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        rep = ex.report
        assert rep.complete
        assert rep.stolen == 1 and rep.peer == 0
        (stolen,) = [p for p in rep.points if p.status == "stolen"]
        assert stolen.owner == ex.worker_id and stolen.generation == 2
        assert rep.exit_code() == 1
        assert _no_helpers_left()

    def test_steal_metrics_and_spans(self, tmp_path):
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            with ShardExecutor(tmp_path / "ns", jobs=2, lease_ttl=0.5,
                               poll=0.02, retry=FAST,
                               faults=SweepFaultPlan(die_after_claims=1)) as ex:
                ex.map(_arr, CALLS, label="figK")
        assert ins.metrics.counter("repro_points_stolen_total").value() == 1
        points = ins.metrics.counter("repro_sweep_points_total")
        assert points.value(mode="shard") == len(CALLS)
        names = [sp.name for sp in ins.tracer.spans]
        assert names.count("sweep_point") == len(CALLS)
        assert ins.tracer.open_spans == 0


class TestTimeoutRecovery:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hang_times_out_then_retry_succeeds(self, jobs):
        ref = _reference()
        ex = SweepExecutor(
            jobs, retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                    max_delay=0.02, timeout=0.5),
            faults=SweepFaultPlan(hang_point=2, hang_seconds=60.0),
        )
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        rep = ex.report
        assert rep.points[2].status == "retried"
        assert rep.points[2].failures[0] == "attempt 1: timeout"
        assert rep.exit_code() == 1

    def test_persistent_hang_salvaged_by_inline_fallback(self):
        ref = _reference()
        ex = SweepExecutor(
            2, retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                 timeout=0.5),
            faults=SweepFaultPlan(hang_point=0, hang_attempts=None,
                                  hang_seconds=60.0),
        )
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        assert ex.report.points[0].status == "salvaged"
        assert ex.report.points[0].failures == ["attempt 1: timeout"]
        assert ex.report.exit_code() == 1

    def test_deadline_restores_the_alarm_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        ok, value = run_attempts(_arr, (1.0,), PointOutcome(index=0),
                                 RetryPolicy(timeout=5.0), None, mode="inline")
        assert ok and np.array_equal(value, _arr(1.0))
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_deadline_off_the_main_thread_is_refused(self):
        errors = []

        def run():
            try:
                run_attempts(_arr, (1.0,), PointOutcome(index=0),
                             RetryPolicy(timeout=5.0), None, mode="inline")
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert errors and "main thread" in str(errors[0])


class TestFailureAndDeterminism:
    def test_fail_drill_identical_serial_vs_pooled(self):
        plan = SweepFaultPlan(fail_point=2, fail_attempts=1)
        serial = SweepExecutor(1, retry=FAST, faults=plan)
        pooled = SweepExecutor(4, retry=FAST, faults=plan)
        a = serial.map(_arr, CALLS)
        b = pooled.map(_arr, CALLS)
        ref = _reference()
        for r, x, y in zip(ref, a, b):
            assert np.array_equal(r, x)
            assert np.array_equal(r, y)
        assert serial.report.points[2].status == "retried"
        assert pooled.report.points[2].status == "retried"
        assert serial.report.points[2].failures == \
            pooled.report.points[2].failures == ["attempt 1: injected-fault"]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_unrecoverable_point_raises_sweep_error(self, jobs):
        ex = SweepExecutor(jobs, retry=RetryPolicy(max_attempts=2,
                                                   base_delay=0.0))
        with pytest.raises(SweepError) as err:
            ex.map(_boom, CALLS, label="doomed")
        rep = err.value.report
        assert rep is ex.report
        assert rep.failed == len(CALLS)
        assert rep.exit_code() == 2
        assert err.value.context()["failed_points"] == list(range(len(CALLS)))

    def test_clean_run_report_and_exit_code(self):
        ex = SweepExecutor(1)
        ex.map(_arr, CALLS, label="clean")
        rep = ex.report
        assert rep.ok == len(CALLS) and rep.complete
        assert rep.exit_code() == 0
        assert rep.detail_lines() == []
        assert "sweep clean:" in rep.summary()


# ----------------------------------------------------------------------
class TestJournalCodec:
    def test_value_round_trip_is_bit_exact(self):
        arr = np.array([0.1, -1.0 / 3.0, np.pi, np.inf, np.nan])
        out = decode_value(encode_value(arr))
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(
            arr.view(np.uint64), out.view(np.uint64)
        )  # NaN payloads included
        nested = (1, 0.1, "x", None, True, [arr, (2.5,)])
        back = decode_value(encode_value(nested))
        assert back[0] == 1 and back[1] == 0.1 and back[2] == "x"
        assert back[3] is None and back[4] is True
        assert np.array_equal(back[5][0], arr, equal_nan=True)
        assert back[5][1] == (2.5,)

    def test_fingerprint_stable_and_sensitive(self):
        from repro.distributions import Shape

        args = (3, 0.5, Shape.scv(10.0))
        fp = fingerprint_point("fig03", args, "1.0.0")
        assert fp == fingerprint_point("fig03", args, "1.0.0")
        assert fp != fingerprint_point("fig04", args, "1.0.0")
        assert fp != fingerprint_point("fig03", args, "1.0.1")
        assert fp != fingerprint_point("fig03", (3, 0.25, Shape.scv(10.0)),
                                       "1.0.0")


class TestCheckpointResume:
    def test_resume_skips_finished_points_bit_identically(self, tmp_path):
        ref = _reference()
        log = tmp_path / "calls.log"
        calls = [(float(i), str(log)) for i in range(6)]

        # A "killed" first run: only the first 3 points completed.
        with SweepJournal(tmp_path / "ckpt") as j1:
            SweepExecutor(1, journal=j1).map(_tick, calls[:3], label="figX")
        assert log.read_text().splitlines() == ["0.0", "1.0", "2.0"]

        log.write_text("")
        with SweepJournal(tmp_path / "ckpt") as j2:
            ex = SweepExecutor(1, journal=j2, resume=True)
            out = ex.map(_tick, calls, label="figX")
        # only the unfinished points re-ran ...
        assert log.read_text().splitlines() == ["3.0", "4.0", "5.0"]
        rep = ex.report
        assert rep.resumed == 3 and rep.ok == 3 and rep.exit_code() == 0
        # ... and the assembled sweep is bit-identical to uninterrupted.
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)

    def test_resume_tolerates_torn_tail_write(self, tmp_path):
        with SweepJournal(tmp_path) as j:
            SweepExecutor(1, journal=j).map(_arr, CALLS[:2], label="figY")
            path = j.path("figY")
        with open(path, "a") as fh:
            fh.write('{"schema":"repro-sweep-journal/1","fp":"dead')  # torn
        with SweepJournal(tmp_path) as j2:
            ex = SweepExecutor(1, journal=j2, resume=True)
            out = ex.map(_arr, CALLS, label="figY")
        assert ex.report.resumed == 2
        for a, b in zip(_reference(), out):
            assert np.array_equal(a, b)

    def test_journal_version_mismatch_forces_recompute(self, tmp_path):
        with SweepJournal(tmp_path, version="1") as j:
            SweepExecutor(1, journal=j).map(_arr, CALLS, label="figZ")
        with SweepJournal(tmp_path, version="2") as j2:
            ex = SweepExecutor(1, journal=j2, resume=True)
            ex.map(_arr, CALLS, label="figZ")
        assert ex.report.resumed == 0 and ex.report.ok == len(CALLS)

    def test_failed_points_are_not_journaled(self, tmp_path):
        plan = SweepFaultPlan(fail_point=1, fail_attempts=None)
        with SweepJournal(tmp_path) as j:
            ex = SweepExecutor(
                1, journal=j,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0,
                                  inline_fallback=False),
                faults=plan,
            )
            with pytest.raises(SweepError):
                ex.map(_arr, CALLS, label="figW")
        with SweepJournal(tmp_path) as j2:
            ex2 = SweepExecutor(1, journal=j2, resume=True, retry=FAST)
            out = ex2.map(_arr, CALLS, label="figW")
        # resume recovers the 5 journaled points, recomputes the failure
        assert ex2.report.resumed == len(CALLS) - 1
        for a, b in zip(_reference(), out):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
class TestInterrupt:
    def test_ctrl_c_flushes_journal_and_marks_report(self, tmp_path):
        point = _interrupt_after(3, str(tmp_path / "count"))
        with SweepJournal(tmp_path / "ckpt") as j:
            ex = SweepExecutor(2, journal=j)
            with pytest.raises(KeyboardInterrupt):
                ex.map(point, CALLS, label="figC")
        assert _no_helpers_left()
        rep = ex.report
        assert rep.interrupted and not rep.complete
        assert rep.exit_code() == 2
        assert "INTERRUPTED" in rep.summary()
        # every point this process finished before the interrupt is on disk
        done = {p.index for p in rep.points if p.status in ("ok", "peer")}
        assert len(done) >= 1
        with SweepJournal(tmp_path / "ckpt") as j2:
            for i in done:
                hit, value = j2.lookup("figC", CALLS[i])
                assert hit and np.array_equal(value, _arr(*CALLS[i]))
        assert not list((tmp_path / "ckpt" / "leases").glob("figC.*"))

    def test_interrupted_run_is_resumable(self, tmp_path):
        point = _interrupt_after(3, str(tmp_path / "count"))
        with SweepJournal(tmp_path / "ckpt") as j:
            with pytest.raises(KeyboardInterrupt):
                SweepExecutor(2, journal=j).map(point, CALLS, label="figR")
        with SweepJournal(tmp_path / "ckpt") as j2:
            ex = SweepExecutor(1, journal=j2, resume=True)
            out = ex.map(_arr, CALLS, label="figR")
        assert ex.report.resumed >= 1
        for a, b in zip(_reference(), out):
            assert np.array_equal(a, b)
