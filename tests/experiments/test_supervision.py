"""Sweep supervision: crash/hang/fail drills, checkpoints, resume, Ctrl-C.

Every drill here is deterministic (:class:`SweepFaultPlan` keys faults on
point index and attempt number), so each supervision branch — worker
SIGKILL and pool rebuild, deadline timeout, exception retry, inline
salvage, journal resume, KeyboardInterrupt — has a reproducible test, and
every recovery is asserted *bit-identical* to the unfaulted serial run.
"""

import numpy as np
import pytest

from repro.experiments import executor as executor_module
from repro.experiments.executor import (
    SweepExecutor,
    WorkerFailure,
    pool_worker,
)
from repro.experiments.journal import (
    SweepJournal,
    decode_value,
    encode_value,
    fingerprint_point,
)
from repro.obs import Instrumentation
from repro.resilience.errors import (
    InjectedFaultError,
    NumericalHealthError,
    SweepError,
)
from repro.resilience.faults import SweepFaultPlan, trigger_point_fault
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


def _health_fail(x):
    raise NumericalHealthError("injected health failure", where="test")


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
        assert p.pool_attempts == 2
        assert not p.is_fallback(2)
        assert p.is_fallback(3)
        lone = RetryPolicy(max_attempts=1)
        assert lone.pool_attempts == 1
        assert not lone.is_fallback(1)
        no_inline = RetryPolicy(max_attempts=3, inline_fallback=False)
        assert no_inline.pool_attempts == 3


class TestFaultPlan:
    def test_triggers_key_on_index_and_attempt(self):
        plan = SweepFaultPlan(fail_point=2, fail_attempts=1)
        assert plan.fires("fail", 2, 1)
        assert not plan.fires("fail", 2, 2)
        assert not plan.fires("fail", 1, 1)
        assert not plan.fires("crash", 2, 1)
        always = SweepFaultPlan(crash_point=0, crash_attempts=None)
        assert always.fires("crash", 0, 99)

    def test_inline_crash_degrades_to_exception(self):
        plan = SweepFaultPlan(crash_point=0)
        with pytest.raises(InjectedFaultError) as err:
            trigger_point_fault(plan, 0, 1, inline=True)
        assert err.value.mode == "crash"
        trigger_point_fault(plan, 0, 2, inline=True)  # disarmed: no raise


# ----------------------------------------------------------------------
class TestWorkerEnvelope:
    def test_failure_keeps_telemetry(self):
        # Satellite fix: a raising point must not drop its spans/metrics.
        value, spans, metrics, seconds = pool_worker(_boom, (1.0,), True)
        assert isinstance(value, WorkerFailure)
        assert value.reason == "exception"
        assert spans and spans[0].name == "sweep_point"
        assert metrics is not None
        assert seconds > 0.0

    def test_solver_error_reason_is_preserved(self):
        value, _, _, _ = pool_worker(_health_fail, (1.0,), True)
        assert isinstance(value, WorkerFailure)
        assert value.reason == "numerical-health"
        assert value.kind == "NumericalHealthError"

    def test_unobserved_failure_still_enveloped(self):
        value, spans, metrics, _seconds = pool_worker(_boom, (1.0,), False)
        assert isinstance(value, WorkerFailure)
        assert spans is None and metrics is None


# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_sigkill_crash_is_retried_bit_identically(self):
        ref = _reference()
        ex = SweepExecutor(4, retry=FAST, faults=SweepFaultPlan(crash_point=1))
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        rep = ex.report
        assert rep.complete
        assert rep.points[1].status == "retried"
        assert rep.points[1].failures == ["attempt 1: pool-broken"]
        assert rep.pool_rebuilds >= 1
        assert rep.exit_code() == 1

    def test_crash_every_pool_attempt_salvaged_inline(self):
        ref = _reference()
        ex = SweepExecutor(
            2, retry=FAST,
            faults=SweepFaultPlan(crash_point=0, crash_attempts=None),
        )
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        rep = ex.report
        assert rep.points[0].status == "salvaged"
        assert rep.points[0].attempts == FAST.max_attempts
        assert rep.salvaged == 1 and rep.exit_code() == 1

    def test_rebuild_metrics_and_retry_spans(self):
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            ex = SweepExecutor(2, retry=FAST,
                               faults=SweepFaultPlan(crash_point=1))
            ex.map(_arr, CALLS)
        retries = ins.metrics.counter("repro_point_retries_total")
        assert retries.value(reason="pool-broken") >= 1
        rebuilds = ins.metrics.counter("repro_pool_rebuilds_total")
        assert rebuilds.value(cause="crash") == ex.report.pool_rebuilds
        names = [sp.name for sp in ins.tracer.spans]
        assert "point_retry" in names
        assert ins.tracer.open_spans == 0


class TestTimeoutRecovery:
    def test_hang_times_out_then_pool_retry_succeeds(self):
        ref = _reference()
        ex = SweepExecutor(
            2, timeout=0.5, retry=FAST,
            faults=SweepFaultPlan(hang_point=2, hang_seconds=60.0),
        )
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        rep = ex.report
        assert rep.points[2].status == "retried"
        assert rep.points[2].failures[0] == "attempt 1: timeout"
        assert rep.pool_rebuilds >= 1

    def test_persistent_hang_salvaged_by_inline_fallback(self):
        ref = _reference()
        ex = SweepExecutor(
            2, timeout=0.5,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            faults=SweepFaultPlan(hang_point=0, hang_attempts=None,
                                  hang_seconds=60.0),
        )
        out = ex.map(_arr, CALLS)
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)
        assert ex.report.points[0].status == "salvaged"
        assert ex.report.exit_code() == 1


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
    def test_ctrl_c_flushes_journal_and_marks_report(self, tmp_path,
                                                     monkeypatch):
        real_wait = executor_module._wait
        state = {"calls": 0}

        def interrupting_wait(fs, timeout=None, return_when=None):
            state["calls"] += 1
            if state["calls"] >= 2:
                raise KeyboardInterrupt
            return real_wait(fs, timeout=timeout, return_when=return_when)

        monkeypatch.setattr(executor_module, "_wait", interrupting_wait)
        with SweepJournal(tmp_path) as j:
            ex = SweepExecutor(2, journal=j)
            with pytest.raises(KeyboardInterrupt):
                ex.map(_arr, CALLS, label="figC")
        rep = ex.report
        assert rep.interrupted and not rep.complete
        assert rep.exit_code() == 2
        assert "INTERRUPTED" in rep.summary()
        # every point collected before the interrupt is on disk
        done = {p.index for p in rep.points if p.status == "ok"}
        assert len(done) >= 1
        with SweepJournal(tmp_path) as j2:
            for i in done:
                hit, value = j2.lookup("figC", CALLS[i])
                assert hit and np.array_equal(value, _arr(*CALLS[i]))

    def test_interrupted_run_is_resumable(self, tmp_path, monkeypatch):
        real_wait = executor_module._wait
        state = {"calls": 0}

        def interrupting_wait(fs, timeout=None, return_when=None):
            state["calls"] += 1
            if state["calls"] >= 2:
                raise KeyboardInterrupt
            return real_wait(fs, timeout=timeout, return_when=return_when)

        monkeypatch.setattr(executor_module, "_wait", interrupting_wait)
        with SweepJournal(tmp_path) as j:
            with pytest.raises(KeyboardInterrupt):
                SweepExecutor(2, journal=j).map(_arr, CALLS, label="figR")
        monkeypatch.setattr(executor_module, "_wait", real_wait)
        with SweepJournal(tmp_path) as j2:
            ex = SweepExecutor(1, journal=j2, resume=True)
            out = ex.map(_arr, CALLS, label="figR")
        assert ex.report.resumed >= 1
        for a, b in zip(_reference(), out):
            assert np.array_equal(a, b)
