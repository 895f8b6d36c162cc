"""``repro serve``: an asyncio HTTP front-end over the solver service.

Stdlib only — ``asyncio.start_server`` plus a deliberately small
HTTP/1.1 subset with **keep-alive** (bounded requests per connection,
bounded idle between them; ``Connection: close`` honored either way).
Endpoints:

* ``POST /solve`` — body ``{"spec": {...}, "K": 8, "N": 60,
  "metric": "makespan", "deadline": 5.0, "robust": false}``.  ``spec``
  is the JSON wire format of :mod:`repro.network.serialize`.  The model
  chooses its own epoch engine: a body that still carries the removed
  ``propagation`` field is a ``400`` naming it, never silently solved
  by another engine.  The response carries the answer
  twice: ``value`` in the journal's bit-exact codec
  (:func:`repro.experiments.journal.encode_value` — floats as IEEE-754
  hex, arrays as base64) for byte-faithful comparison, and ``display``
  as plain JSON numbers for humans.
* ``POST /solve_many`` — ``{"queries": [<solve bodies>], "deadline": s}``;
  answers come back in request order, deduped and grouped per model by
  :meth:`~repro.serve.service.SolverService.solve_many`.
* ``GET /status`` — cache stats, request counters, uptime, admission/
  overload stats, and (when the daemon was started with ``--shard-dir``)
  the live fleet document.
* ``GET /healthz`` — liveness: ``200`` whenever the process can answer.
* ``GET /readyz`` — readiness: ``200`` while accepting work, ``503``
  once draining (SIGTERM received).
* ``GET /metrics`` — Prometheus text exposition of the daemon's
  registry (``repro_requests_total``, ``repro_admission_*``, cache and
  solver counters).
* ``POST /drill`` — swap the armed :class:`~repro.resilience.faults.
  ServeFaultPlan` at runtime (``{"faults": "slow-solve@0.3"}``); only
  routed when the daemon was started with ``--drill-endpoint``.

**Overload control** (docs/ROBUSTNESS.md "Overload and admission
control"): every solve passes an :class:`~repro.serve.admission.
AdmissionController` — bounded in-flight, bounded wait queue with
deadline eviction, cost-aware admission via the exact ``D_RP(k)``
prediction, and a brownout mode that answers makespans on the ladder
``exact`` (from the model cache) → ``amva`` while the queue is past its
watermark.  Shed responses are ``429``/``503`` with a
``Retry-After`` header; brownout/down-tier answers are ``203`` with the
honest ladder report attached.

**Response codes mirror the resilience ladder's 0/1/2 exit codes**
(docs/ROBUSTNESS.md): ``200`` = rung 0, a clean exact answer; ``203``
(Non-Authoritative Information) = rung 1, a degraded-but-honest answer
(``robust`` ladder solves, brownout, cost down-tier); ``500`` = rung 2,
the solver failed with a reason code.  Transport-level verdicts keep
their usual meanings: ``400`` malformed request, ``404``/``405`` bad
route, ``413`` oversized body, ``429`` shed (retry later), ``503``
shed (service-side: queue deadline or draining), ``504`` per-request
deadline exceeded.

Solves run on a thread pool (the cache serializes builds per
fingerprint; the metrics registry is thread-safe).  The admission slot
is released when the *work* finishes — a request that times out (504)
leaves its thread running and the slot held until then, counted in
``repro_abandoned_work_total``, so abandoned work can no longer starve
admission invisibly.  The daemon arms a **metrics-only** instrumentation
bundle: a tracer is single-threaded by design and would grow without
bound in a long-lived process, so spans are disabled while counters stay
live.

SIGTERM/SIGINT begin a **graceful drain**: readiness flips to ``503``,
queued waiters are shed, new solves are refused, in-flight solves get
``drain_grace`` seconds to finish (the listener stays open so
``/readyz`` keeps answering), final metrics are flushed (to
``--metrics-out`` when configured), then the process exits 0 — hard, if
abandoned threads are still mid-solve past the grace.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

from repro.experiments.journal import encode_value
from repro.network.serialize import spec_from_dict
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import default_registry
from repro.resilience.faults import ServeFaultPlan, trigger_serve_fault
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    ShedError,
)
from repro.serve.cache import DEFAULT_CACHE_BYTES, ModelCache
from repro.serve.service import METRICS, Query, SolverService

__all__ = ["ServeDaemon", "run_daemon"]

#: Largest accepted request body (a spec is a few KB; batches stay small).
MAX_BODY_BYTES = 16 << 20
#: Largest accepted header block.
MAX_HEADER_BYTES = 64 << 10

#: rung → HTTP status (see module docstring).
RUNG_STATUS = {0: 200, 1: 203, 2: 500}

_REASONS = {
    200: "OK",
    203: "Non-Authoritative Information",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    def __init__(self, code: int, message: str, *,
                 retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after


def _display(value):
    """Human-readable JSON rendering next to the bit-exact codec."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    return float(value)


def _consume_exception(fut: asyncio.Future) -> None:
    """Silence 'exception never retrieved' on abandoned pool work."""
    if not fut.cancelled():
        fut.exception()


def _whole(doc: dict, name: str) -> int:
    """``doc[name]`` as an int, refusing what ``int()`` would change
    (``30.7``, ``"5"``) and booleans (``true`` is not the count 1)."""
    value = doc[name]
    if isinstance(value, bool) or int(value) != value:
        raise _HttpError(400, f"{name} must be an integer, got {value!r}")
    return int(value)


def _parse_query(doc: dict) -> Query:
    if not isinstance(doc, dict):
        raise _HttpError(400, "query must be a JSON object")
    try:
        spec = spec_from_dict(doc["spec"])
        K = _whole(doc, "K")
        N = _whole(doc, "N")
    except _HttpError:
        raise
    except KeyError as exc:
        raise _HttpError(400, f"query missing field {exc.args[0]!r}") from exc
    except Exception as exc:
        raise _HttpError(400, f"bad query: {exc}") from exc
    metric = doc.get("metric", "makespan")
    if metric not in METRICS:
        raise _HttpError(400, f"metric must be one of {METRICS}, "
                              f"got {metric!r}")
    if "propagation" in doc:
        raise _HttpError(400, "field 'propagation' was removed: the model "
                              "chooses its own epoch engine")
    try:
        return Query(spec=spec, K=K, N=N, metric=metric)
    except ValueError as exc:
        raise _HttpError(400, str(exc)) from exc


class ServeDaemon:
    """One listening service instance (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8278,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        threads: int = 4,
        deadline: float | None = None,
        shard_dir: str | None = None,
        admission: AdmissionConfig | None = None,
        drill: ServeFaultPlan | None = None,
        drill_endpoint: bool = False,
        drain_grace: float = 5.0,
        keepalive_requests: int = 100,
        keepalive_idle: float = 5.0,
        metrics_out: str | None = None,
    ):
        if drain_grace < 0:
            raise ValueError(f"drain_grace must be >= 0, got {drain_grace!r}")
        if keepalive_requests < 1:
            raise ValueError(
                f"keepalive_requests must be >= 1, got {keepalive_requests!r}"
            )
        if keepalive_idle <= 0:
            raise ValueError(
                f"keepalive_idle must be > 0, got {keepalive_idle!r}"
            )
        self.host = host
        self.port = port
        self.deadline = deadline
        self.shard_dir = shard_dir
        self.drain_grace = float(drain_grace)
        self.keepalive_requests = int(keepalive_requests)
        self.keepalive_idle = float(keepalive_idle)
        self.metrics_out = metrics_out
        self.drill_endpoint = bool(drill_endpoint)
        #: armed service-fault plan (swapped atomically via ``/drill``)
        self.fault_plan = drill if drill is not None and drill.active else None
        self.cache = ModelCache(max_bytes=cache_bytes)
        self.service = SolverService(cache=self.cache)
        self.instrument = Instrumentation(metrics=default_registry())
        self.admission = AdmissionController(
            admission if admission is not None
            else AdmissionConfig(max_inflight=max(1, int(threads))),
            instrument=self.instrument,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(threads)),
            thread_name_prefix="repro-serve",
        )
        self._server: asyncio.AbstractServer | None = None
        self._drain_requested = asyncio.Event()
        self._started = time.monotonic()
        self._requests = 0
        self._ready = True
        self._solve_counter = itertools.count(1)
        #: pool futures whose requester timed out (504) — still running
        self._abandoned_live: set = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.port = int(port)
        return str(host), self.port

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`stop` (or a signal handler) begins the drain.

        The listener stays open *through* the drain so ``/readyz`` keeps
        answering ``503`` while in-flight solves finish; it closes only
        once the drain completes (or its grace expires).

        The instrumentation bundle is armed ambiently for the whole
        serving lifetime (``_rt.ACTIVE`` is a process global — one
        balanced enter/exit here; per-request activation would interleave
        its save/restore across overlapping solves and leak the bundle).
        """
        if self._server is None:
            await self.start()
        with self.instrument.activate():
            async with self._server:
                await self._drain_requested.wait()
                await self._drain()
        for w in list(self._writers):
            w.close()
        # Don't wait for abandoned threads: they are accounted, the
        # metrics are flushed, and run_daemon hard-exits past the grace.
        self._pool.shutdown(wait=False, cancel_futures=True)

    def stop(self) -> None:
        """Begin graceful drain (idempotent; call from the loop thread)."""
        self._drain_requested.set()

    @property
    def ready(self) -> bool:
        """True while the daemon accepts new solves."""
        return self._ready

    @property
    def busy_at_exit(self) -> bool:
        """True when solver threads were still running after the drain."""
        return self.admission.inflight > 0 or bool(self._abandoned_live)

    async def _drain(self) -> None:
        """Shed the queue, wait (bounded) for live work, flush metrics."""
        self._ready = False
        self.admission.begin_drain()
        deadline = time.monotonic() + self.drain_grace
        while (self.admission.inflight - len(self._abandoned_live) > 0
               and time.monotonic() < deadline):
            await asyncio.sleep(0.02)
        # Let the final responses make it onto the wire.
        await asyncio.sleep(0.05)
        self._flush_metrics()

    def _flush_metrics(self) -> None:
        if not self.metrics_out:
            return
        try:
            Path(self.metrics_out).write_text(
                self.instrument.metrics.to_prometheus()
            )
        except OSError as exc:  # pragma: no cover - disk full etc.
            print(f"repro serve: metrics flush to {self.metrics_out} "
                  f"failed: {exc}", file=sys.stderr)

    # -- HTTP plumbing -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            served = 0
            while served < self.keepalive_requests:
                served += 1
                endpoint = "unknown"
                t0 = time.perf_counter()
                try:
                    request = await self._read_request(reader,
                                                       idle=served > 1)
                except _HttpError as exc:
                    # Framing error: answer best-effort, then close (the
                    # byte stream can no longer be trusted).
                    payload, ctype = self._render(
                        exc.code, {"status": "error", "error": exc.message}
                    )
                    await self._write_response(writer, exc.code, payload,
                                               ctype, keep_alive=False)
                    self._count_request(exc.code, endpoint, t0)
                    break
                if request is None:
                    break  # clean close or idle timeout between requests
                method, path, version, headers, body = request
                endpoint = path
                keep = self._keep_alive(version, headers, served)
                retry_after = None
                try:
                    code, doc = await self._route(method, path, body)
                except ShedError as exc:
                    code = exc.code
                    retry_after = exc.retry_after
                    doc = {"status": "shed", "reason": exc.reason,
                           "error": str(exc),
                           "retry_after": exc.retry_after}
                except _HttpError as exc:
                    code, doc = exc.code, {"status": "error",
                                           "error": exc.message}
                    retry_after = exc.retry_after
                except Exception as exc:  # solver crash → structured 500
                    code = 500
                    doc = {"status": "error",
                           "reason": getattr(exc, "reason", "internal"),
                           "error": str(exc)}
                payload, ctype = self._render(code, doc)
                await self._write_response(writer, code, payload, ctype,
                                           keep_alive=keep,
                                           retry_after=retry_after)
                self._count_request(code, endpoint, t0)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _count_request(self, code: int, endpoint: str, t0: float) -> None:
        self._requests += 1
        ins = self.instrument
        ins.count("repro_requests_total", endpoint=endpoint, code=str(code))
        ins.observe("repro_request_seconds",
                    time.perf_counter() - t0, endpoint=endpoint)

    def _keep_alive(self, version: str, headers: dict, served: int) -> bool:
        """HTTP/1.1 default keep-alive; HTTP/1.0 opt-in; drain closes."""
        if served >= self.keepalive_requests or self._drain_requested.is_set():
            return False
        conn = headers.get("connection", "").lower()
        if "close" in conn:
            return False
        if version == "HTTP/1.0":
            return "keep-alive" in conn
        return True

    async def _read_request(
        self, reader: asyncio.StreamReader, *, idle: bool = False
    ) -> tuple[str, str, str, dict, bytes] | None:
        """Read one request; ``None`` = clean close (EOF / idle timeout)."""
        try:
            if idle:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), self.keepalive_idle
                )
            else:
                head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: close quietly
        except asyncio.LimitOverrunError as exc:
            raise _HttpError(413, "header block too large") from exc
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # EOF between requests: clean close
            raise _HttpError(400, "truncated request") from exc
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "header block too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, version = parts[0].upper(), parts[1], parts[2].upper()
        fields = [(name.strip().lower(), value.strip())
                  for name, _, value in (line.partition(":")
                                         for line in lines[1:] if ":" in line)]
        headers = dict(fields)
        # RFC 9112 §6.1 and §6.3: no chunked bodies here, and differing
        # Content-Length values leave the message length unknown.
        if "transfer-encoding" in headers:
            raise _HttpError(501, "Transfer-Encoding is not supported; "
                                  "send a Content-Length body")
        if len({v for n, v in fields if n == "content-length"}) > 1:
            raise _HttpError(400, "conflicting Content-Length headers")
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _HttpError(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body of {length} bytes over the "
                                  f"{MAX_BODY_BYTES} cap")
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], version, headers, body

    def _render(self, code: int, doc) -> tuple[bytes, str]:
        if isinstance(doc, (bytes, str)):
            payload = doc.encode("utf-8") if isinstance(doc, str) else doc
            return payload, "text/plain; version=0.0.4; charset=utf-8"
        return (json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n",
                "application/json")

    async def _write_response(
        self, writer: asyncio.StreamWriter, code: int,
        payload: bytes, ctype: str, *,
        keep_alive: bool = False, retry_after: float | None = None,
    ) -> None:
        reason = _REASONS.get(code, "OK")
        head = [
            f"HTTP/1.1 {code} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if keep_alive:
            head.append(
                f"Keep-Alive: timeout={self.keepalive_idle:g}, "
                f"max={self.keepalive_requests}"
            )
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after:g}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()

    # -- routing -------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, object]:
        if path == "/solve":
            self._require(method, "POST", path)
            return await self._solve(self._json(body))
        if path == "/solve_many":
            self._require(method, "POST", path)
            return await self._solve_many(self._json(body))
        if path == "/status":
            self._require(method, "GET", path)
            return 200, self._status_doc()
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, {
                "status": "ok",
                "uptime_seconds": round(time.monotonic() - self._started, 3),
            }
        if path == "/readyz":
            self._require(method, "GET", path)
            if self._ready:
                return 200, {"ready": True}
            return 503, {"ready": False, "reason": "draining"}
        if path == "/metrics":
            self._require(method, "GET", path)
            return 200, self.instrument.metrics.to_prometheus()
        if path == "/drill":
            self._require(method, "POST", path)
            return self._drill(self._json(body))
        raise _HttpError(404, f"no route {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(405, f"{path} expects {expected}, got {method}")

    @staticmethod
    def _json(body: bytes) -> dict:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _HttpError(400, "body must be a JSON object")
        return doc

    # -- endpoints -----------------------------------------------------
    async def _offload(self, fn, deadline: float | None):
        """Run ``fn`` on the solver pool behind admission control.

        Acquires one admission slot (may raise
        :class:`~repro.serve.admission.ShedError`), releases it when the
        *work* finishes — via a done-callback on the pool future, which
        fires on completion *and* on pre-start cancellation.  On deadline
        expiry the HTTP answer is 504 immediately; unstarted work is
        cancelled (slot freed), running work is abandoned-but-accounted
        (``repro_abandoned_work_total``) and keeps its slot until the
        thread finishes, so admission sees the true pool occupancy."""
        ticket = await self.admission.acquire()

        def run(_fn=fn):
            trigger_serve_fault(self.fault_plan,
                                next(self._solve_counter))
            return _fn()

        try:
            cf = self._pool.submit(run)
        except RuntimeError:
            ticket.release()
            raise ShedError(
                "draining", "solver pool is shut down", code=503,
                retry_after=self.admission.config.retry_after,
            ) from None
        cf.add_done_callback(lambda _cf: ticket.release())
        fut = asyncio.wrap_future(cf)
        if deadline is None:
            return await fut
        try:
            return await asyncio.wait_for(asyncio.shield(fut), deadline)
        except asyncio.TimeoutError:
            if not cf.cancel():
                # Mid-solve: document the abandonment, don't pretend to
                # preempt.  The finished result still warms the cache.
                self.admission.note_abandoned()
                self._abandoned_live.add(cf)
                cf.add_done_callback(self._abandoned_live.discard)
                fut.add_done_callback(_consume_exception)
            raise _HttpError(
                504, f"deadline of {deadline:g}s exceeded"
            ) from None

    def _deadline(self, doc: dict) -> float | None:
        raw = doc.get("deadline", self.deadline)
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad deadline {raw!r}") from exc
        if not deadline > 0:
            raise _HttpError(400, f"deadline must be positive, got {raw!r}")
        return deadline

    async def _solve(self, doc: dict) -> tuple[int, dict]:
        deadline = self._deadline(doc)
        robust = bool(doc.get("robust"))
        if robust and doc.get("metric", "makespan") != "makespan":
            raise _HttpError(400, "robust solves answer metric='makespan'")
        query = _parse_query(doc)
        verdict, _cost = self.admission.assess_cost(
            query.spec, query.K, can_downtier=query.metric == "makespan"
        )
        if verdict == "downtier":
            # Over the cost caps: the operator-free amva rung answers.
            return await self._solve_ladder(query, deadline, cause="downtier")
        if self.admission.brownout and query.metric == "makespan":
            return await self._solve_ladder(query, deadline, cause="brownout")
        if robust:
            return await self._solve_robust(query, deadline)
        answer = await self._offload(
            lambda: self.service.solve(query), deadline
        )
        return 200, {
            "status": "ok",
            "rung": 0,
            "value": encode_value(answer.value),
            "display": _display(answer.value),
            "fingerprint": answer.fingerprint,
            "model_fingerprint": answer.model_fingerprint,
            "cached": answer.cached,
            "seconds": round(answer.seconds, 6),
        }

    async def _solve_robust(self, query: Query,
                            deadline: float | None) -> tuple[int, dict]:
        """Ladder solve: 200/203/500 = rung 0/1/2 (makespan only)."""
        from repro.resilience.errors import SolverError
        from repro.resilience.fallback import solve_resilient

        def work():
            return solve_resilient(query.spec, query.K, query.N)

        try:
            result = await self._offload(work, deadline)
        except SolverError as exc:
            return RUNG_STATUS[2], {
                "status": "failed", "rung": 2,
                "reason": exc.reason, "error": str(exc),
            }
        rung = 1 if result.report.degraded else 0
        return RUNG_STATUS[rung], {
            "status": "degraded" if rung else "ok",
            "rung": rung,
            "method": result.report.method,
            "value": encode_value(float(result.makespan)),
            "display": float(result.makespan),
            "summary": result.report.summary(),
        }

    async def _solve_ladder(self, query: Query, deadline: float | None, *,
                            cause: str) -> tuple[int, dict]:
        """Policy-degraded solve (brownout / cost down-tier): always 203.

        The answer is honest — it carries the method, a summary and the
        ``cause`` flag.  Down-tiering runs only the operator-free
        ``amva`` estimate.  Brownout answers ``exact`` from the model
        cache: a warm model reads its converged refill walk and steps
        only the drain, so the exact answer is the cheapest one, bit for
        bit the plain solve.  Only a ``SolverError`` there sends it on to
        ``amva``."""
        from repro.resilience.errors import SolverError
        from repro.resilience.fallback import ResilienceConfig, solve_resilient

        def work():
            failed = ""
            if cause == "brownout":
                try:
                    answer = self.service.solve(query)
                except SolverError as exc:
                    failed = f"exact[{exc.reason}]: "
                else:
                    return ("exact", float(answer.value),
                            f"exact solve ok ({answer.seconds:.3g}s)")
            result = solve_resilient(query.spec, query.K, query.N,
                                     ResilienceConfig(ladder=("amva",)))
            return (result.report.method, float(result.makespan),
                    failed + result.report.summary())

        try:
            method, value, summary = await self._offload(work, deadline)
        except SolverError as exc:
            return RUNG_STATUS[2], {
                "status": "failed", "rung": 2,
                "reason": exc.reason, "error": str(exc),
            }
        if cause == "brownout":
            self.admission.note_brownout_solve()
        return RUNG_STATUS[1], {
            "status": "degraded",
            "rung": 1,
            cause: True,
            "method": method,
            "value": encode_value(value),
            "display": value,
            "summary": summary,
        }

    async def _solve_many(self, doc: dict) -> tuple[int, dict]:
        deadline = self._deadline(doc)
        raw = doc.get("queries")
        if not isinstance(raw, list) or not raw:
            raise _HttpError(400, "solve_many needs a non-empty "
                                  "'queries' list")
        queries = [_parse_query(q) for q in raw]
        # Batches are admitted whole or not at all: any over-cost member
        # sheds the batch (mixed metrics make per-query down-tiering a
        # silent correctness change).
        for q in queries:
            self.admission.assess_cost(q.spec, q.K, can_downtier=False)
        answers = await self._offload(
            lambda: self.service.solve_many(queries), deadline
        )
        return 200, {
            "status": "ok",
            "rung": 0,
            "answers": [
                {
                    "value": encode_value(a.value),
                    "display": _display(a.value),
                    "fingerprint": a.fingerprint,
                    "model_fingerprint": a.model_fingerprint,
                    "cached": a.cached,
                    "deduped": a.deduped,
                    "seconds": round(a.seconds, 6),
                }
                for a in answers
            ],
            "cache": self.cache.stats(),
        }

    def _drill(self, doc: dict) -> tuple[int, dict]:
        """Swap the armed service-fault plan (drill phase control)."""
        if not self.drill_endpoint:
            raise _HttpError(
                404, "drill endpoint disabled (start with --drill-endpoint)"
            )
        spec = doc.get("faults", "none")
        if not isinstance(spec, str):
            raise _HttpError(400, "'faults' must be a drill spec string "
                                  "(e.g. 'slow-solve@0.3')")
        try:
            plan = ServeFaultPlan.parse(spec)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from exc
        self.fault_plan = plan if plan.active else None
        return 200, {
            "status": "ok",
            "faults": asdict(plan) if plan.active else None,
        }

    def _status_doc(self) -> dict:
        doc = {
            "schema": "repro-serve-status/2",
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "requests": self._requests,
            "deadline": self.deadline,
            "ready": self._ready,
            "admission": self.admission.stats(),
            "faults": asdict(self.fault_plan) if self.fault_plan else None,
            "cache": self.cache.stats(),
            "fleet": None,
        }
        if self.shard_dir:
            from repro.obs.fleet import FleetView

            try:
                doc["fleet"] = FleetView.load(self.shard_dir).to_dict()
            except Exception as exc:  # fleet doc is best-effort
                doc["fleet"] = {"error": str(exc)}
        return doc


async def _run(daemon: ServeDaemon, port_file: str | None,
               pid_file: str | None) -> int:
    host, port = await daemon.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, daemon.stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    print(f"repro serve listening on http://{host}:{port}", file=sys.stderr)
    if pid_file:
        Path(pid_file).write_text(f"{os.getpid()}\n")
    if port_file:
        Path(port_file).write_text(f"{port}\n")
    await daemon.serve_until_stopped()
    print("repro serve: shutdown complete", file=sys.stderr)
    return 0


def run_daemon(
    host: str = "127.0.0.1",
    port: int = 8278,
    *,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    threads: int = 4,
    deadline: float | None = None,
    shard_dir: str | None = None,
    port_file: str | None = None,
    pid_file: str | None = None,
    admission: AdmissionConfig | None = None,
    drill: ServeFaultPlan | None = None,
    drill_endpoint: bool = False,
    drain_grace: float = 5.0,
    keepalive_requests: int = 100,
    keepalive_idle: float = 5.0,
    metrics_out: str | None = None,
) -> int:
    """Blocking entry point for the ``repro serve`` CLI (exit code 0)."""
    daemon = ServeDaemon(
        host, port, cache_bytes=cache_bytes, threads=threads,
        deadline=deadline, shard_dir=shard_dir, admission=admission,
        drill=drill, drill_endpoint=drill_endpoint, drain_grace=drain_grace,
        keepalive_requests=keepalive_requests, keepalive_idle=keepalive_idle,
        metrics_out=metrics_out,
    )
    try:
        code = asyncio.run(_run(daemon, port_file, pid_file))
    except KeyboardInterrupt:  # pragma: no cover - signal path covered above
        return 0
    if daemon.busy_at_exit:
        # Abandoned solver threads outlived the drain grace; the k8s-style
        # answer is a hard exit — metrics are flushed, work is accounted.
        print("repro serve: hard exit with solver threads still running",
              file=sys.stderr)
        sys.stderr.flush()
        sys.stdout.flush()
        os._exit(code)
    return code
