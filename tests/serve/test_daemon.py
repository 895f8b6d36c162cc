"""HTTP front-end: routes, status codes, deadlines, bit-exact payloads.

Runs a real :class:`~repro.serve.daemon.ServeDaemon` on an ephemeral
loopback port inside the test process (urllib clients on worker threads,
the asyncio loop driving the server), so the wire format, the resilience
status-code mapping and the deadline path are all exercised end to end.
"""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.journal import encode_value
from repro.experiments.params import BASE_APP
from repro.network.serialize import spec_to_dict
from repro.resilience.faults import ServeFaultPlan
from repro.serve.admission import AdmissionConfig
from repro.serve.daemon import ServeDaemon


def _spec(scv: float = 10.0):
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})


def _body(**over):
    doc = {"spec": spec_to_dict(_spec()), "K": 5, "N": 30}
    doc.update(over)
    return doc


class _Client:
    """Blocking urllib round-trips, run on the loop's default executor."""

    def __init__(self, base: str):
        self.base = base

    def post(self, path: str, doc: dict) -> tuple[int, dict]:
        req = urllib.request.Request(
            self.base + path,
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def get(self, path: str) -> tuple[int, str]:
        try:
            with urllib.request.urlopen(self.base + path, timeout=60) as r:
                return r.status, r.read().decode()
        except urllib.error.HTTPError as e:
            return e.code, e.read().decode()


def _post_raw(base: str, path: str, doc: dict) -> tuple[int, dict, dict]:
    """POST keeping the response headers (Retry-After assertions)."""
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read()), dict(e.headers)


def _drive(test_coro_fn, **daemon_kw):
    """Start a daemon on port 0, run the coroutine, shut down cleanly."""

    async def runner():
        daemon = ServeDaemon(port=0, threads=2, **daemon_kw)
        host, port = await daemon.start()
        task = asyncio.create_task(daemon.serve_until_stopped())
        client = _Client(f"http://{host}:{port}")
        loop = asyncio.get_running_loop()

        async def post(path, doc):
            return await loop.run_in_executor(None, client.post, path, doc)

        async def get(path):
            return await loop.run_in_executor(None, client.get, path)

        try:
            await test_coro_fn(daemon, post, get)
        finally:
            daemon.stop()
            await asyncio.wait_for(task, 30)

    asyncio.run(runner())


class TestSolve:
    def test_solve_is_bit_exact_and_200(self):
        cold = TransientModel(_spec(), 5).makespan(30)

        async def scenario(daemon, post, get):
            code, doc = await post("/solve", _body())
            assert code == 200
            assert doc["rung"] == 0
            assert doc["value"] == encode_value(cold)
            assert doc["display"] == pytest.approx(cold)
            assert not doc["cached"]
            code, doc = await post("/solve", _body())
            assert code == 200 and doc["cached"]

        _drive(scenario)

    def test_array_metrics_round_trip(self):
        cold = TransientModel(_spec(), 5).interdeparture_times(30)

        async def scenario(daemon, post, get):
            code, doc = await post(
                "/solve", _body(metric="interdeparture")
            )
            assert code == 200
            assert doc["value"] == encode_value(cold)
            assert np.allclose(doc["display"], cold)

        _drive(scenario)

    def test_robust_solve_maps_rung_to_status(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/solve", _body(robust=True))
            # the canonical spec solves exactly → rung 0 → 200
            assert code == 200
            assert doc["rung"] == 0 and doc["method"] == "exact"
            assert "summary" in doc

        _drive(scenario)


class TestSolveMany:
    def test_batch_answers_in_order_with_dedupe(self):
        cold30 = TransientModel(_spec(), 5).makespan(30)
        cold40 = TransientModel(_spec(), 5).makespan(40)

        async def scenario(daemon, post, get):
            code, doc = await post("/solve_many", {
                "queries": [_body(), _body(N=40), _body()],
            })
            assert code == 200
            answers = doc["answers"]
            assert [a["value"] for a in answers] == [
                encode_value(cold30), encode_value(cold40),
                encode_value(cold30),
            ]
            assert [a["deduped"] for a in answers] == [False, False, True]
            assert doc["cache"]["misses"] == 1

        _drive(scenario)


class TestStatusAndMetrics:
    def test_status_doc_shape(self):
        async def scenario(daemon, post, get):
            await post("/solve", _body())
            code, text = await get("/status")
            assert code == 200
            doc = json.loads(text)
            assert doc["schema"] == "repro-serve-status/2"
            assert doc["requests"] >= 1
            assert doc["cache"]["misses"] == 1
            assert doc["fleet"] is None  # no --shard-dir
            assert doc["ready"] is True
            adm = doc["admission"]
            assert adm["admitted"] >= 1
            assert adm["inflight"] == 0 and adm["queued"] == 0
            assert adm["shed_total"] == 0 and adm["draining"] is False

        _drive(scenario)

    def test_metrics_exposition(self):
        async def scenario(daemon, post, get):
            await post("/solve", _body())
            await post("/solve", _body())
            code, text = await get("/metrics")
            assert code == 200
            assert "# TYPE repro_cache_hits_total counter" in text
            assert "repro_cache_misses_total 1" in text
            assert 'repro_requests_total{code="200",endpoint="/solve"} 2' \
                in text

        _drive(scenario)


class TestErrors:
    def test_malformed_requests_are_400(self):
        async def scenario(daemon, post, get):
            for bad in (
                {"K": 5, "N": 30},                      # missing spec
                _body(metric="latency"),                # unknown metric
                _body(propagation="warp"),              # removed field
                _body(deadline=-1),                     # bad deadline
                {"queries": []},                        # empty batch
                _body(N=30.7),                          # fractional N
                _body(K=5.9),                           # fractional K
                _body(K=True),                          # boolean K
            ):
                path = "/solve_many" if "queries" in bad else "/solve"
                code, doc = await post(path, bad)
                assert code == 400, (bad, doc)
                assert doc["status"] == "error"

        _drive(scenario)

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, length):
        """A bad Content-Length is a framing error: 400, close, counted."""
        async def scenario(daemon, post, get):
            def exchange():
                with socket.create_connection((daemon.host, daemon.port),
                                              timeout=60) as sock:
                    sock.sendall(
                        b"POST /solve HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Length: " + length.encode() + b"\r\n\r\n"
                    )
                    reply = b""
                    while chunk := sock.recv(65536):
                        reply += chunk
                    return reply

            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(None, exchange)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), reply
            assert b"Connection: close" in head
            assert json.loads(body)["status"] == "error"
            code, text = await get("/metrics")
            assert 'repro_requests_total{code="400",endpoint="unknown"} 1' \
                in text

        _drive(scenario)

    @staticmethod
    def _raw(daemon, request: bytes) -> bytes:
        """Send raw bytes; return everything the daemon writes until it
        closes (a daemon that waits for more body bytes times out)."""
        with socket.create_connection((daemon.host, daemon.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
            return reply

    def test_conflicting_content_lengths_are_400(self):
        """RFC 9112 §6.3: differing Content-Length values are a framing
        error, not "the last one wins" (which waited for 40 bytes)."""
        async def scenario(daemon, post, get):
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(None, self._raw, daemon, (
                b"POST /solve HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 2\r\nContent-Length: 40\r\n\r\n{}"
            ))
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), reply
            assert b"Connection: close" in head
            assert "Content-Length" in json.loads(body)["error"]

        _drive(scenario)

    def test_transfer_encoding_is_501(self):
        """RFC 9112 §6.1: a chunked body is refused and the connection
        closed, never read as an empty body followed by stray bytes."""
        async def scenario(daemon, post, get):
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(None, self._raw, daemon, (
                b"POST /solve HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"
            ))
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 501 "), reply
            assert b"Connection: close" in head
            assert reply.count(b"HTTP/1.1 ") == 1
            assert "Transfer-Encoding" in json.loads(body)["error"]

        _drive(scenario)

    def test_removed_propagation_field_is_400(self):
        """Even a once-valid engine name is refused, never solved."""
        async def scenario(daemon, post, get):
            for path, body in (
                ("/solve", _body(propagation="spectral")),
                ("/solve_many", {"queries": [_body(),
                                             _body(propagation="propagator")]}),
            ):
                code, doc = await post(path, body)
                assert code == 400, (path, doc)
                assert "propagation" in doc["error"], doc
            assert daemon.service.cache.stats()["misses"] == 0

        _drive(scenario)

    def test_unknown_route_404_and_bad_method_405(self):
        async def scenario(daemon, post, get):
            code, _ = await post("/nope", {})
            assert code == 404
            code, _ = await get("/solve")
            assert code == 405
            code, _ = await post("/status", {})
            assert code == 405

        _drive(scenario)

    def test_deadline_exceeded_is_504(self):
        async def scenario(daemon, post, get):
            code, doc = await post(
                "/solve", _body(N=5000, deadline=1e-4)
            )
            assert code == 504
            assert "deadline" in doc["error"]

        _drive(scenario)

    def test_default_deadline_from_daemon_config(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/solve", _body(N=5000))
            assert code == 504

        _drive(scenario, deadline=1e-4)


class TestOverloadControl:
    def test_flood_past_max_inflight_sheds_429_with_retry_after(self):
        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build outside the flood
            base = f"http://{daemon.host}:{daemon.port}"
            loop = asyncio.get_running_loop()
            results = await asyncio.gather(*[
                loop.run_in_executor(None, _post_raw, base, "/solve",
                                     _body())
                for _ in range(5)
            ])
            codes = sorted(r[0] for r in results)
            assert 200 in codes  # the admitted one answered
            assert 429 in codes  # the rest were shed, not queued
            shed = next(r for r in results if r[0] == 429)
            _, doc, headers = shed
            assert doc["status"] == "shed"
            assert doc["reason"] == "queue-full"
            assert doc["retry_after"] == 0.25
            assert headers.get("Retry-After") == "0.25"
            stats = daemon.admission.stats()
            assert stats["shed"]["queue-full"] >= 1

        _drive(
            scenario,
            admission=AdmissionConfig(max_inflight=1, queue_depth=0,
                                      retry_after=0.25),
            drill=ServeFaultPlan(slow_seconds=0.5),
        )

    def test_brownout_answers_203_on_cheap_rungs(self):
        # Brownout climbs exact → amva; the converged tail keeps the
        # exact rung cheap, so the browned-out answer is the exact one.
        cold = TransientModel(_spec(), 5).makespan(30)

        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build
            loop = asyncio.get_running_loop()
            base = f"http://{daemon.host}:{daemon.port}"
            # occupy the slot, then queue one (hits watermark=1) …
            first = loop.run_in_executor(None, _post_raw, base, "/solve",
                                         _body())
            await asyncio.sleep(0.1)
            second = loop.run_in_executor(None, _post_raw, base, "/solve",
                                          _body())
            await asyncio.sleep(0.1)
            assert daemon.admission.brownout
            # … so the NEXT makespan solve browns out onto the ladder.
            code, doc = await post("/solve", _body())
            assert code == 203
            assert doc["status"] == "degraded" and doc["rung"] == 1
            assert doc["brownout"] is True
            assert doc["method"] == "exact"
            assert doc["value"] == encode_value(cold)
            assert "summary" in doc
            await first
            await second
            stats = daemon.admission.stats()
            assert stats["brownouts"] >= 1
            assert stats["brownout_solves"] >= 1
            assert stats["brownout_seconds"] > 0

        _drive(
            scenario,
            admission=AdmissionConfig(max_inflight=1, queue_depth=4,
                                      brownout_watermark=1,
                                      brownout_clear=0, retry_after=0.05),
            drill=ServeFaultPlan(slow_seconds=0.4),
        )

    def test_brownout_answers_exact_from_the_model_cache(self):
        """Brownout's exact rung is a warm cache hit, bit for bit the
        in-process solve; only a SolverError sends it on to amva."""
        from repro.resilience.errors import SolverError
        from repro.serve.daemon import _parse_query

        cold = TransientModel(_spec(), 5).makespan(30)

        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build
            before = daemon.cache.stats()
            query = _parse_query(_body())
            code, doc = await daemon._solve_ladder(query, None,
                                                   cause="brownout")
            after = daemon.cache.stats()
            assert code == 203 and doc["brownout"] is True
            assert doc["method"] == "exact"
            assert doc["value"] == encode_value(cold)
            assert doc["summary"].startswith("exact solve ok")
            assert after["hits"] == before["hits"] + 1
            assert after["misses"] == before["misses"]

            def failing(q):
                raise SolverError("injected exact failure")

            daemon.service.solve = failing
            code, doc = await daemon._solve_ladder(query, None,
                                                   cause="brownout")
            assert code == 203 and doc["method"] == "amva"
            assert doc["summary"].startswith("exact[solver-error]: ")

        _drive(scenario)

    def test_cost_caps_downtier_makespan_and_shed_the_rest(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/solve", _body())
            assert code == 203
            assert doc["downtier"] is True and doc["rung"] == 1
            assert doc["method"] == "amva"
            # array metrics cannot down-tier: shed with over-cost
            code, doc = await post("/solve", _body(metric="interdeparture"))
            assert code == 429
            assert doc["reason"] == "over-cost"
            # batches are admitted whole or not at all
            code, doc = await post("/solve_many", {"queries": [_body()]})
            assert code == 429 and doc["reason"] == "over-cost"
            stats = daemon.admission.stats()
            assert stats["downtiered"] == 1
            assert stats["shed"]["over-cost"] == 2

        _drive(scenario,
               admission=AdmissionConfig(max_query_states=1))

    def test_abandoned_work_keeps_slot_until_thread_finishes(self):
        """PR 9 regression: a 504'd request's thread still holds its
        admission slot (honest accounting) and frees it on completion."""
        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build
            code, doc = await post("/solve",
                                   _body(N=40, deadline=0.1))
            assert code == 504
            stats = daemon.admission.stats()
            assert stats["abandoned"] == 1
            assert stats["inflight"] == 1  # the zombie still counted
            # while the abandoned solve runs, the pool is honestly full:
            code, doc = await post("/solve", _body(N=41))
            assert code == 429 and doc["reason"] == "queue-full"
            await asyncio.sleep(0.8)  # the abandoned thread finishes
            assert daemon.admission.stats()["inflight"] == 0
            code, doc = await post("/solve", _body(N=42))
            assert code == 200  # slot recovered, service healthy
            code, text = await get("/metrics")
            assert "repro_abandoned_work_total 1" in text

        _drive(
            scenario,
            admission=AdmissionConfig(max_inflight=1, queue_depth=0,
                                      retry_after=0.05),
            drill=ServeFaultPlan(slow_seconds=0.5),
        )

    def test_error_burst_maps_to_500_then_recovers(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/solve", _body())
            assert code == 500
            assert doc["status"] == "error"
            assert doc["reason"] == "injected-fault"
            code, doc = await post("/solve", _body())
            assert code == 200  # the burst window passed

        _drive(scenario, drill=ServeFaultPlan(error_burst=1))


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self):
        async def scenario(daemon, post, get):
            import http.client

            def exchange():
                conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                                  timeout=60)
                try:
                    sockets = []
                    for _ in range(3):
                        body = json.dumps(_body()).encode()
                        conn.request("POST", "/solve", body=body, headers={
                            "Content-Type": "application/json"})
                        resp = conn.getresponse()
                        resp.read()
                        sockets.append(id(conn.sock))
                        assert resp.status == 200
                        assert not resp.will_close
                        assert resp.getheader("Connection") == "keep-alive"
                        assert "max=100" in resp.getheader("Keep-Alive")
                    return sockets
                finally:
                    conn.close()

            loop = asyncio.get_running_loop()
            sockets = await loop.run_in_executor(None, exchange)
            assert len(set(sockets)) == 1  # one TCP connection throughout

        _drive(scenario)

    def test_bounded_requests_per_connection(self):
        async def scenario(daemon, post, get):
            import http.client

            def exchange():
                conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                                  timeout=60)
                try:
                    conn.request("GET", "/healthz")
                    first = conn.getresponse()
                    first.read()
                    assert first.getheader("Connection") == "keep-alive"
                    conn.request("GET", "/healthz")
                    second = conn.getresponse()
                    second.read()
                    # request 2 of 2: the server says close and means it
                    assert second.getheader("Connection") == "close"
                    assert second.will_close
                finally:
                    conn.close()

            await asyncio.get_running_loop().run_in_executor(None, exchange)

        _drive(scenario, keepalive_requests=2)

    def test_connection_close_is_honored(self):
        async def scenario(daemon, post, get):
            import http.client

            def exchange():
                conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                                  timeout=60)
                try:
                    conn.request("GET", "/healthz",
                                 headers={"Connection": "close"})
                    resp = conn.getresponse()
                    resp.read()
                    assert resp.getheader("Connection") == "close"
                finally:
                    conn.close()

            await asyncio.get_running_loop().run_in_executor(None, exchange)

        _drive(scenario)


class TestGracefulDrain:
    def test_readyz_flips_and_inflight_finishes(self):
        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build
            code, _ = await get("/readyz")
            assert code == 200
            loop = asyncio.get_running_loop()
            base = f"http://{daemon.host}:{daemon.port}"
            inflight = loop.run_in_executor(None, _post_raw, base,
                                            "/solve", _body())
            await asyncio.sleep(0.2)  # let it be admitted
            daemon.stop()
            await asyncio.sleep(0.1)  # drain begins
            code, text = await get("/readyz")
            assert code == 503
            assert json.loads(text)["reason"] == "draining"
            code, _ = await get("/healthz")
            assert code == 200  # alive, just not ready
            code, doc = await post("/solve", _body())
            assert code == 503 and doc["reason"] == "draining"
            status, doc, _headers = await inflight
            assert status == 200  # in-flight work finished inside grace
            assert not daemon.ready
            assert not daemon.busy_at_exit

        _drive(
            scenario,
            admission=AdmissionConfig(max_inflight=1, queue_depth=2),
            drill=ServeFaultPlan(slow_seconds=0.8),
            drain_grace=5.0,
        )

    def test_drain_flushes_metrics_to_file(self, tmp_path):
        out = tmp_path / "final.prom"

        async def scenario(daemon, post, get):
            await post("/solve", _body())

        _drive(scenario, metrics_out=str(out))
        text = out.read_text()
        assert "repro_requests_total" in text
        assert "repro_cache_misses_total 1" in text

    def test_queued_waiters_are_shed_on_drain(self):
        async def scenario(daemon, post, get):
            await post("/solve", _body())  # warm build
            loop = asyncio.get_running_loop()
            base = f"http://{daemon.host}:{daemon.port}"
            running = loop.run_in_executor(None, _post_raw, base,
                                           "/solve", _body())
            await asyncio.sleep(0.15)
            queued = loop.run_in_executor(None, _post_raw, base,
                                          "/solve", _body(N=31))
            await asyncio.sleep(0.15)
            assert daemon.admission.queued == 1
            daemon.stop()
            status, doc, _ = await queued
            assert status == 503 and doc["reason"] == "draining"
            status, _, _ = await running
            assert status == 200

        _drive(
            scenario,
            admission=AdmissionConfig(max_inflight=1, queue_depth=2),
            drill=ServeFaultPlan(slow_seconds=0.8),
        )


class TestDrillEndpoint:
    def test_disabled_by_default(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/drill", {"faults": "slow-solve@0.1"})
            assert code == 404

        _drive(scenario)

    def test_swaps_and_disarms_fault_plan(self):
        async def scenario(daemon, post, get):
            code, doc = await post("/drill", {"faults": "slow-solve@0.2"})
            assert code == 200
            assert doc["faults"]["slow_seconds"] == 0.2
            code, text = await get("/status")
            assert json.loads(text)["faults"]["slow_seconds"] == 0.2
            code, doc = await post("/drill", {"faults": "none"})
            assert code == 200 and doc["faults"] is None
            assert daemon.fault_plan is None
            code, doc = await post("/drill", {"faults": "bogus@1"})
            assert code == 400

        _drive(scenario, drill_endpoint=True)


class TestCli:
    def test_serve_subcommand_wired(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache-bytes", "1024",
             "--threads", "2", "--deadline", "5",
             "--port-file", "/tmp/p"]
        )
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 0 and args.cache_bytes == 1024
        assert args.deadline == 5.0
