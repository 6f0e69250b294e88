"""Hardening of the HTTP front end against misbehaving clients.

Slowloris-style stalls, header floods, oversized lines and malformed
``Content-Length`` values must each produce a bounded, well-typed
response (or a quiet close) — never a hung handler or a 500.
"""

from __future__ import annotations

import asyncio
import json

from .client import HttpClient
from .harness import with_service


def run(coro):
    return asyncio.run(coro)


async def _raw_exchange(host: str, port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        # Read concurrently with the write: the server may answer (and
        # half-close) while a deliberately oversized payload is still
        # in flight, and the response must not be lost to a reset.
        read_task = asyncio.ensure_future(reader.read())
        try:
            writer.write(payload)
            await writer.drain()
        except ConnectionError:
            pass
        return await asyncio.wait_for(read_task, timeout=30.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _status_of(response: bytes) -> int:
    return int(response.split(b"\r\n", 1)[0].split()[1])


class TestSlowClients:
    def test_idle_connection_is_closed_quietly(self):
        """A client that connects and never sends a request line is
        dropped after the idle timeout without any response bytes."""

        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                data = await asyncio.wait_for(reader.read(), timeout=30.0)
                assert data == b""  # quiet close: no 408, no error body
            finally:
                writer.close()
                await writer.wait_closed()

        run(with_service(scenario, idle_timeout=0.2))

    def test_stalled_mid_request_gets_408(self):
        """A client that sends the request line then goes silent gets a
        408 instead of parking a handler forever."""

        async def scenario(service, host, port):
            response = await _raw_exchange(
                host, port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            )  # header section never terminated
            assert _status_of(response) == 408

        run(with_service(scenario, idle_timeout=0.2))

    def test_stalled_body_gets_408(self):
        async def scenario(service, host, port):
            head = (
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{"
            )  # promises 100 bytes, sends one
            response = await _raw_exchange(host, port, head)
            assert _status_of(response) == 408

        run(with_service(scenario, idle_timeout=0.2))

    def test_fast_clients_are_unaffected_by_the_timeout(self):
        async def scenario(service, host, port):
            client = await HttpClient.connect(host, port)
            try:
                status, payload = await client.request_json("GET", "/healthz")
                assert status == 200 and payload["status"] == "ok"
            finally:
                await client.aclose()

        run(with_service(scenario, idle_timeout=5.0))


class TestMalformedFraming:
    def test_header_flood_gets_431(self):
        async def scenario(service, host, port):
            flood = b"".join(
                b"X-Flood-%d: y\r\n" % i for i in range(500)
            )
            response = await _raw_exchange(
                host, port, b"GET /healthz HTTP/1.1\r\n" + flood + b"\r\n"
            )
            assert _status_of(response) == 431
            body = json.loads(response.split(b"\r\n\r\n", 1)[1])
            assert "header lines" in body["error"]

        run(with_service(scenario))

    def test_overlong_header_line_gets_431_not_500(self):
        """A header line past the stream limit used to surface as the
        stream reader's ValueError — a generic 500."""

        async def scenario(service, host, port):
            huge = b"X-Huge: " + b"a" * (1 << 20) + b"\r\n"
            response = await _raw_exchange(
                host,
                port,
                b"GET /healthz HTTP/1.1\r\n" + huge + b"\r\n",
            )
            assert _status_of(response) == 431

        run(with_service(scenario))

    def test_overlong_request_line_gets_431(self):
        async def scenario(service, host, port):
            response = await _raw_exchange(
                host, port, b"GET /" + b"a" * (1 << 20) + b" HTTP/1.1\r\n\r\n"
            )
            assert _status_of(response) == 431

        run(with_service(scenario))


class TestContentLength:
    def _request_with_length(self, raw: bytes) -> bytes:
        return (
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + raw
            + b"\r\n\r\n"
        )

    def test_rejects_negative_plus_and_padded_values(self):
        """Bare ``int()`` accepts all of these; the wire must not."""

        async def scenario(service, host, port):
            # Note b" 5 " is absent: header values are OWS-trimmed at
            # parse time (standard HTTP), so it legitimately means 5.
            for raw in (b"-5", b"+5", b"5 5", b"5_0", b"0x10", b"nope", b""):
                response = await _raw_exchange(
                    host, port, self._request_with_length(raw)
                )
                assert _status_of(response) == 400, raw
                body = json.loads(response.split(b"\r\n\r\n", 1)[1])
                assert "Content-Length" in body["error"]

        run(with_service(scenario))

    def test_oversized_body_still_413(self):
        async def scenario(service, host, port):
            response = await _raw_exchange(
                host, port, self._request_with_length(b"2097152")
            )
            assert _status_of(response) == 413

        run(with_service(scenario))

    def test_valid_zero_and_exact_lengths_still_work(self):
        async def scenario(service, host, port):
            client = await HttpClient.connect(host, port)
            try:
                status, _ = await client.request_json("GET", "/healthz")
                assert status == 200
                status, payload = await client.request_json(
                    "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                assert payload["status"] in ("queued", "running", "done")
            finally:
                await client.aclose()

        run(with_service(scenario))
