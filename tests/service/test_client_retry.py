"""ServiceClient transient-failure retries.

A raw socket stand-in for a restarting server: it accepts and
immediately drops the first N connections (the client sees a reset /
empty response), then serves a canned JSON 200.  The client must ride
out the drops on idempotent GETs, must NOT silently repeat a POST
beyond the free stale-keep-alive reconnect, and must repeat flagged
POSTs (the fabric workers' case — their completions deduplicate
server-side).
"""

import contextlib
import socket
import threading

import pytest

from repro.service.client import ServiceClient

_BODY = b'{"ok": true}'
_RESPONSE = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: " + str(len(_BODY)).encode() + b"\r\n"
    b"Connection: close\r\n\r\n" + _BODY
)


class FlakyServer:
    """Drops the first ``failures`` connections, then answers 200."""

    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.connections = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                self.connections += 1
                if self.connections <= self.failures:
                    continue  # close without a byte: reset/empty
                try:
                    conn.recv(65536)
                    conn.sendall(_RESPONSE)
                except OSError:
                    pass

    def __enter__(self) -> "FlakyServer":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=5.0)


def _client(port: int, retries: int = 2) -> ServiceClient:
    return ServiceClient(
        port=port,
        timeout_s=5.0,
        retries=retries,
        retry_backoff_s=0.01,
    )


class TestGetRetries:
    def test_get_rides_out_transient_drops(self):
        with FlakyServer(failures=2) as server:
            with _client(server.port, retries=2) as client:
                assert client.request("GET", "/healthz") == {"ok": True}
            assert server.connections == 3

    def test_get_raises_after_budget_exhausted(self):
        with FlakyServer(failures=10) as server:
            with _client(server.port, retries=2) as client:
                with pytest.raises(
                    (ConnectionError, OSError)
                ):
                    client.request("GET", "/healthz")
            # 1 initial + 2 retries, never more.
            assert server.connections == 3

    def test_connection_refused_surfaces_after_retries(self):
        # Nothing listens on this port at all.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        with _client(port, retries=1) as client:
            with pytest.raises(ConnectionRefusedError):
                client.request("GET", "/healthz")


class TestPostRetries:
    def test_post_gets_only_the_free_reconnect(self):
        # One drop looks like a stale keep-alive: repeated once, free.
        with FlakyServer(failures=1) as server:
            with _client(server.port, retries=5) as client:
                assert client.request("POST", "/x", {}) == {"ok": True}
            assert server.connections == 2
        # Two drops exceed the free reconnect: an unflagged POST is
        # never exponentially retried, no matter the retry budget.
        with FlakyServer(failures=2) as server:
            with _client(server.port, retries=5) as client:
                with pytest.raises((ConnectionError, OSError)):
                    client.request("POST", "/x", {})
            assert server.connections == 2

    def test_flagged_post_retries_like_a_get(self):
        with FlakyServer(failures=2) as server:
            with _client(server.port, retries=2) as client:
                assert (
                    client.request("POST", "/x", {}, retry=True)
                    == {"ok": True}
                )
            assert server.connections == 3
