"""The one HTTP path to outside services: a JSON POST with bounded retries.

The chat-completions client and the external retriever both send through
``post_json``, built on the standard library's ``http.client``.  Each calling
thread keeps one keep-alive HTTP/1.1 connection per service (scheme, host
and port), so requests in flight are never more than the calling threads
and no connection is discarded at any concurrency.  Before a connection is
reused, a zero-timeout poll checks whether the server closed it while it sat
idle; such a connection is replaced at no cost of an attempt.

A ``RETRYABLE_STATUS`` reply, a connection error or a timeout is retried, up
to ``MAX_ATTEMPTS`` attempts for every request, after an exponential backoff;
a ``Retry-After`` header in delay-seconds (RFC 9110 §10.2.3) lengthens that
wait, up to ``MAX_RETRY_AFTER``.  Any other status but 200 fails at once,
3xx included: redirects are not followed.

``timeout`` bounds each attempt from its start.  The connect, the send and
each read of the reply (status line, headers and body) may take only the
time left of it, so a reply that trickles in fails as a (retryable) timeout
once the time is up.

Proxies come from the environment (``HTTP_PROXY``, ``HTTPS_PROXY`` and
``NO_PROXY``, read by ``urllib.request``): an http request goes to the
proxy with its absolute URL as the target, and an https request through a
``CONNECT`` tunnel.  TLS is verified against the system CA store
(``ssl.create_default_context``; ``SSL_CERT_FILE`` overrides it).
"""

from __future__ import annotations

import functools
import http.client
import io
import json
import select
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
from typing import Any, Mapping

from . import __version__
from .errors import TransportError

MAX_ATTEMPTS = 3  # attempts per request, read at each call
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
BACKOFF_BASE = 0.5  # seconds before the second attempt, doubled after each
MAX_RETRY_AFTER = 30.0  # longest wait a server's Retry-After can ask for

_HEADERS = {"Content-Type": "application/json",
            "User-Agent": f"hopground/{__version__}"}


class _Connections(dict):
    """One thread's connections by origin, closed as the thread (or, for the
    main thread, the interpreter) ends: none is left for the garbage
    collector to close with a ``ResourceWarning``."""

    def __del__(self):
        for conn, _ in self.values():
            conn.close()


_local = threading.local()


def check_url(url: str) -> urllib.parse.SplitResult:
    """``url`` split into its parts; a ``ValueError`` unless it is an
    ``http://`` or ``https://`` URL with a host (and a valid port)."""
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port  # raises on a port that is not a number in range
        valid = parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"must be an http:// or https:// URL with a host, "
                         f"got {url!r}")
    return parts


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


def _open(parts: urllib.parse.SplitResult,
          timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """A new connection to ``parts``' service, through the environment's
    proxy unless ``NO_PROXY`` exempts the host, and the prefix that makes a
    request target: the origin itself when an http proxy needs the absolute
    form, else nothing.  A proxy setting that is not an http(s) URL with a
    host (a SOCKS proxy, say) raises ``ValueError``."""
    host, port = parts.hostname, parts.port
    netloc = parts.netloc.rpartition("@")[2]  # no credentials
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and urllib.request.proxy_bypass(netloc):
        proxy = None
    if proxy:
        proxy = check_url(proxy if "://" in proxy else f"http://{proxy}")
        host, port = proxy.hostname, proxy.port
    if parts.scheme == "http":
        return (http.client.HTTPConnection(host, port, timeout=timeout),
                f"http://{netloc}" if proxy else "")
    conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                       context=_tls_context())
    if proxy:
        conn.set_tunnel(parts.hostname, parts.port)
    return conn, ""


def _closed_while_idle(sock: socket.socket) -> bool:
    """Whether an idle connection's socket is readable: the server closed it
    (or sent bytes nobody asked for), so it cannot carry a request."""
    if hasattr(select, "poll"):  # select() fails on fds above FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _connection(parts: urllib.parse.SplitResult,
                timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """This thread's connection to ``parts``' service, and its target
    prefix; a new one when there is none or the last one was closed."""
    connections = _local.__dict__.setdefault("connections", _Connections())
    origin = (parts.scheme, parts.netloc)
    conn, prefix = connections.get(origin, (None, ""))
    if conn is None or conn.sock is None or _closed_while_idle(conn.sock):
        if conn is not None:
            conn.close()
        conn, prefix = connections[origin] = _open(parts, timeout)
    return conn, prefix


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``; ``TimeoutError`` once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _DeadlineReader(io.RawIOBase):
    """``sock``'s bytes, each read given only the time left before
    ``deadline``, so a byte that arrives does not restart the wait.
    ``http.client`` reads a reply through ``makefile``."""

    def __init__(self, sock: socket.socket, deadline: float):
        super().__init__()
        self._sock = sock
        self._raw = sock.makefile("rb", buffering=0)
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int | None:
        self._sock.settimeout(_time_left(self._deadline))
        return self._raw.readinto(buffer)

    def makefile(self, *args: Any) -> io.BufferedReader:
        return io.BufferedReader(self)

    def close(self) -> None:
        self._raw.close()  # else the socket outlives its connection
        super().close()


def _reply(deadline: float, sock: socket.socket, *args: Any,
           **kwargs: Any) -> http.client.HTTPResponse:
    """A connection's ``response_class``: a reply read by deadline."""
    return http.client.HTTPResponse(_DeadlineReader(sock, deadline),
                                    *args, **kwargs)


def _retry_after(resp: http.client.HTTPResponse) -> float:
    """The reply's ``Retry-After`` in seconds, capped; 0 unless delay-seconds.

    An HTTP-date, a missing header or any other value gives 0, which leaves
    the backoff alone.
    """
    value = (resp.getheader("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), MAX_RETRY_AFTER)


def post_json(url: str, payload: Any, timeout: float,
              headers: Mapping[str, str] | None = None) -> bytes:
    """POST ``payload`` as JSON to ``url`` and return the 200 reply's body.

    Raises ``TransportError`` at once for a URL that is not http(s) with a
    host, a payload that is not JSON (NaN and infinities included) and a
    status that is neither 200 nor retryable, and when every attempt failed.
    """
    try:
        parts = check_url(url)
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise TransportError(f"cannot send to {url!r}: {exc}") from exc
    path = parts.path or "/"
    path += f"?{parts.query}" if parts.query else ""
    sent = {**_HEADERS, **(headers or {})}
    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(max(BACKOFF_BASE * (2 ** (attempt - 1)), retry_after))
        retry_after = 0.0
        deadline = time.monotonic() + timeout
        try:
            conn, prefix = _connection(parts, timeout)
        except ValueError as exc:
            raise TransportError(f"bad proxy for {url}: {exc}") from exc
        # every reply, a proxy's CONNECT reply too, is read by the deadline
        conn.response_class = functools.partial(_reply, deadline)
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.settimeout(_time_left(deadline))
            conn.request("POST", prefix + path, body, sent)
            with conn.getresponse() as resp:
                reply = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            last_error = exc
            continue
        except ValueError as exc:  # a header value with a newline, say
            conn.close()
            raise TransportError(f"cannot send to {url!r}: {exc}") from exc
        if resp.status == 200:
            return reply
        if resp.status in RETRYABLE_STATUS:
            last_error = TransportError(f"HTTP {resp.status} from {url}")
            retry_after = _retry_after(resp)
            continue
        raise TransportError(f"HTTP {resp.status} from {url}: "
                             f"{reply.decode('utf-8', 'replace')[:200]}")
    raise TransportError(
        f"request failed after {MAX_ATTEMPTS} attempts: {last_error}")
