"""Keep-alive HTTP client for the JSON endpoints of the chat and embedding
backends, on the standard library alone.

One `JsonEndpoint` serves one URL. It keeps the connections that are
idle in a lock-guarded list: a request takes one, or opens a new one,
and puts it back once the whole response body has been read. So there
is one open connection per concurrent request, and the debate threads of
`run --jobs N` can share a backend.

The proxy comes from the environment (`http_proxy`, `https_proxy`,
`no_proxy`), read once when the endpoint is built. Through a proxy, an
http URL is requested in absolute form and an https URL through a
CONNECT tunnel. https is verified against the system trust store.

The module is imported only where a backend that needs it is built, so
commands that open no transport never load `http.client` or `ssl`.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import ssl
import threading
import time
import urllib.parse
import urllib.request

from .model import TransportError

__all__ = ["JsonEndpoint"]

logger = logging.getLogger(__name__)


class JsonEndpoint:
    """POSTs JSON payloads to one URL and returns the decoded 200 bodies.

    Transport failures (`OSError`, `http.client.HTTPException`), 5xx and
    429 answers are retried up to `retries` times, sleeping
    `backoff * attempt` seconds before each retry. Any other status, and
    a 200 body that is not JSON, raise `error` at once.
    """

    def __init__(
        self,
        url: str,
        timeout: float,
        retries: int,
        backoff: float,
        error: type[TransportError] = TransportError,
    ):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {url!r}")
        self.url = url
        self.retries = retries
        self.backoff = backoff
        self.error = error
        netloc = parts.netloc.rpartition("@")[2]
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json", "User-Agent": "triage-arena"}
        self._address = (parts.hostname, parts.port)
        self._tunnel = None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(netloc):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if proxy_parts.username is not None:
                user = urllib.parse.unquote(proxy_parts.username)
                password = urllib.parse.unquote(proxy_parts.password or "")
                token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
                auth = {"Proxy-Authorization": f"Basic {token}"}
            self._address = (proxy_parts.hostname, proxy_parts.port or 80)
            if parts.scheme == "https":
                self._tunnel = (parts.hostname, parts.port, auth)
            else:
                self._target = f"http://{netloc}{self._target}"
                self._headers.update(auth)
        self._timeout = timeout
        self._tls = ssl.create_default_context() if parts.scheme == "https" else None
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        host, port = self._address
        if self._tls is None:
            return http.client.HTTPConnection(host, port, timeout=self._timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self._timeout, context=self._tls)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """One request and its whole response, on a pooled connection."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        try:
            while True:
                if conn is None:
                    conn = self._connect()
                try:
                    conn.request("POST", self._target, body, self._headers)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    # A kept-alive connection that the server has closed
                    # fails before any response byte arrives, so the
                    # request is sent again, once, on a new connection.
                    if not reused:
                        raise
                    conn.close()
                    conn, reused = None, False
            data = response.read()
        except BaseException:
            if conn is not None:
                conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response.status, data

    def post(self, payload) -> object:
        """Send `payload` and return the decoded JSON body of the 200 answer.

        The body is `json.dumps(payload, allow_nan=False)` in UTF-8, with
        `Content-Type: application/json`.
        """
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt and self.backoff:
                time.sleep(self.backoff * attempt)
            started = time.monotonic()
            try:
                status, data = self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = self.error(f"transport failure: {type(exc).__name__}: {exc}")
                continue
            latency = time.monotonic() - started
            logger.debug("POST %s: HTTP %d in %.3fs, attempt %d", self.url, status, latency, attempt + 1)
            if status == 200:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise self.error(f"malformed response body: {exc}") from exc
            if status < 500 and status != 429:
                raise self.error(f"request failed: HTTP {status}")
            last_error = self.error(f"retryable HTTP {status} after {latency:.2f}s")
        raise last_error

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
