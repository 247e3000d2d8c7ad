"""Faults, proxies and concurrency of the keep-alive JSON transport, against
local servers."""

from __future__ import annotations

import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from triage_arena.agents import ChatBackendConfig, ChatTransportError, chat_generate
from triage_arena.transport import JsonEndpoint

from conftest import chat_reply

REPLY = json.dumps({"choices": [{"message": {"role": "assistant", "content": "FIXED BODY"}}]}).encode()


class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler; `server.script` picks each answer.

    The script is a list of actions, one per request, and the last one
    repeats: "ok", "close-after" (answer, then close the connection
    without saying so), "truncate" (promise more body than is sent,
    then close), "malformed" and "no-choices" (a 200 the client cannot
    use), "stall" (never answer), "echo" (answer with the request's JSON)
    or an int status without a body.
    """

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def _reply(self, status: int, body: bytes, length: int | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            server.requests.append((self.requestline, dict(self.headers), body))
            action = server.script[min(len(server.requests), len(server.script)) - 1]
        if action == "stall":
            server.release.wait(5)
            self.close_connection = True
        elif action == "truncate":
            self._reply(200, REPLY[:10], length=len(REPLY))
            self.close_connection = True
        elif action == "malformed":
            self._reply(200, b"not json")
        elif action == "no-choices":
            self._reply(200, b'{"choices": []}')
        elif action == "echo":
            self._reply(200, json.dumps({"echo": json.loads(body)}).encode())
        elif isinstance(action, int):
            self._reply(action, b"")
        else:
            self._reply(200, REPLY)
            self.close_connection = action == "close-after"

    do_CONNECT = do_POST


@pytest.fixture
def serve():
    """Start local keep-alive servers: serve(script) -> (server, url)."""
    started = []

    def start(script=("ok",)):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.daemon_threads = True
        server.lock = threading.Lock()
        server.requests = []
        server.connections = 0
        server.script = list(script)
        server.release = threading.Event()
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        started.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"

    yield start
    for server, thread in started:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _config(url, **kw):
    return ChatBackendConfig(endpoint=url, model="m", backoff=0, **kw)


class TestFaults:
    def test_idle_connection_closed_by_server_is_sent_again(self, serve, no_proxy_env):
        server, url = serve(["close-after"])
        config = _config(url, retries=0)
        # no retry budget: only the stale-connection resend can save call 2
        transport = JsonEndpoint(url, timeout=5, retries=0, backoff=0, error=ChatTransportError)
        assert chat_generate(config, "one", transport) == "FIXED BODY"
        assert chat_generate(config, "two", transport) == "FIXED BODY"
        transport.close()
        assert len(server.requests) == 2
        assert server.connections == 2

    def test_truncated_body_is_retried(self, serve, no_proxy_env):
        server, url = serve(["truncate", "ok"])
        assert chat_reply(_config(url, retries=1), "hello") == "FIXED BODY"
        assert len(server.requests) == 2

    @pytest.mark.parametrize("action", ["malformed", "no-choices"])
    def test_malformed_200_raises_after_one_request(self, serve, no_proxy_env, action):
        server, url = serve([action])
        with pytest.raises(ChatTransportError, match="malformed"):
            chat_reply(_config(url, retries=2), "hello")
        assert len(server.requests) == 1

    def test_read_timeout_raises_after_every_attempt(self, serve, no_proxy_env):
        server, url = serve(["stall"])
        with pytest.raises(ChatTransportError, match="timed out"):
            chat_reply(_config(url, retries=2, timeout=0.2), "hello")
        assert len(server.requests) == 3

    def test_redirect_is_an_error_not_followed(self, serve, no_proxy_env):
        server, url = serve([302])
        with pytest.raises(ChatTransportError, match="HTTP 302"):
            chat_reply(_config(url, retries=2), "hello")
        assert len(server.requests) == 1

    def test_request_body_is_compact_json_of_the_payload(self, serve, no_proxy_env):
        server, url = serve()
        config = _config(url, temperature=0.25)
        chat_reply(config, "allocate wisely éø  ")
        _, headers, body = server.requests[0]
        payload = {
            "model": "m",
            "messages": [{"role": "user", "content": "allocate wisely éø  "}],
            "temperature": 0.25,
            "max_tokens": 2048,
        }
        assert body == json.dumps(payload, allow_nan=False).encode()
        assert headers["Content-Type"] == "application/json"

    def test_bad_endpoint_url_rejected(self):
        with pytest.raises(ValueError):
            JsonEndpoint("http:///no-host", timeout=1, retries=0, backoff=0)


class TestProxy:
    def test_http_proxy_gets_the_request_in_absolute_form(self, serve, no_proxy_env):
        origin, url = serve()
        proxy, _ = serve()
        no_proxy_env.setenv("http_proxy", f"http://127.0.0.1:{proxy.server_port}")
        assert chat_reply(_config(url), "hello") == "FIXED BODY"
        assert origin.requests == []
        (requestline, headers, _), = proxy.requests
        assert requestline == f"POST {url} HTTP/1.1"
        assert headers["Host"] == f"127.0.0.1:{origin.server_port}"

    def test_proxy_credentials_are_sent_to_the_proxy(self, serve, no_proxy_env):
        _, url = serve()
        proxy, _ = serve()
        no_proxy_env.setenv("http_proxy", f"http://us%40er:pw@127.0.0.1:{proxy.server_port}")
        chat_reply(_config(url), "hello")
        (_, headers, _), = proxy.requests
        assert headers["Proxy-Authorization"] == "Basic dXNAZXI6cHc="  # us@er:pw

    def test_no_proxy_bypasses_the_proxy(self, serve, no_proxy_env):
        origin, url = serve()
        proxy, _ = serve()
        no_proxy_env.setenv("http_proxy", f"http://127.0.0.1:{proxy.server_port}")
        no_proxy_env.setenv("no_proxy", "127.0.0.1")
        assert chat_reply(_config(url), "hello") == "FIXED BODY"
        assert proxy.requests == []
        assert len(origin.requests) == 1

    def test_https_goes_through_a_connect_tunnel(self, serve, no_proxy_env):
        # the proxy refuses the tunnel, so no TLS handshake is attempted
        proxy, _ = serve([403])
        no_proxy_env.setenv("https_proxy", f"http://127.0.0.1:{proxy.server_port}")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ChatTransportError, match="403"):
            chat_reply(_config(f"https://127.0.0.1:{port}/v1/chat", retries=0), "hello")
        (requestline, _, _), = proxy.requests
        assert requestline == f"CONNECT 127.0.0.1:{port} HTTP/1.0"

    def test_proxy_is_read_once_per_backend(self, serve, no_proxy_env):
        origin, url = serve()
        proxy, _ = serve()
        transport = JsonEndpoint(url, timeout=5, retries=0, backoff=0)
        no_proxy_env.setenv("http_proxy", f"http://127.0.0.1:{proxy.server_port}")
        transport.post({"prompt": "hello"})
        transport.close()
        assert proxy.requests == []
        assert len(origin.requests) == 1


def test_shared_endpoint_under_thread_contention(serve, no_proxy_env):
    """Eight threads on one endpoint each get their own answers, and no
    more connections are opened than requests run at once."""
    server, url = serve(["echo"])
    endpoint = JsonEndpoint(url, timeout=10, retries=0, backoff=0)
    results = {}
    errors = []

    def worker(w):
        try:
            for i in range(25):
                results[w, i] = endpoint.post({"worker": w, "i": i})["echo"]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    endpoint.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == {(w, i): {"worker": w, "i": i} for w in range(8) for i in range(25)}
    assert len(server.requests) == 200
    assert server.connections <= 8
