"""Local chat-completions endpoint that answers like a language model would.

    python3 mockchat.py

Binds 127.0.0.1 on a free port, prints the port on one line and serves
until its standard input closes. POST /v1/chat/completions answers with
an allocation for the cohort in the prompt; GET /stats returns the
request and unparseable-reply counts.

Every reply is a deterministic function of the sha256 of the prompt. One
prompt in UNPARSEABLE_EVERY gets prose with no allocation lines, so the
arena's parse retry runs; a retry prompt (which carries the arena's
"could not be parsed" reminder) always gets a parseable reply, so no
debate fails. One parseable reply in OVERSHOOT_EVERY overshoots the ICU
supply by a unit, as models do, so the feasibility verdicts vary.

Each connection gets its own thread (both agents keep a connection open
for a whole run), and each response goes out in a single write with
TCP_NODELAY set, so no delayed-ACK stall sits between header and body.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

RESOURCES = ("ICU", "Vent", "MedA", "MedB", "Nursing", "Surgery")
UNIT_RESOURCES = {"ICU", "Vent", "Surgery"}
UNPARSEABLE_EVERY = 10
OVERSHOOT_EVERY = 8
RETRY_MARKER = "Your previous reply could not be parsed."

_CAPACITY_RE = re.compile(r"^Available capacity \([^)]*\): (.*)$", re.MULTILINE)
_PATIENT_RE = re.compile(r"^Patient (\d+): age [^\n]*?; needs ([^;]*);", re.MULTILINE)


def _quantity(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.2f}"


def reply_for(prompt: str) -> tuple[str, bool]:
    """The reply to a prompt and whether it is deliberately unparseable."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    rng = random.Random(digest)
    if digest[0] % UNPARSEABLE_EVERY == 0 and RETRY_MARKER not in prompt:
        return (
            "I want to weigh each patient's relationships and dependants "
            "carefully before committing to numbers, so let me first restate "
            "the considerations that matter most in this cohort.",
            True,
        )
    supply = {}
    for item in _CAPACITY_RE.search(prompt).group(1).split(", "):
        name, value = item.split(": ")
        supply[name] = float(value)
    needs = {int(pid): set(n.strip() for n in listed.split(",")) for pid, listed in _PATIENT_RE.findall(prompt)}
    rows = {pid: [0.0] * len(RESOURCES) for pid in needs}
    for j, resource in enumerate(RESOURCES):
        needers = sorted(pid for pid, wanted in needs.items() if resource in wanted)
        rng.shuffle(needers)
        if resource in UNIT_RESOURCES:
            for pid in needers[: int(supply[resource])]:
                rows[pid][j] = 1.0
        elif needers:
            weights = [rng.randint(1, 4) for _ in needers]
            for pid, w in zip(needers, weights):
                rows[pid][j] = int(supply[resource] * w / sum(weights) * 100) / 100
    if digest[1] % OVERSHOOT_EVERY == 0 and rows:
        rows[min(rows)][0] += 1.0
    lines = [
        f"Patient {pid}: [" + ", ".join(_quantity(v) for v in rows[pid]) + "]"
        for pid in sorted(rows)
    ]
    return (
        "Here is my proposed allocation, weighing relationships of care and "
        "dependency alongside clinical need.\n\n"
        + "\n".join(lines)
        + "\n\nJustification: patients with dependants and those least able to "
        "advocate for themselves are protected first, within capacity.",
        False,
    )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            self._send(200, dict(self.server.counts))

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        prompt = body["messages"][-1]["content"]
        content, unparseable = reply_for(prompt)
        with self.server.lock:
            self.server.counts["requests"] += 1
            self.server.counts["unparseable"] += int(unparseable)
        self._send(
            200,
            {
                "id": "mock-" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:12],
                "object": "chat.completion",
                "model": body.get("model", "mock"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": "stop",
                    }
                ],
            },
        )


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.counts = {"requests": 0, "unparseable": 0}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # serve until the parent closes our stdin
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
