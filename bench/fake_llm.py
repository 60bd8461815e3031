"""A local stand-in for an OpenAI-compatible chat endpoint.

It answers `POST .../chat/completions` by replaying the bundled
`apartment_*` scripts, the user script to the simulated owner and the
assistant script to the assistant, and idles once a script runs out. Every
reply waits a fixed delay, as a model would, and at most a fixed number of
requests are served at once. Replies are a pure function of the request's
messages, so concurrent episodes cannot disturb one another.

`GET /stats` returns how many chat requests were served. The server binds
127.0.0.1 on a free port and prints `port N` on its first line of output.
It stops when its standard input closes, so it cannot outlive the process
that started it.

    python3 bench/fake_llm.py --scripts src/phonesim/data/scripts
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import yaml

IDLE = {"user": "noop", "assistant": "AgentUserInterface__wait"}
DELAY_S = 0.02              # per reply, as a model would take
MAX_CONNECTIONS = 2


def _applies(step: dict, view: str) -> bool:
    """The scripted-policy gates, read off the rendered view text."""
    when = step.get("when")
    if when is None:
        return True
    if when == "proposal_pending":
        return "\nThe assistant proposes: " in view
    if when.startswith("mode:"):
        return f"\nMode: {when.split(':', 1)[1]}\n" in view + "\n"
    raise ValueError(f"unknown step gate {when!r}")


def reply(messages: list[dict], scripts: dict[str, list[dict]]) -> str:
    """Replay the role's script over the conversation so far; the step for
    the newest view is the reply."""
    role = "user" if messages[0]["content"].startswith("You are role-playing the owner") \
        else "assistant"
    steps, cursor, step = scripts[role], 0, None
    for message in messages[1:]:
        if message["role"] != "user":
            continue
        step = None
        if cursor < len(steps) and _applies(steps[cursor], message["content"]):
            step = steps[cursor]
            cursor += 1
    if step is None:
        step = {"action": IDLE[role], "thought": "Nothing to do."}
    action = {"action": step["action"], "action_input": step.get("action_input", {})}
    return (f"Thought: {step.get('thought', '')}\nAction:\n"
            f"{json.dumps(action, sort_keys=True)}\n<end_action>")


class FakeChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, scripts: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.scripts = scripts
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self.lock = threading.Lock()
        self.served = 0

    def process_request(self, request, client_address):
        self.slots.acquire()          # accept no more than MAX_CONNECTIONS at once
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class _Handler(BaseHTTPRequestHandler):
    server: FakeChatServer

    def do_POST(self):
        if not self.path.endswith("/chat/completions"):
            self._send(404, {"error": "not found"})
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = reply(body["messages"], self.server.scripts)
        time.sleep(DELAY_S)
        with self.server.lock:
            self.server.served += 1
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            served = self.server.served
        self._send(200, {"served": served})

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scripts", required=True, help="directory of apartment_*.yaml")
    args = parser.parse_args()
    scripts = {}
    for role in IDLE:
        with open(Path(args.scripts) / f"apartment_{role}.yaml", encoding="utf-8") as fh:
            scripts[role] = yaml.safe_load(fh)["steps"]
    server = FakeChatServer(scripts)
    print(f"port {server.server_address[1]}", flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    server.serve_forever()
    server.server_close()


if __name__ == "__main__":
    main()
