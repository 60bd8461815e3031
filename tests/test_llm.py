import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import phonesim.llm
from phonesim.apps import BUILDERS, build_app
from phonesim.errors import RetriesExhausted, ScenarioParseError
from phonesim.fsm import render_app_reference
from phonesim.interfaces import AgentView
from phonesim.llm import LLMAssistantPolicy, LLMClient, LLMConfig, load_llm_config


class RecordingClient:
    def __init__(self):
        self.systems = []

    def complete(self, messages):
        self.systems.append(messages[0]["content"])
        return 'Thought: wait\nAction: AgentUserInterface__wait\nAction Input: {}'


def agent_view(mode):
    return AgentView(mode=mode, active_task=None, notifications=(), user_actions=(),
                     current_time="2025-06-01 09:00", apps=("EmailApp",))


def test_assistant_renders_its_system_prompts_once(monkeypatch):
    calls = []
    real = phonesim.llm.load_prompt

    def counting(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(phonesim.llm, "load_prompt", counting)
    client = RecordingClient()
    policy = LLMAssistantPolicy(client, {"AVAILABLE_APPS": "EmailApp"})
    for mode in ("observe", "execute", "observe", "awaiting_confirmation", "execute"):
        policy.act(agent_view(mode))
    assert sorted(calls) == ["execute_system", "observe_system"]
    observe, execute = policy.observe_system, policy.execute_system
    assert observe != execute and "{{AVAILABLE_APPS}}" not in observe + execute
    assert client.systems == [observe, execute, observe, observe, execute]


# The app reference goes into every `llm:` prompt, and so into the `llm_fake`
# benchmark. A deliberate change to it updates this digest and says so in
# CHANGES.md; any other change here is an accident.
APP_REFERENCE_SHA256 = "acc2dffdc70f2b3c3d24230a5ba7ea5af2780d17d91d1997f0896701463852ae"


def test_app_reference_text_is_frozen():
    text = render_app_reference([build_app(app_id) for app_id in BUILDERS])
    assert len(text) == 13_248
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == APP_REFERENCE_SHA256


@pytest.fixture
def endpoint():
    """A local chat endpoint on a free port that answers each request with
    the next status in its `statuses` list; `requests` counts the calls."""
    state = {"statuses": [], "requests": 0}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            state["requests"] += 1
            status = state["statuses"].pop(0)
            body = json.dumps({"choices": [{"message": {"content": "hello"}}]}
                              if status == 200 else {"error": "busy"}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_address[1]}"
    yield state
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.mark.parametrize("statuses,retries,text,sleeps", [
    ([503, 503, 503], 3, None, [1, 2]),
    ([503], 1, None, []),
    ([503, 200], 3, "hello", [1]),
    ([200], 1, "hello", []),
])
def test_complete_retries_and_sleeps_between_attempts_only(
        endpoint, monkeypatch, statuses, retries, text, sleeps):
    """`retries` counts every attempt, and no sleep follows the last one."""
    slept = []
    monkeypatch.setattr(phonesim.llm.time, "sleep", slept.append)
    endpoint["statuses"] = list(statuses)
    client = LLMClient(LLMConfig(base_url=endpoint["url"], model="m", retries=retries))
    if text is None:
        with pytest.raises(RetriesExhausted, match="HTTP 503"):
            client.complete([{"role": "user", "content": "hi"}])
    else:
        assert client.complete([{"role": "user", "content": "hi"}]) == text
    assert endpoint["requests"] == len(statuses)
    assert slept == sleeps


@pytest.mark.parametrize("retries", ["0", "-1", "1.5", "true", "'2'"])
def test_load_llm_config_refuses_retries_below_one_attempt(tmp_path, retries):
    path = tmp_path / "llm.yaml"
    path.write_text(f"base_url: http://127.0.0.1:9\nmodel: m\nretries: {retries}\n", "utf-8")
    with pytest.raises(ScenarioParseError) as exc:
        load_llm_config(path)
    message = str(exc.value)
    assert "retries must be an integer of at least 1" in message and "\n" not in message
