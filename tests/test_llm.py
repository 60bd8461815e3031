import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import pytest

import phonesim
import phonesim.llm
from phonesim.apps import BUILDERS, build_app
from phonesim.cli import main
from phonesim.errors import EndpointUnavailable, RetriesExhausted, ScenarioParseError
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
    """A local chat endpoint on a free port. Each request gets the next reply
    in its `statuses` list: an HTTP status (200 carries a chat reply), raw
    bytes sent as a 200 body, or "stall", which answers nothing until the
    test ends. `requests` counts the calls; `paths`, `headers` and `bodies`
    keep what each one sent."""
    state = {"statuses": [], "requests": 0, "paths": [], "headers": [], "bodies": []}
    release = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            state["requests"] += 1
            state["paths"].append(self.path)
            state["headers"].append(dict(self.headers))
            state["bodies"].append(json.loads(body))
            status = state["statuses"].pop(0)
            if status == "stall":
                release.wait(10)
                return
            if isinstance(status, bytes):
                status, body = 200, status
            else:
                body = json.dumps({"choices": [{"message": {"content": "hello"}}]}
                                  if status == 200 else {"error": "busy"}).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_address[1]}"
    yield state
    release.set()
    server.shutdown()
    server.server_close()
    thread.join()


def hi(client):
    return client.complete([{"role": "user", "content": "hi"}])


@pytest.fixture
def slept(monkeypatch):
    """The backoff sleeps `complete` asks for, none of them taken."""
    slept = []
    monkeypatch.setattr(phonesim.llm.time, "sleep", slept.append)
    return slept


@pytest.mark.parametrize("statuses,retries,text,sleeps", [
    ([503, 503, 503], 3, None, [1, 2]),
    ([503], 1, None, []),
    ([503, 200], 3, "hello", [1]),
    ([200], 1, "hello", []),
])
def test_complete_retries_and_sleeps_between_attempts_only(
        endpoint, slept, statuses, retries, text, sleeps):
    """`retries` counts every attempt, and no sleep follows the last one."""
    endpoint["statuses"] = list(statuses)
    client = LLMClient(LLMConfig(base_url=endpoint["url"], model="m", retries=retries))
    if text is None:
        with pytest.raises(RetriesExhausted, match="HTTP 503"):
            hi(client)
    else:
        assert hi(client) == text
    assert endpoint["requests"] == len(statuses)
    assert slept == sleeps


def test_a_refused_connection_is_retried_like_a_busy_reply(slept):
    # Nothing listens on the discard port.
    client = LLMClient(LLMConfig(base_url="http://127.0.0.1:9", model="m", retries=3))
    with pytest.raises(EndpointUnavailable, match="cannot reach http://127.0.0.1:9/"):
        hi(client)
    assert slept == [1, 2]


def test_a_client_error_is_one_attempt(endpoint, slept):
    endpoint["statuses"] = [400, 200]
    client = LLMClient(LLMConfig(base_url=endpoint["url"], model="m", retries=3))
    with pytest.raises(RetriesExhausted, match=r"HTTP 400: \{\"error\": \"busy\"\}"):
        hi(client)
    assert endpoint["requests"] == 1 and slept == []


@pytest.mark.parametrize("statuses,error", [
    (["stall"], EndpointUnavailable),
    (["stall", 503], RetriesExhausted),
    ([503, "stall"], EndpointUnavailable),
    (["stall", 200], None),
])
def test_a_timeout_is_retried_and_the_last_failure_is_raised(endpoint, slept, statuses, error):
    endpoint["statuses"] = list(statuses)
    client = LLMClient(LLMConfig(base_url=endpoint["url"], model="m", timeout=0.3,
                                 retries=len(statuses)))
    if error is None:
        assert hi(client) == "hello"
    else:
        with pytest.raises(error):
            hi(client)
    assert endpoint["requests"] == len(statuses)
    assert slept == [1, 2, 4][:len(statuses) - 1]


@pytest.mark.parametrize("body,message", [
    (b"<html>Bad gateway</html>", "unexpected response shape: <html>"),
    (b"\xff\xfe{}", "unexpected response shape: "),
    (b"", "unexpected response shape: "),
    (b"[]", "unexpected response shape: "),
    (b'{"choices": ["hello"]}', "unexpected response shape: "),
    (b'{"choices": [{"message": {"content": null}}]}', "response carried no text content"),
    (b'{"choices": [{"message": {"content": 42}}]}', "response carried no text content"),
])
def test_a_reply_that_is_not_a_chat_reply_is_one_error(endpoint, slept, body, message):
    endpoint["statuses"] = [body]
    client = LLMClient(LLMConfig(base_url=endpoint["url"], model="m"))
    with pytest.raises(RetriesExhausted, match=message):
        hi(client)
    assert endpoint["requests"] == 1 and slept == []


def test_the_request_carries_the_config(endpoint, monkeypatch):
    endpoint["statuses"] = [200, 200]
    config = LLMConfig(base_url=endpoint["url"] + "/v1/", model="m", temperature=0.5,
                       max_output=77, api_key_env="PHONESIM_TEST_KEY")
    monkeypatch.delenv("PHONESIM_TEST_KEY", raising=False)
    assert hi(LLMClient(config)) == "hello"
    monkeypatch.setenv("PHONESIM_TEST_KEY", "sk-test")
    assert hi(LLMClient(config)) == "hello"
    expected = {"model": "m", "messages": [{"role": "user", "content": "hi"}],
                "temperature": 0.5, "max_tokens": 77}
    assert endpoint["bodies"] == [expected, expected]
    without, with_key = endpoint["headers"]
    assert "Authorization" not in without
    assert with_key["Authorization"] == "Bearer sk-test"
    assert without["Content-Type"] == with_key["Content-Type"] == "application/json"


def test_the_request_goes_through_the_environments_proxy(endpoint):
    """The fake endpoint stands in for an HTTP proxy. A fresh interpreter, so
    the environment is read as a run would read it. The target is a loopback
    address with nothing listening, so a bypassed proxy is a refused call."""
    endpoint["statuses"] = [200]
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy", "no_proxy")}
    env["http_proxy"] = endpoint["url"]
    code = ("from phonesim.llm import LLMClient, LLMConfig; "
            "print(LLMClient(LLMConfig(base_url='http://127.0.0.2:9/v1', model='m', "
            "retries=1)).complete([{'role': 'user', 'content': 'hi'}]))")
    src = Path(phonesim.llm.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "hello\n"
    assert endpoint["paths"] == ["http://127.0.0.2:9/v1/chat/completions"]


SCENARIOS = Path(str(resources.files("phonesim").joinpath("data/scenarios")))


def records_under(out):
    return [json.loads(line) for path in sorted(out.rglob("records.jsonl"))
            for line in path.read_text("utf-8").splitlines()]


@pytest.mark.parametrize("statuses,message", [
    ([b"not json"], "unexpected response shape: not json"),
    ([503], "endpoint kept failing (HTTP 503: "),
])
def test_run_aborts_the_episode_when_the_endpoint_fails(
        endpoint, slept, tmp_path, capsys, statuses, message):
    """A failing policy call ends its own episode, which is scored and
    written as aborted; the run exits 2 with nothing on stderr."""
    endpoint["statuses"] = list(statuses)
    config = tmp_path / "llm.yaml"
    config.write_text(f"base_url: {endpoint['url']}\nmodel: m\nretries: 1\n", "utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                 "--assistant-policy", f"llm:{config}", "--runs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    [record] = records_under(out)
    assert record["aborted_reason"].startswith(f"assistant policy failed: {message}")
    assert record["turns_used"] == 1 and record["success"] is False
    assert endpoint["requests"] == 1


def test_a_dead_endpoint_aborts_every_episode_and_the_run_still_reports(tmp_path):
    """Nothing listens on the discard port. Every episode of a two-thread
    sweep aborts on its first assistant call, every record is written, and
    `report` reads them."""
    config = tmp_path / "llm.yaml"
    config.write_text("base_url: http://127.0.0.1:9\nmodel: m\nretries: 1\ntimeout: 1\n",
                      "utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                 str(SCENARIOS / "apartment_budget.yaml"), "--assistant-policy", f"llm:{config}",
                 "--runs", "2", "--jobs", "2", "--out", str(out)]) == 2
    records = records_under(out)
    assert [(r["scenario_id"], r["run_index"]) for r in records] == [
        ("apartment_budget", 0), ("apartment_budget", 1), ("email_reply", 0), ("email_reply", 1)]
    for record in records:
        assert record["aborted_reason"].startswith(
            "assistant policy failed: cannot reach http://127.0.0.1:9/chat/completions: ")
        assert record["turns_used"] == 1
    assert main(["report", "--records", str(out), "--runs", "2"]) == 0
    report = json.loads((out / "report.json").read_text("utf-8"))
    assert [(cell["cell"]["model"], cell["success_rate"]) for cell in report["cells"]] == [
        ("m", 0.0)]


def chat_reply(action, action_input=None):
    """A raw 200 body whose reply text is one step."""
    text = phonesim.format_step(action, action_input, thought="next")
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def test_an_llm_user_policy_plays_the_scenario_through_its_prompt(endpoint, tmp_path):
    """`--user-policy llm:` prompts with the scenario's goal and each screen's
    actions, and feeds the last action's result back."""
    endpoint["statuses"] = [chat_reply("SystemApp__open_app", {"app_name": "EmailApp"}),
                            chat_reply("EmailApp__list_emails")]
    config = tmp_path / "llm.yaml"
    config.write_text(f"base_url: {endpoint['url']}\nmodel: m\nretries: 1\n", "utf-8")
    out = tmp_path / "out"
    scenario = phonesim.load_scenario(SCENARIOS / "email_reply.yaml")
    assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                 "--user-policy", f"llm:{config}", "--max-turns", "2", "--out", str(out)]) == 0
    first, second = (body["messages"] for body in endpoint["bodies"])
    system = first[0]
    assert system["role"] == "system" and system["content"] == second[0]["content"]
    assert scenario.user_goal.strip() in system["content"] and "{{" not in system["content"]
    assert first[1]["role"] == "user"
    assert "Available actions:\n  - SystemApp__open_app(app_name): " in first[1]["content"]
    assert "Result of your last action:" not in first[1]["content"]
    assert second[2]["role"] == "assistant"
    assert second[3]["content"].endswith("Result of your last action: opened EmailApp at Mailbox")
    assert "  - EmailApp__list_emails(offset, limit): " in second[3]["content"]
    [record] = records_under(out)
    assert record["turns_used"] == 2 and "aborted_reason" not in record


@pytest.mark.parametrize("retries", ["0", "-1", "1.5", "true", "'2'"])
def test_load_llm_config_refuses_retries_below_one_attempt(tmp_path, retries):
    path = tmp_path / "llm.yaml"
    path.write_text(f"base_url: http://127.0.0.1:9\nmodel: m\nretries: {retries}\n", "utf-8")
    with pytest.raises(ScenarioParseError) as exc:
        load_llm_config(path)
    message = str(exc.value)
    assert message.startswith(f"{path}.retries: expected an integer of at least 1, got ")
    assert "\n" not in message


@pytest.mark.parametrize("base_url", ["", "http//x", "ftp://h/v1", "http://:9/v1", "http://[::1",
                                      "http://h:99999/v1"])
def test_load_llm_config_refuses_a_base_url_that_is_not_an_http_url(tmp_path, base_url):
    path = tmp_path / "llm.yaml"
    path.write_text(f"base_url: '{base_url}'\nmodel: m\n", "utf-8")
    with pytest.raises(ScenarioParseError) as exc:
        load_llm_config(path)
    assert str(exc.value) == (f"{path}.base_url: expected an http:// or https:// URL with a "
                              f"host, got {base_url!r}")


@pytest.mark.parametrize("base_url", ["http://127.0.0.1:9", "https://api.example.com/v1/",
                                      "http://[::1]:8000/v1"])
def test_load_llm_config_takes_an_http_url_with_a_host(tmp_path, base_url):
    path = tmp_path / "llm.yaml"
    path.write_text(f"base_url: '{base_url}'\nmodel: m\n", "utf-8")
    assert load_llm_config(path).base_url == base_url
