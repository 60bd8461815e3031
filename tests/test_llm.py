import hashlib

import phonesim.llm
from phonesim.apps import BUILDERS, build_app
from phonesim.fsm import render_app_reference
from phonesim.interfaces import AgentView
from phonesim.llm import LLMAssistantPolicy


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
