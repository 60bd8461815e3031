import phonesim.llm
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
