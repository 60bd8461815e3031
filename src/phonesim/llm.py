"""Chat-completion backed policies.

Talks to any OpenAI-compatible endpoint. The endpoint URL and model come
from a config file; the API key is read from the environment variable named
in that config and is never accepted on the command line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from importlib import resources

from .errors import EndpointUnavailable, RetriesExhausted
from .interfaces import AgentView, UserView
from .yamlfile import load_yaml


@dataclass(frozen=True)
class LLMConfig:
    base_url: str
    model: str
    api_key_env: str = "PHONESIM_API_KEY"
    temperature: float = 0.0
    max_output: int = 1024
    timeout: float = 60.0
    retries: int = 3


def load_llm_config(path) -> LLMConfig:
    return LLMConfig(**load_yaml(path))


class LLMClient:
    def __init__(self, config: LLMConfig):
        self.config = config

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, messages: list[dict]) -> str:
        # Imported here: `requests` takes about 0.1 s to import, which every
        # run without an llm: policy would otherwise pay.
        import requests

        url = self.config.base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output,
        }
        last_error = None
        for attempt in range(self.config.retries):
            try:
                resp = requests.post(url, json=payload, headers=self._headers(),
                                     timeout=self.config.timeout)
            except requests.RequestException as exc:
                raise EndpointUnavailable(f"cannot reach {url}: {exc}") from exc
            if resp.status_code == 200:
                return _extract_text(resp.json())
            last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
            if resp.status_code in (429, 500, 502, 503, 504):
                time.sleep(min(2 ** attempt, 8))
                continue
            break
        raise RetriesExhausted(f"endpoint kept failing ({last_error})")


def _extract_text(data: dict) -> str:
    try:
        choice = data["choices"][0]
    except (KeyError, IndexError, TypeError) as exc:
        raise RetriesExhausted(f"unexpected response shape: {json.dumps(data)[:200]}") from exc
    message = choice.get("message") or {}
    text = message.get("content")
    if text is None:
        text = choice.get("text")
    if text is None:
        raise RetriesExhausted("response carried no text content")
    return text


def load_prompt(name: str) -> str:
    return resources.files("phonesim").joinpath(f"data/prompts/{name}.txt").read_text("utf-8")


def render_user_view(view: UserView, feedback: str | None = None) -> str:
    lines = [f"Current time: {view.current_time}",
             f"Current screen: {view.foreground}"
             + (f" / {view.state}" if view.state else "")]
    if view.notifications:
        lines.append("New notifications:")
        lines.extend(f"  - {n}" for n in view.notifications)
    if view.pending_proposal:
        lines.append(f"The assistant proposes: {view.pending_proposal}")
    lines.append("Available actions:")
    lines.extend(f"  - {t}" for t in view.tools)
    if feedback:
        lines.append(f"Result of your last action: {feedback}")
    return "\n".join(lines)


def render_agent_view(view: AgentView, feedback: str | None = None) -> str:
    lines = [f"Current time: {view.current_time}",
             f"Mode: {view.mode}"]
    if view.active_task:
        lines.append(f"Approved task: {view.active_task}")
    if view.notifications:
        lines.append("New events:")
        lines.extend(f"  - {n}" for n in view.notifications)
    if view.user_actions:
        lines.append("User activity:")
        lines.extend(f"  - {a}" for a in view.user_actions)
    if feedback:
        lines.append(f"Result of your last action: {feedback}")
    return "\n".join(lines)


class LLMUserPolicy:
    """Simulated device owner driven by a chat model."""

    def __init__(self, client: LLMClient, goal: str, context: dict[str, str] | None = None):
        self.client = client
        template = load_prompt("user_system")
        slots = {"GOAL": goal}
        slots.update(context or {})
        self.system = _fill(template, slots)
        self.messages: list[dict] = []

    def act(self, view: UserView, feedback: str | None = None) -> str:
        self.messages.append({"role": "user",
                              "content": render_user_view(view, feedback)})
        out = self.client.complete(
            [{"role": "system", "content": self.system}] + self.messages)
        self.messages.append({"role": "assistant", "content": out})
        return out


class LLMAssistantPolicy:
    """Proactive assistant driven by a chat model; the system prompt follows
    the current mode (observe vs execute)."""

    def __init__(self, client: LLMClient, context: dict[str, str] | None = None):
        self.client = client
        self.context = dict(context or {})
        self.messages: list[dict] = []

    def _system(self, mode: str) -> str:
        name = "execute_system" if mode == "execute" else "observe_system"
        return _fill(load_prompt(name), self.context)

    def act(self, view: AgentView, feedback: str | None = None) -> str:
        self.messages.append({"role": "user",
                              "content": render_agent_view(view, feedback)})
        out = self.client.complete(
            [{"role": "system", "content": self._system(view.mode)}] + self.messages)
        self.messages.append({"role": "assistant", "content": out})
        return out


def _fill(template: str, slots: dict[str, str]) -> str:
    for key, value in slots.items():
        template = template.replace("{{" + key + "}}", str(value))
    return template
