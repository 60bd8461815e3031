"""Chat-completion backed policies.

Talks to any OpenAI-compatible endpoint. The endpoint URL and model come
from a config file; the API key is read from the environment variable named
in that config and is never accepted on the command line.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from importlib import resources
from urllib.parse import urlsplit

from .errors import EndpointUnavailable, RetriesExhausted, SchemaError
from .interfaces import AgentView, UserView
from .shapes import REQUIRED, check
from .yamlfile import read_yaml


@dataclass(frozen=True)
class LLMConfig:
    base_url: str
    model: str
    api_key_env: str = "PHONESIM_API_KEY"
    temperature: float = 0.0
    max_output: int = 1024
    timeout: float = 60.0
    retries: int = 3            # attempts in all, the first one included


LLM_CONFIG = {
    "base_url": ("str", REQUIRED),
    "model": ("str", REQUIRED),
    "api_key_env": ("str", LLMConfig.api_key_env),
    "temperature": ("float", LLMConfig.temperature),
    "max_output": ("count", LLMConfig.max_output),
    "timeout": ("float", LLMConfig.timeout),
    "retries": ("count", LLMConfig.retries),
}


def load_llm_config(path) -> LLMConfig:
    config = LLMConfig(**check(read_yaml(path), LLM_CONFIG, str(path)))
    try:
        url = urlsplit(config.base_url)
        url.port             # raises on a port that is not a number from 0 to 65535
    except ValueError:       # that, or an unclosed [IPv6 address
        url = None
    if url is None or url.scheme not in ("http", "https") or not url.hostname:
        raise SchemaError(f"{path}.base_url: expected an http:// or https:// URL with a host, "
                          f"got {config.base_url!r}")
    if not 0 < config.timeout < math.inf:     # a socket takes no other timeout
        raise SchemaError(
            f"{path}.timeout: expected a finite number of seconds above 0, got {config.timeout!r}")
    return config


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
        """One reply text. `retries` attempts in all: a 429 or 5xx reply and
        a transport failure (refused, timed out, reset) are retried after
        `min(2**attempt, 8)` s, and the last attempt's failure is raised."""
        # Imported here: `urllib.request` pulls in `http.client`, about 30 ms
        # of import that every run without an llm: policy would otherwise pay.
        import urllib.request
        from http.client import HTTPException
        from urllib.error import HTTPError

        url = self.config.base_url.rstrip("/") + "/chat/completions"
        body = json.dumps({
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output,
        }).encode("utf-8")
        for attempt in range(self.config.retries):
            request = urllib.request.Request(url, data=body, headers=self._headers())
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                    return _reply_text(resp.read())
            except HTTPError as exc:
                detail = exc.read().decode("utf-8", "replace")[:200]
                error = RetriesExhausted(f"endpoint kept failing (HTTP {exc.code}: {detail})")
                if exc.code not in (429, 500, 502, 503, 504):
                    raise error from exc
            except (OSError, HTTPException) as exc:   # URLError, a timeout, a cut reply
                error = EndpointUnavailable(f"cannot reach {url}: {exc}")
            if attempt + 1 < self.config.retries:
                time.sleep(min(2 ** attempt, 8))
        raise error


def _reply_text(body: bytes) -> str:
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError as exc:       # not UTF-8, or not JSON
        raise RetriesExhausted(
            f"unexpected response shape: {body[:200].decode('utf-8', 'replace')}") from exc
    try:
        choice = data["choices"][0]
        text = (choice.get("message") or {}).get("content")
        if text is None:
            text = choice.get("text")
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise RetriesExhausted(f"unexpected response shape: {json.dumps(data)[:200]}") from exc
    if not isinstance(text, str):
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
        context = context or {}
        self.observe_system = _fill(load_prompt("observe_system"), context)
        self.execute_system = _fill(load_prompt("execute_system"), context)
        self.messages: list[dict] = []

    def act(self, view: AgentView, feedback: str | None = None) -> str:
        self.messages.append({"role": "user",
                              "content": render_agent_view(view, feedback)})
        system = self.execute_system if view.mode == "execute" else self.observe_system
        out = self.client.complete(
            [{"role": "system", "content": system}] + self.messages)
        self.messages.append({"role": "assistant", "content": out})
        return out


def _fill(template: str, slots: dict[str, str]) -> str:
    for key, value in slots.items():
        template = template.replace("{{" + key + "}}", str(value))
    return template
