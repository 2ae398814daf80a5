"""Chat-completion transport with retries, auditing and a mock mode.

The wire format is the common one: POST {model, messages, temperature,
max_tokens} with a bearer token, reply carrying choices[0].message.content.
Endpoints of the form ``mock:<directory>`` never touch the network; they
replay canned replies stored as ``<prompt sha256>.txt`` files, which keeps
the whole pipeline testable offline and byte-deterministic.

``query`` is blocking and thread-safe; independent calls may run
concurrently.  Audit records are single ``write`` calls on an append-mode
handle, so concurrent writers cannot interleave within a line.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from ..errors import ConfigError
from .prompts import PromptSpec


class ProviderError(RuntimeError):
    """Base class for everything that can go wrong talking to a provider."""


class ProviderAuthError(ProviderError):
    """Credential missing or rejected; raised before retrying."""


class ProviderTimeoutError(ProviderError):
    """No successful reply within the retry budget."""


class ProviderProtocolError(ProviderError):
    """The reply arrived but was not a usable chat completion."""


@dataclass(frozen=True)
class ProviderConfig:
    """Where and how to send prompts.

    ``credential_env`` names the environment variable holding the API key;
    the key itself is never stored or audited.  ``retry_budget`` counts
    retries after the first attempt, so budget 2 means at most 3 attempts.
    ``audit_path``, when set, receives one JSON line per attempt.
    """

    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4"
    credential_env: str = "LLM_API_KEY"
    temperature: float = 0.7
    max_reply_tokens: int = 4096
    timeout: float = 60.0
    retry_budget: int = 2
    audit_path: str | None = None

    def __post_init__(self):
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_reply_tokens < 1:
            raise ConfigError("max_reply_tokens must be >= 1")
        if not self.endpoint:
            raise ConfigError("endpoint must be set")

    @property
    def is_mock(self) -> bool:
        return self.endpoint.startswith("mock:")

    @property
    def mock_dir(self) -> str:
        return self.endpoint[len("mock:"):]

    def with_audit(self, path: str | None) -> "ProviderConfig":
        return replace(self, audit_path=path)


def build_request(provider: ProviderConfig, prompt: PromptSpec) -> dict:
    """The JSON payload sent to the endpoint (credential excluded)."""
    return {
        "model": provider.model,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": provider.temperature,
        "max_tokens": provider.max_reply_tokens,
    }


def _http_post(url: str, payload: dict, headers: dict, timeout: float):
    """The only network touchpoint; tests monkeypatch this.

    Returns (status_code, parsed_json_or_None).
    """
    import requests  # deferred: only real endpoints need it, and it is slow to import
    resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        data = resp.json()
    except ValueError:
        data = None
    return resp.status_code, data


def _audit(provider: ProviderConfig, record: dict) -> None:
    if provider.audit_path is None:
        return
    line = json.dumps(record, sort_keys=True)
    with open(provider.audit_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def query(provider: ProviderConfig, prompt: PromptSpec) -> str:
    """Send one prompt, return the reply text.

    Mock endpoints read ``<digest>.txt`` from the mock directory and never
    touch the network or any credential.  Real endpoints check the
    credential first (auth errors happen before any request), then retry
    timeouts, connection failures and 429/5xx statuses up to the budget.
    Every attempt is appended to the audit log.
    """
    base = {
        "endpoint": provider.endpoint,
        "model": provider.model,
        "digest": prompt.digest,
        "kind": prompt.kind,
    }
    if provider.is_mock:
        path = os.path.join(provider.mock_dir, prompt.digest + ".txt")
        try:
            with open(path, encoding="utf-8") as fh:
                reply = fh.read()
        except OSError:
            _audit(provider, dict(base, attempt=1, status="missing-canned-reply"))
            raise ProviderProtocolError(
                f"mock provider has no canned reply for digest {prompt.digest} "
                f"(expected file {path})"
            ) from None
        _audit(provider, dict(base, attempt=1, status="ok", reply=reply))
        return reply

    import requests
    key = os.environ.get(provider.credential_env)
    if not key:
        _audit(provider, dict(base, attempt=0, status="auth-error"))
        raise ProviderAuthError(
            f"credential environment variable {provider.credential_env!r} is not set"
        )
    payload = build_request(provider, prompt)
    headers = {"Authorization": f"Bearer {key}"}
    attempts = provider.retry_budget + 1
    failure = "no attempt made"
    for attempt in range(1, attempts + 1):
        try:
            status, data = _http_post(provider.endpoint, payload, headers, provider.timeout)
        except requests.Timeout:
            failure = "timeout"
            _audit(provider, dict(base, attempt=attempt, status="timeout", request=payload))
            continue
        except requests.ConnectionError as exc:
            failure = f"connection error: {exc}"
            _audit(provider, dict(base, attempt=attempt, status="connection-error", request=payload))
            continue
        if status == 429 or status >= 500:
            failure = f"http {status}"
            _audit(provider, dict(base, attempt=attempt, status=f"http-{status}", request=payload))
            continue
        if status in (401, 403):
            _audit(provider, dict(base, attempt=attempt, status=f"http-{status}", request=payload))
            raise ProviderAuthError(f"endpoint rejected the credential (http {status})")
        if status != 200:
            _audit(provider, dict(base, attempt=attempt, status=f"http-{status}", request=payload))
            raise ProviderProtocolError(f"unexpected http status {status}")
        try:
            reply = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            _audit(provider, dict(base, attempt=attempt, status="malformed-reply", request=payload))
            raise ProviderProtocolError(
                "reply is not a chat completion (missing choices[0].message.content)"
            ) from None
        if not isinstance(reply, str):
            _audit(provider, dict(base, attempt=attempt, status="malformed-reply", request=payload))
            raise ProviderProtocolError("reply content is not text")
        _audit(provider, dict(base, attempt=attempt, status="ok", request=payload, reply=reply))
        return reply
    raise ProviderTimeoutError(f"gave up after {attempts} attempts; last failure: {failure}")
