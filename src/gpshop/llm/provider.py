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
from dataclasses import dataclass

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
    ``n_requested`` is how many pairs ``init-llm`` and ``evolve --init
    llm`` ask for when ``--n`` is not given.  These defaults are the
    config file's ``llm`` section when it leaves a key out.
    """

    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4"
    credential_env: str = "LLM_API_KEY"
    temperature: float = 0.7
    max_reply_tokens: int = 4096
    timeout: float = 60.0
    retry_budget: int = 2
    n_requested: int = 100

    def __post_init__(self):
        if self.retry_budget < 0:
            raise ConfigError("retry_budget must be >= 0")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_reply_tokens < 1:
            raise ConfigError("max_reply_tokens must be >= 1")
        if not self.endpoint:
            raise ConfigError("endpoint must be set")
        if not isinstance(self.n_requested, int) or self.n_requested < 1:
            raise ConfigError(f"n_requested must be a positive integer, got {self.n_requested!r}")


def _http_post(url: str, payload: dict, headers: dict, timeout: float):
    """The only network touchpoint; tests monkeypatch this.

    Returns (status_code, parsed_json_or_None), error statuses included.
    Raises TimeoutError or urllib.error.URLError when no reply arrives.
    """
    import urllib.request  # deferred: only real endpoints need it, and it is slow to import
    from urllib.error import HTTPError, URLError

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={**headers, "Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, body = resp.status, resp.read()
    except HTTPError as exc:
        with exc:
            status, body = exc.code, exc.read()
    except URLError as exc:
        if isinstance(exc.reason, TimeoutError):  # urlopen wraps a connect timeout
            raise exc.reason from None
        raise
    except ConnectionError as exc:  # the peer hung up after the request was sent
        raise URLError(exc) from exc
    try:
        data = json.loads(body)
    except ValueError:
        data = None
    return status, data


def _audit(audit_path: str | None, record: dict) -> None:
    if audit_path is None:
        return
    line = json.dumps(record, sort_keys=True)
    with open(audit_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


def query(provider: ProviderConfig, prompt: PromptSpec, audit_path: str | None = None) -> str:
    """Send one prompt, return the reply text.

    Mock endpoints read ``<digest>.txt`` from the mock directory and never
    touch the network or any credential.  Real endpoints check the
    credential first (auth errors happen before any request), then retry
    timeouts, connection failures and 429/5xx statuses up to the budget.
    When ``audit_path`` is given, every attempt appends one JSON line to
    it: the prompt digest and kind, the attempt number, its status, the
    request sent and the reply received, never the credential.
    """
    base = {
        "endpoint": provider.endpoint,
        "model": provider.model,
        "digest": prompt.digest,
        "kind": prompt.kind,
    }
    if provider.endpoint.startswith("mock:"):
        path = os.path.join(provider.endpoint[len("mock:"):], prompt.digest + ".txt")
        try:
            with open(path, encoding="utf-8") as fh:
                reply = fh.read()
        except OSError:
            _audit(audit_path, dict(base, attempt=1, status="missing-canned-reply"))
            raise ProviderProtocolError(
                f"mock provider has no canned reply for digest {prompt.digest} "
                f"(expected file {path})"
            ) from None
        _audit(audit_path, dict(base, attempt=1, status="ok", reply=reply))
        return reply

    from urllib.error import URLError  # deferred with the transport itself

    key = os.environ.get(provider.credential_env)
    if not key:
        _audit(audit_path, dict(base, attempt=0, status="auth-error"))
        raise ProviderAuthError(
            f"credential environment variable {provider.credential_env!r} is not set"
        )
    payload = {
        "model": provider.model,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": provider.temperature,
        "max_tokens": provider.max_reply_tokens,
    }
    headers = {"Authorization": f"Bearer {key}"}
    attempts = provider.retry_budget + 1
    for attempt in range(1, attempts + 1):
        # One status per attempt, then a failure to retry, an error to raise or the reply.
        error = None
        try:
            code, data = _http_post(provider.endpoint, payload, headers, provider.timeout)
        except TimeoutError:
            status, failure = "timeout", "timeout"
        except URLError as exc:
            status, failure = "connection-error", f"connection error: {exc}"
        else:
            status, failure = f"http-{code}", f"http {code}"
            if code in (401, 403):
                error = ProviderAuthError(f"endpoint rejected the credential (http {code})")
            elif code == 200:
                try:
                    reply = data["choices"][0]["message"]["content"]
                    if not isinstance(reply, str):
                        error = ProviderProtocolError("reply content is not text")
                except (KeyError, IndexError, TypeError):
                    error = ProviderProtocolError(
                        "reply is not a chat completion (missing choices[0].message.content)"
                    )
                status = "malformed-reply" if error else "ok"
            elif code != 429 and code < 500:
                error = ProviderProtocolError(f"unexpected http status {code}")
        record = dict(base, attempt=attempt, status=status, request=payload)
        if status == "ok":
            record["reply"] = reply
        _audit(audit_path, record)
        if error is not None:
            raise error
        if status == "ok":
            return reply
    raise ProviderTimeoutError(f"gave up after {attempts} attempts; last failure: {failure}")
