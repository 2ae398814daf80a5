"""LLM bridge tests: prompt rendering, transport, extraction, reports."""
from __future__ import annotations

import http.server
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpshop.errors import ConfigError
from gpshop.expr import Terminal, depth, random_tree, size, terminal_histogram
from gpshop.llm import (
    ProviderAuthError,
    ProviderConfig,
    ProviderProtocolError,
    ProviderTimeoutError,
    ReferenceHeuristic,
    build_explain_prompt,
    build_init_prompt,
    build_transfer_prompt,
    extract_heuristics,
    generate_report,
    query,
)
from gpshop.llm import provider as provider_mod
from gpshop.llm.prompts import SECTION_KEYS, objective_equation
from gpshop.llm.report import NARRATIVE_UNAVAILABLE
from gpshop.records import load_config
from gpshop.rules import RulePair, rules_to_text
from gpshop.sim import Scenario

FMEAN = Scenario(
    objectives=("Fmean",), lambdas=(1.0,), utilization=0.85,
    training_seeds=(1,), test_seeds=(2,),
)
MIXED = Scenario(
    objectives=("Fmean", "WTmean"), lambdas=(0.2, 0.8), utilization=0.85,
    training_seeds=(1,), test_seeds=(2,),
)
REFS = [
    ReferenceHeuristic("WIQ", "PT", label="baseline"),
    ReferenceHeuristic("(WIQ + PT) + TRANT", "PT", label="transport aware", fitness_note="strong"),
    ReferenceHeuristic("NIQ", "SLACK"),
    ReferenceHeuristic("max(WIQ, MWT)", "(PT + WKR)"),
    ReferenceHeuristic("(WIQ / W)", "min(PT, rDD)"),
]


def write_mock(tmp_path, prompt, reply: str) -> ProviderConfig:
    (tmp_path / (prompt.digest + ".txt")).write_text(reply, encoding="utf-8")
    return ProviderConfig(endpoint=f"mock:{tmp_path}")


class TestObjectiveEquation:
    def test_single_and_weighted(self):
        assert objective_equation(MIXED) == "0.2×Fmean + 0.8×WTmean"
        assert objective_equation(FMEAN) == "Fmean"


class TestReferenceHeuristic:
    def test_must_parse(self):
        with pytest.raises(Exception):
            ReferenceHeuristic("exp(PT)", "PT")
        with pytest.raises(Exception):
            ReferenceHeuristic("WIQ", "PT +")

    def test_from_pair_round_trip(self):
        pair = RulePair.from_text("(WIQ + PT) + TRANT", "min(PT, SLACK)")
        ref = ReferenceHeuristic.from_pair(pair, label="x")
        assert RulePair.from_text(ref.routing, ref.sequencing) == pair
        assert ref.text() == "routing: ((WIQ + PT) + TRANT)\nsequencing: min(PT, SLACK)"


class TestInitPrompt:
    def test_sections_and_glossary(self):
        prompt = build_init_prompt(MIXED, REFS, 30)
        assert prompt.kind == "init"
        assert tuple(t for t, _ in prompt.sections) == SECTION_KEYS
        assert all(body.strip() for _, body in prompt.sections)
        for t in Terminal:
            assert f"- {t.name}: {t.value}" in prompt.section("reference heuristics")

    def test_objective_equation_appears_once(self):
        prompt = build_init_prompt(MIXED, REFS, 30)
        assert prompt.text.count("0.2×Fmean + 0.8×WTmean") == 1

    def test_candidate_count_contract(self):
        prompt = build_init_prompt(FMEAN, REFS, 30)
        assert "exactly 30 candidate pairs" in prompt.text
        assert "INSIGHTS:" in prompt.section("output format")

    def test_references_verbatim(self):
        prompt = build_init_prompt(FMEAN, REFS, 10)
        body = prompt.section("reference heuristics")
        for ref in REFS:
            assert ref.text() in body
        assert "transport aware; strong" in body

    def test_no_references(self):
        prompt = build_init_prompt(FMEAN, [], 5)
        assert "zero-shot" in prompt.section("reference heuristics")
        assert all(body.strip() for _, body in prompt.sections)

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigError):
            build_init_prompt(FMEAN, REFS, 0)

    def test_rendering_is_pure(self):
        a = build_init_prompt(MIXED, REFS, 30)
        b = build_init_prompt(MIXED, REFS, 30)
        assert a.text == b.text
        assert a.digest == b.digest
        c = build_init_prompt(MIXED, REFS, 31)
        assert c.digest != a.digest


class TestTransferPrompt:
    def test_rejects_identical_scenarios(self):
        with pytest.raises(ConfigError):
            build_transfer_prompt(REFS, FMEAN, FMEAN, 5)

    def test_target_statistics_present(self):
        target = Scenario(
            objectives=("WTmean",), lambdas=(1.0,), utilization=0.95,
            training_seeds=(1,), test_seeds=(2,),
        )
        prompt = build_transfer_prompt(REFS, FMEAN, target, 5)
        prefs_body = prompt.section("task preferences")
        assert "utilization 0.95" in prefs_body
        assert "WTmean" in prefs_body
        for step in ("1.", "2.", "3."):
            assert step in prefs_body
        for ref in REFS:
            assert ref.text() in prompt.section("reference heuristics")
        assert "exactly 5 candidate pairs" in prompt.text

    def test_explicit_count(self):
        target = Scenario(
            objectives=("Tmax",), lambdas=(1.0,), utilization=0.85,
            training_seeds=(1,), test_seeds=(2,),
        )
        prompt = build_transfer_prompt(REFS, FMEAN, target, n_requested=12)
        assert "exactly 12 candidate pairs" in prompt.text


class TestExplainPrompt:
    def test_genome_and_skeleton(self):
        best = RulePair.from_text("(WIQ + PT) + TRANT", "(PT + PT) + WKR")
        prompt = build_explain_prompt(best, MIXED)
        assert prompt.kind == "explain"
        assert rules_to_text(best).strip() in prompt.section("reference heuristics")
        contract = prompt.section("output format")
        for heading in (
            "## Decision logic",
            "## Dominant terminals",
            "## Preference alignment",
            "## Summary for non-experts",
        ):
            assert heading in contract
        assert "0.2×Fmean + 0.8×WTmean" in prompt.section("task preferences")


class TestPinnedDigests:
    """The sha256 of a prompt's text keys its canned mock reply, so a prompt
    whose bytes drift silently orphans every recorded reply.  These digests
    were computed from the packaged scenarios and must not be re-pinned
    for a refactoring."""

    PINNED = {
        "init-fmean-085": "0739ea87186c89f80d82354b226fe9c0d8e7723619472dc46fe01075aac0ac38",
        "init-zero-shot-fmean-085": "455598e85d4bb335688bdae746bbd2b5328778387b86b8e7e830e7b13a47e64f",
        "init-fmean-wtmean-085": "155a60888e7700ce0c9073341985a9df9ea8fa6f9c01074ec15237b9e078b956",
        "init-zero-shot-fmean-wtmean-085": "1a6a6859cb087943c5b36a708de05710c48c3cac47f964f1924d2c6e69d50fb8",
        "transfer-fmean-085-to-fmean-wtmean-085": "dc4166fbcb940c92b89a9317ba72ae7b458080bfec928fd809bd15c05bad04ec",
        "transfer-fmean-wtmean-085-to-fmean-085": "c4253a58a5ea0edcec8aebe9bb42f54d9dc2463014fca7880910b94aa7c00700",
        "explain-fmean-085": "63304a0cd39a286a35e8b00bf3d1211f251c1a29791bef91757927427db8d876",
        "explain-fmean-wtmean-085": "708e65cab19f1aa9d395052bad3a5aae42ff9d80eaf582165283e4b6b100fc5c",
    }

    def test_prompt_bytes_are_pinned(self):
        scenarios = load_config().scenarios
        single, mixed = scenarios["fmean-085"], scenarios["fmean-wtmean-085"]
        best = RulePair.from_text("(WIQ + PT) + TRANT", "min(PT, SLACK)")
        prompts = {
            "init-fmean-085": build_init_prompt(single, REFS, 30),
            "init-zero-shot-fmean-085": build_init_prompt(single, [], 100),
            "init-fmean-wtmean-085": build_init_prompt(mixed, REFS, 30),
            "init-zero-shot-fmean-wtmean-085": build_init_prompt(mixed, [], 100),
            "transfer-fmean-085-to-fmean-wtmean-085": build_transfer_prompt(REFS, single, mixed, 5),
            "transfer-fmean-wtmean-085-to-fmean-085": build_transfer_prompt(REFS[:2], mixed, single, 12),
            "explain-fmean-085": build_explain_prompt(best, single),
            "explain-fmean-wtmean-085": build_explain_prompt(best, mixed),
        }
        assert {key: p.digest for key, p in prompts.items()} == self.PINNED


class SpyTransport:
    """Scripted replacement for provider._http_post."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload, headers, timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_reply(text="hello"):
    return (200, {"choices": [{"message": {"content": text}}]})


@pytest.fixture
def prompt():
    return build_init_prompt(FMEAN, REFS[:2], 3)


class TestQuery:
    def test_mock_replay_is_deterministic(self, tmp_path, prompt, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        monkeypatch.setattr(
            provider_mod, "_http_post",
            lambda *a, **k: pytest.fail("mock mode must not touch the network"),
        )
        cfg = write_mock(tmp_path, prompt, "canned reply\n")
        assert query(cfg, prompt) == "canned reply\n"
        assert query(cfg, prompt) == "canned reply\n"

    def test_mock_missing_reply(self, tmp_path, prompt):
        cfg = ProviderConfig(endpoint=f"mock:{tmp_path}")
        with pytest.raises(ProviderProtocolError, match="canned reply"):
            query(cfg, prompt)

    def test_auth_error_before_network(self, prompt, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        spy = SpyTransport([ok_reply()])
        monkeypatch.setattr(provider_mod, "_http_post", spy)
        with pytest.raises(ProviderAuthError, match="LLM_API_KEY"):
            query(ProviderConfig(), prompt)
        assert spy.calls == []

    def test_success_and_wire_format(self, prompt, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        spy = SpyTransport([ok_reply("the reply")])
        monkeypatch.setattr(provider_mod, "_http_post", spy)
        cfg = ProviderConfig(model="gpt-4", temperature=0.7)
        assert query(cfg, prompt) == "the reply"
        url, payload, headers, timeout = spy.calls[0]
        assert url == cfg.endpoint
        assert payload["model"] == "gpt-4"
        assert payload["temperature"] == 0.7
        assert payload["messages"] == [{"role": "user", "content": prompt.text}]
        assert payload["max_tokens"] == cfg.max_reply_tokens
        assert headers["Authorization"] == "Bearer sk-test"
        assert timeout == cfg.timeout

    def test_timeout_uses_whole_retry_budget(self, prompt, monkeypatch, tmp_path):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        spy = SpyTransport([TimeoutError(), TimeoutError(), TimeoutError()])
        monkeypatch.setattr(provider_mod, "_http_post", spy)
        audit = tmp_path / "audit.jsonl"
        cfg = ProviderConfig(retry_budget=2)
        with pytest.raises(ProviderTimeoutError, match="3 attempts"):
            query(cfg, prompt, str(audit))
        assert len(spy.calls) == 3
        records = [json.loads(line) for line in audit.read_text().splitlines()]
        assert [r["status"] for r in records] == ["timeout"] * 3
        assert [r["attempt"] for r in records] == [1, 2, 3]
        assert all(r["digest"] == prompt.digest for r in records)

    def test_transient_500_then_success(self, prompt, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        spy = SpyTransport([(500, None), ok_reply("eventually")])
        monkeypatch.setattr(provider_mod, "_http_post", spy)
        assert query(ProviderConfig(retry_budget=2), prompt) == "eventually"
        assert len(spy.calls) == 2

    def test_rejected_credential(self, prompt, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        spy = SpyTransport([(401, None)])
        monkeypatch.setattr(provider_mod, "_http_post", spy)
        with pytest.raises(ProviderAuthError):
            query(ProviderConfig(retry_budget=2), prompt)
        assert len(spy.calls) == 1  # auth failures are not retried

    @pytest.mark.parametrize(
        "outcome",
        [
            (200, None),
            (200, {"choices": []}),
            (200, {"choices": [{"message": {}}]}),
            (200, {"choices": [{"message": {"content": 5}}]}),
            (418, {"error": "teapot"}),
        ],
    )
    def test_protocol_errors(self, prompt, monkeypatch, outcome):
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        monkeypatch.setattr(provider_mod, "_http_post", SpyTransport([outcome]))
        with pytest.raises(ProviderProtocolError):
            query(ProviderConfig(), prompt)

    def test_mock_audit_written(self, tmp_path, prompt):
        audit = tmp_path / "a.jsonl"
        cfg = write_mock(tmp_path, prompt, "x")
        query(cfg, prompt, str(audit))
        record = json.loads(audit.read_text().splitlines()[0])
        assert record["status"] == "ok"
        assert record["reply"] == "x"

    def test_refused_connection_is_retried(self, prompt, monkeypatch, tmp_path):
        """The real transport's URLError counts as a connection failure, retried to the budget."""
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        audit = tmp_path / "audit.jsonl"
        cfg = ProviderConfig(endpoint=f"http://127.0.0.1:{port}/", retry_budget=1)
        with pytest.raises(ProviderTimeoutError, match="connection error"):
            query(cfg, prompt, str(audit))
        assert [json.loads(line)["status"] for line in audit.read_text().splitlines()] == ["connection-error"] * 2

    # (attempt, status, has request, has reply) for each audit line, in order.
    AUDIT_OUTCOMES = {
        "timeout": (
            [TimeoutError()] * 3, ProviderTimeoutError,
            [(1, "timeout", True, False), (2, "timeout", True, False), (3, "timeout", True, False)],
        ),
        "url-error": (
            [urllib.error.URLError("refused")] * 3, ProviderTimeoutError,
            [(i, "connection-error", True, False) for i in (1, 2, 3)],
        ),
        "http-429": ([(429, None)] * 3, ProviderTimeoutError, [(i, "http-429", True, False) for i in (1, 2, 3)]),
        "500-then-ok": ([(500, None), ok_reply("fine")], None, [(1, "http-500", True, False), (2, "ok", True, True)]),
        "http-401": ([(401, None)], ProviderAuthError, [(1, "http-401", True, False)]),
        "http-403": ([(403, None)], ProviderAuthError, [(1, "http-403", True, False)]),
        "http-418": ([(418, {"error": "teapot"})], ProviderProtocolError, [(1, "http-418", True, False)]),
        "no-choices": ([(200, {"id": "x"})], ProviderProtocolError, [(1, "malformed-reply", True, False)]),
        "content-not-text": (
            [(200, {"choices": [{"message": {"content": 5}}]})], ProviderProtocolError,
            [(1, "malformed-reply", True, False)],
        ),
        "missing-credential": ([], ProviderAuthError, [(0, "auth-error", False, False)]),
        "mock-ok": ([], None, [(1, "ok", False, True)]),
        "mock-missing-reply": ([], ProviderProtocolError, [(1, "missing-canned-reply", False, False)]),
    }

    @pytest.mark.parametrize("outcome", sorted(AUDIT_OUTCOMES))
    def test_one_audit_line_per_attempt(self, outcome, prompt, monkeypatch, tmp_path):
        transport, error, expected = self.AUDIT_OUTCOMES[outcome]
        audit = tmp_path / "audit.jsonl"
        if outcome == "missing-credential":
            monkeypatch.delenv("LLM_API_KEY", raising=False)
        else:
            monkeypatch.setenv("LLM_API_KEY", "sk-secret")
        monkeypatch.setattr(provider_mod, "_http_post", SpyTransport(transport))
        if outcome == "mock-ok":
            cfg = write_mock(tmp_path, prompt, "canned")
        elif outcome == "mock-missing-reply":
            cfg = ProviderConfig(endpoint=f"mock:{tmp_path}")
        else:
            cfg = ProviderConfig(retry_budget=2)
        if error is None:
            query(cfg, prompt, str(audit))
        else:
            with pytest.raises(error):
                query(cfg, prompt, str(audit))
        text = audit.read_text()
        assert "sk-secret" not in text
        records = [json.loads(line) for line in text.splitlines()]
        assert [(r["attempt"], r["status"], "request" in r, "reply" in r) for r in records] == expected
        for r in records:
            assert {k: r[k] for k in ("endpoint", "model", "digest", "kind")} == {
                "endpoint": cfg.endpoint, "model": cfg.model, "digest": prompt.digest, "kind": prompt.kind,
            }
            assert set(r) <= {"endpoint", "model", "digest", "kind", "attempt", "status", "request", "reply"}
            if "request" in r:
                assert r["request"]["messages"] == [{"role": "user", "content": prompt.text}]

    def test_audit_path_is_no_config_key(self, tmp_path):
        config = tmp_path / "audit.yaml"
        config.write_text("llm: {audit_path: x}\n")
        with pytest.raises(ConfigError, match="unknown key 'audit_path'"):
            load_config(str(config))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ProviderConfig(retry_budget=-1)
        with pytest.raises(ConfigError):
            ProviderConfig(timeout=0)


GOOD_REPLY = """Here are my candidates.

```
routing: (WIQ + PT)
sequencing: PT
```

```text
routing: max(NIQ, TRANT)
sequencing: (SLACK / W)
```

```
routing: exp(PT)
sequencing: PT
```

```
routing: WIQ
```

```
fenced prose, not a candidate
```

INSIGHTS: Balance queue load against transport cost.
Short rules generalize better.
"""


class _ScriptedEndpoint(http.server.BaseHTTPRequestHandler):
    """Replies by path, /hangup and /slow never; records every request's path, headers and JSON body."""

    replies = {
        "/ok": (200, b'{"choices": [{"message": {"content": "hi"}}]}'),
        "/busy": (503, b'{"error": "busy"}'),
        "/denied": (401, b"no entry"),
    }

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, self.headers, body))
        if self.path not in self.replies:
            time.sleep(0.5 if self.path == "/slow" else 0.0)
            return
        status, reply = self.replies[self.path]
        self.send_response(status)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedEndpoint)
    server.daemon_threads = True
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestHttpPost:
    """The standard-library transport against a local server."""

    def url(self, server, path):
        return f"http://127.0.0.1:{server.server_address[1]}{path}"

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("/ok", (200, {"choices": [{"message": {"content": "hi"}}]})),
            ("/busy", (503, {"error": "busy"})),
            ("/denied", (401, None)),
        ],
    )
    def test_status_and_body(self, endpoint, path, expected):
        headers = {"Authorization": "Bearer sk-test"}
        assert provider_mod._http_post(self.url(endpoint, path), {"model": "m"}, headers, 5.0) == expected
        [(seen_path, seen_headers, body)] = endpoint.seen
        assert seen_path == path
        assert body == {"model": "m"}
        assert seen_headers["Authorization"] == "Bearer sk-test"
        assert seen_headers["Content-Type"] == "application/json"

    def test_slow_reply_raises_timeout_error(self, endpoint):
        with pytest.raises(TimeoutError):
            provider_mod._http_post(self.url(endpoint, "/slow"), {}, {}, 0.1)

    def test_connect_timeout_raises_timeout_error(self, monkeypatch):
        def connect_timeout(*args, **kwargs):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request, "urlopen", connect_timeout)
        with pytest.raises(TimeoutError):
            provider_mod._http_post("http://127.0.0.1:1/", {}, {}, 0.1)

    def test_hangup_raises_url_error(self, endpoint):
        with pytest.raises(urllib.error.URLError):
            provider_mod._http_post(self.url(endpoint, "/hangup"), {}, {}, 5.0)


class TestExtraction:
    def test_mixed_reply_accounting(self):
        result = extract_heuristics(GOOD_REPLY)
        assert len(result.accepted) == 2
        assert len(result.rejected) == 2
        assert result.candidates == 4
        assert result.accepted[0] == RulePair.from_text("(WIQ + PT)", "PT")
        assert result.accepted[1] == RulePair.from_text("max(NIQ, TRANT)", "(SLACK / W)")
        assert "unknown symbol" in result.rejected[0].cause
        assert "exp" in result.rejected[0].cause
        assert "sequencing" in result.rejected[1].cause
        assert result.insights.startswith("Balance queue load")
        assert "generalize" in result.insights

    def test_prose_only_reply(self):
        result = extract_heuristics("No code here, just words.")
        assert result.candidates == 0
        assert result.accepted == []
        assert result.insights == ""

    def test_depth_cap_rejection(self):
        deep = "(" * 8 + "PT" + " + PT)" * 8
        reply = f"```\nrouting: {deep}\nsequencing: PT\n```\n"
        result = extract_heuristics(reply)
        assert result.accepted == []
        assert result.rejected[0].cause == "max depth exceeded (9 > 8)"

    def test_duplicated_line_is_rejected_not_repaired(self):
        reply = "```\nrouting: WIQ\nrouting: PT\nsequencing: PT\n```\n"
        result = extract_heuristics(reply)
        assert result.accepted == []
        assert result.rejected[0].cause == "line 2: duplicate 'routing' line"

    def test_many_well_formed_pairs(self):
        blocks = "\n".join(
            f"```\nrouting: (WIQ + PT)\nsequencing: (PT + TIS)\n```" for _ in range(30)
        )
        result = extract_heuristics(blocks)
        assert len(result.accepted) == 30
        assert result.rejected == []

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_through_reply_format(self, seed):
        rng = np.random.default_rng(seed)
        pair = RulePair(
            routing=random_tree(rng, "grow", (1, 5)),
            sequencing=random_tree(rng, "grow", (1, 5)),
        )
        reply = f"some text\n```\n{rules_to_text(pair)}```\nINSIGHTS: n/a\n"
        result = extract_heuristics(reply)
        assert result.accepted == [pair]
        assert result.rejected == []


class TestGenerateReport:
    BEST = RulePair.from_text("(WIQ + PT) + TRANT", "(PT / W) + WKR")

    def test_with_canned_narrative(self, tmp_path):
        prompt = build_explain_prompt(self.BEST, MIXED)
        cfg = write_mock(tmp_path, prompt, "A fine pair of rules.\n")
        report = generate_report(self.BEST, MIXED, cfg, test_score=123.5)
        assert report.narrative_ok
        assert report.error is None
        assert "A fine pair of rules." in report.text
        assert "## Appendix (machine generated)" in report.text
        assert rules_to_text(self.BEST).strip() in report.text
        assert f"routing tree: depth {depth(self.BEST.routing)}, {size(self.BEST.routing)} nodes" in report.text
        assert "Held-out test fitness: 123.5" in report.text
        counts = dict(terminal_histogram(self.BEST.routing))
        for t, n in terminal_histogram(self.BEST.sequencing).items():
            counts[t] = counts.get(t, 0) + n
        for t, n in counts.items():
            assert f"- {t.name}: {n}" in report.text

    def test_provider_failure_degrades_gracefully(self, tmp_path):
        cfg = ProviderConfig(endpoint=f"mock:{tmp_path}")  # no canned reply
        report = generate_report(self.BEST, FMEAN, cfg)
        assert not report.narrative_ok
        assert report.error is not None
        assert NARRATIVE_UNAVAILABLE in report.text
        assert "## Appendix (machine generated)" in report.text
        assert "Held-out test fitness" not in report.text
