import contextlib
import json
import select
import selectors
import socket
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from medcascade import gateway
from medcascade.errors import (AuthError, BackendUnavailable, MedcascadeError, ResponseEmpty,
                               RetriesExhausted, UnknownBackend, UnknownSentinel)
from medcascade.gateway import (Gateway, GatewayConfig, InFlight, LlamaServerBackend,
                                MockBackend, OpenAIChatBackend, ResponseCache, RetryLater,
                                RetryPolicy, TokenBucket, TransientBackendError, build_gateway,
                                cache_key, load_symptom_lexicon)
from medcascade.preprocess import BundleStore, render, run_bundle

from conftest import ask, drive, make_record, serving

MOCK = MockBackend()


def fake_backend(backend_id, scope=None):
    return SimpleNamespace(backend_id=backend_id, scope=scope)


class TestMockBackend:
    def test_refine_normalizes_whitespace(self):
        assert MOCK.complete(render("refine", "text  with   spaces")) == "text with spaces"

    def test_refine_synthesizes_age_header(self):
        out = MOCK.complete(render("refine", "والدتي عندها 65 سنة وتعاني من صداع"))
        assert out == "Age: 65\nوالدتي عندها 65 سنة وتعاني من صداع"

    def test_refine_age_keyword_english(self):
        out = MOCK.complete(render("refine", "she is 65 years old"))
        assert out.startswith("Age: 65\n")

    def test_refine_plain_digits_no_header(self):
        assert MOCK.complete(render("refine", "took 5 pills daily")) == "took 5 pills daily"

    def test_summarize_first_two_sentences(self):
        assert MOCK.complete(render("summarize", "A. B. C.")) == "A. B."

    def test_summarize_single_sentence_identity(self):
        assert MOCK.complete(render("summarize", "only one sentence here")) == \
            "only one sentence here"

    def test_summarize_arabic_question_mark(self):
        assert MOCK.complete(render("summarize", "الاولى؟ الثانية. الثالثة.")) == \
            "الاولى؟ الثانية."

    def test_ner_lexicon_hits(self):
        backend = MockBackend(lexicon={"headache", "fever"})
        out = backend.complete(render("ner", "headache and fever"))
        assert out == "headache, fever"

    def test_ner_repeats_every_occurrence(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(render("ner", "fever then fever")) == "fever, fever"

    def test_ner_strips_punctuation_keeps_surface(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(render("ner", "Fever, then rest")) == "Fever"

    def test_ner_no_hits_empty(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(render("ner", "nothing relevant")) == ""

    def test_unknown_sentinel(self):
        with pytest.raises(UnknownSentinel):
            MOCK.complete("TRANSLATE: x")
        with pytest.raises(UnknownSentinel):   # the bare sentinel prompts are gone
            MOCK.complete("REFINE: x")

    def test_bundled_lexicon_covers_arabic_and_english(self):
        lexicon = load_symptom_lexicon()
        assert {"headache", "fever", "سكري", "طفح"} <= lexicon

    def test_pure_function(self):
        r = render("ner", "headache and fever")
        assert MOCK.complete(r) == MOCK.complete(r)


class TestRequestValidation:
    def test_empty_prompt(self):
        gw = Gateway(MockBackend())
        with pytest.raises(ValueError):
            gw.complete("")
        assert gw.backend_calls == 0


class TestCache:
    def test_second_call_served_from_cache(self, tmp_path):
        gw = Gateway(MockBackend(), cache=ResponseCache(tmp_path))
        r = render("refine", "hello   there")
        first = gw.complete(r)
        second = gw.complete(r)
        assert first == second == "hello there"
        assert gw.backend_calls == 1
        assert gw.cache_hits == 1

    def test_key_equality_iff_request_equality(self):
        key = cache_key("REFINE: x", MOCK)
        assert key == cache_key("REFINE: x", MockBackend())
        assert key != cache_key("REFINE: y", MOCK)
        assert key != cache_key("REFINE: x", fake_backend("other", MOCK.scope))

    @pytest.mark.parametrize("backend, key", [
        (MockBackend(),
         "5100775bd171ceff55f6978edefe5582c9ebb1b41fcc71bfc6191d90b5446ade"),
        (OpenAIChatBackend("openai", "http://127.0.0.1:9/v1", model="stub"),
         "143811f5f9950700f1a1067a04baac3ecda9a387c092cd2d91c021037f6aae90"),
        (LlamaServerBackend("llama", "http://127.0.0.1:9/completion"),
         "aa280f69fc3517fd3a47449079a0e2bce54208ddd564b3c96a536b90368f0bc4"),
    ], ids=["mock", "openai", "llama"])
    def test_keys_are_pinned(self, backend, key):
        # existing caches must keep hitting: these are the keys caches hold today
        assert cache_key("REFINE: x", backend) == key

    def test_key_covers_the_backend_scope(self):
        scope = {"url": "http://127.0.0.1:1/v1", "model": "m1"}
        key = cache_key("hi", fake_backend("openai"))
        assert key == cache_key("hi", fake_backend("openai", {}))
        assert key != cache_key("hi", fake_backend("openai", scope))
        assert cache_key("hi", fake_backend("openai", scope)) != \
            cache_key("hi", fake_backend("openai", {**scope, "model": "m2"}))
        assert cache_key("hi", fake_backend("openai", scope)) != \
            cache_key("hi", fake_backend("openai", {**scope, "url": "http://127.0.0.1:2/v1"}))

    @given(st.text(min_size=1, max_size=80), st.text(min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_key_property(self, p1, p2):
        k1, k2 = cache_key(p1, MOCK), cache_key(p2, MOCK)
        assert (k1 == k2) == (p1 == p2)

    def test_cache_file_named_by_key(self, tmp_path):
        cache = ResponseCache(tmp_path)
        key = cache_key("REFINE: x", MOCK)
        cache.put(key, "x", "REFINE: x", "mock")
        assert cache.get(key) == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["responses.jsonl"]
        lines = (tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert set(entry) == {"key", "response", "created_at", "request"}
        assert entry["key"] == key
        assert entry["request"] == {"prompt": "REFINE: x", "max_output_tokens": 512,
                                    "temperature": 0.0, "backend_id": "mock"}

    @pytest.mark.parametrize("damage", [b'{"key": "KEY", "resp', b"", b"\xff\xfe", b"null",
                                        b'{"key": "KEY"}'],
                             ids=["truncated", "empty", "not-utf8", "not-object", "no-response"])
    def test_damaged_entry_is_a_miss_and_put_overwrites_it(self, tmp_path, damage):
        gw = Gateway(MockBackend(), cache=ResponseCache(tmp_path))
        r = render("refine", "hello   there")
        key = cache_key(r, gw.backend)
        log = tmp_path / "responses.jsonl"
        log.write_bytes(damage.replace(b"KEY", key.encode()))
        assert gw.complete(r) == "hello there"
        assert (gw.backend_calls, gw.cache_hits) == (1, 0)
        # the damaged line stays; the good line appended after it wins
        assert log.read_bytes().startswith(damage.replace(b"KEY", key.encode()))
        assert json.loads(log.read_bytes().split(b"\n")[-2])["response"] == "hello there"
        assert gw.complete(r) == "hello there"
        assert (gw.backend_calls, gw.cache_hits) == (1, 1)
        assert ResponseCache(tmp_path).get(key) == "hello there"

    def test_torn_last_line_is_skipped_and_the_next_put_starts_a_fresh_line(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("a", "first", "REFINE: a", "mock")
        cache.put("b", "second", "REFINE: b", "mock")
        log = tmp_path / "responses.jsonl"
        torn = b'{"key": "c", "response": "thi'
        with open(log, "ab") as fh:
            fh.write(torn)
        cache = ResponseCache(tmp_path)
        assert cache.get("c") is None
        cache.put("d", "fourth", "REFINE: d", "mock")
        lines = log.read_bytes().split(b"\n")
        assert lines[2] == torn and lines[-1] == b""
        assert json.loads(lines[3])["key"] == "d"
        fresh = ResponseCache(tmp_path)
        assert [fresh.get(k) for k in "abcd"] == ["first", "second", None, "fourth"]


class FlakyBackend:
    backend_id = "flaky"
    scope = None

    def __init__(self, failures, response="ok"):
        self.failures = failures
        self.response = response
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("boom")
        return self.response


class TestRetry:
    def test_retries_then_succeeds(self):
        sleeps = []
        backend = FlakyBackend(failures=2)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=3, base_delay=0.5))
        assert drive(ask("x"), gw, sleeps.append) == "ok"
        assert backend.calls == 3
        assert sleeps == [0.5, 1.0]
        assert sleeps == sorted(sleeps)  # nondecreasing backoff

    def test_exhausted_raises_backend_unavailable(self):
        sleeps = []
        backend = FlakyBackend(failures=99)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=2))
        with pytest.raises(BackendUnavailable,
                           match="^backend 'flaky' failed after 3 attempts: boom$"):
            drive(ask("x"), gw, sleeps.append)
        assert backend.calls == 3  # 1 + max_retries, never more
        assert len(sleeps) == 2

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=5, base_delay=1.0, max_delay=6.0)
        delays = [policy.delay(retry) for retry in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 6.0, 6.0]

    def test_a_long_retry_count_stays_capped(self):
        # doubling 0.5 s 1024 times overflows a float
        assert RetryPolicy(max_retries=5000).delay(1025) == 8.0

    def test_empty_response_raises(self):
        gw = Gateway(FlakyBackend(failures=0, response="  "))
        with pytest.raises(ResponseEmpty):
            gw.complete("x")

    def test_a_transient_failure_is_deferred_not_slept(self):
        backend = FlakyBackend(failures=2)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=3, base_delay=0.5),
                     sleep=pytest.fail)
        delays = []
        for _ in range(2):
            with pytest.raises(RetryLater) as later:
                gw.complete("x")
            delays.append(later.value.delay)
        assert not isinstance(later.value, MedcascadeError)
        assert gw.complete("x") == "ok"
        assert delays == [0.5, 1.0] and backend.calls == gw.backend_calls == 3

    def test_attempts_are_counted_per_prompt(self):
        class FlakyPerPrompt(FlakyBackend):
            """Fails the first ``failures`` attempts of each prompt, then echoes it."""

            def __init__(self, failures):
                super().__init__(failures)
                self.prompts = []

            def complete(self, prompt):
                self.prompts.append(prompt)
                if self.prompts.count(prompt) <= self.failures:
                    raise TransientBackendError("boom")
                return prompt

        gw = Gateway(FlakyPerPrompt(failures=2), retry=RetryPolicy(max_retries=2))
        delays = []
        for prompt in ("a", "b", "a", "b"):
            with pytest.raises(RetryLater) as later:
                gw.complete(prompt)
            delays.append((prompt, later.value.delay))
        assert delays == [("a", 0.5), ("b", 0.5), ("a", 1.0), ("b", 1.0)]
        assert (gw.complete("b"), gw.complete("a")) == ("b", "a")
        # a prompt that succeeded starts counting afresh
        with pytest.raises(RetryLater) as later:
            gw.complete("c")
        assert later.value.delay == 0.5

    def test_no_retries_means_one_attempt(self):
        backend = FlakyBackend(failures=99)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=0))
        with pytest.raises(RetriesExhausted, match="after 1 attempts"):
            drive(ask("x"), gw, pytest.fail)
        assert backend.calls == gw.retries_exhausted == 1


class TestTokenBucket:
    def test_serializes_when_bucket_empty(self):
        clock = {"t": 0.0}
        slept = []

        def sleep(dt):
            slept.append(dt)
            clock["t"] += dt

        bucket = TokenBucket(rate_per_sec=2.0, burst=1.0,
                             clock=lambda: clock["t"], sleep=sleep)
        bucket.acquire()            # uses the one burst token
        bucket.acquire()            # must wait ~0.5s
        assert slept and abs(slept[0] - 0.5) < 1e-9


# answers of a wrong shape, served as JSON whatever the path
_ODD_PAYLOADS = {
    "empty_object": {},
    "json_list": [],
    "number_content": {"content": 5},
    "list_content": {"choices": [{"message": {"content": [{"type": "text", "text": "hi"}]}}]},
}


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    retry_status, retry_after = 503, ""
    last_body = b""
    bodies = []   # every request body, in arrival order

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        type(self).last_body = raw
        self.bodies.append(raw)
        body = json.loads(raw)
        if self.behavior in ("auth", "bad_request", "redirect"):
            self.send_response({"auth": 401, "bad_request": 400, "redirect": 302}[self.behavior])
            self.send_header("Location", self.path)
            self.end_headers()
            return
        if self.behavior == "flaky_then_ok":
            type(self).behavior = "ok"
            self.send_response(503)
            self.end_headers()
            return
        if self.behavior in ("retry_after_then_ok", "retry_after"):
            if self.behavior == "retry_after_then_ok":
                type(self).behavior = "ok"
            self.send_response(self.retry_status)
            self.send_header("Retry-After", self.retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.behavior == "disconnect_then_ok":   # close without a response
            type(self).behavior = "ok"
            self.close_connection = True
            return
        if self.behavior == "hang_then_ok":         # answer nothing past the timeout
            type(self).behavior = "ok"
            time.sleep(1.0)
            self.close_connection = True
            return
        if self.behavior == "html":
            data = b"<html><body>502 Bad Gateway</body></html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if self.behavior in _ODD_PAYLOADS:
            payload = _ODD_PAYLOADS[self.behavior]
        elif self.path.endswith("/completion"):
            payload = {"content": f"echo:{body['prompt']}"}
        else:
            payload = {"choices": [{"message": {
                "content": f"echo:{body['messages'][0]['content']}"}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    with serving(_Handler) as port:
        yield f"http://127.0.0.1:{port}/v1/chat/completions"


class TestHttpBackends:
    def test_openai_roundtrip(self, http_server):
        _Handler.behavior = "ok"
        gw = Gateway(OpenAIChatBackend("openai", http_server, api_key="k"))
        assert drive(ask("hi"), gw) == "echo:hi"

    def test_request_bodies_are_pinned(self, http_server):
        _Handler.behavior = "ok"
        assert OpenAIChatBackend("openai", http_server, model="stub").complete("hi") == "echo:hi"
        assert _Handler.last_body == (b'{"model": "stub", "temperature": 0.0, "max_tokens": 512, '
                                      b'"messages": [{"role": "user", "content": "hi"}]}')
        llama_url = http_server.replace("/v1/chat/completions", "/completion")
        assert LlamaServerBackend("llama", llama_url).complete("hi") == "echo:hi"
        assert _Handler.last_body == b'{"prompt": "hi", "temperature": 0.0, "n_predict": 512}'

    def test_invalid_key_auth_error(self, http_server):
        _Handler.behavior = "auth"
        gw = Gateway(OpenAIChatBackend("openai", http_server, api_key="bad"),
                     sleep=lambda s: None)
        with pytest.raises(AuthError):
            drive(ask("hi"), gw)
        _Handler.behavior = "ok"

    def test_transient_503_retried(self, http_server):
        _Handler.behavior = "flaky_then_ok"
        gw = Gateway(OpenAIChatBackend("openai", http_server))
        assert drive(ask("hi"), gw) == "echo:hi"


    @pytest.mark.parametrize("status, header, delay", [
        (503, "3", 3.0), (429, "3", 3.0), (503, "0", 0.5), (429, "30", 30.0),
        (429, "600", 120.0),
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5), (429, "soon", 0.5), (503, "-3", 0.5),
        (503, "1.5", 0.5), (502, "3", 0.5),
    ], ids=["503", "429", "shorter-than-policy", "past-backoff-cap", "ceiling", "http-date",
            "unparseable", "negative", "fraction", "not-429-or-503"])
    def test_retry_after_lengthens_the_deferral(self, http_server, status, header, delay):
        _Handler.behavior = "retry_after_then_ok"
        _Handler.retry_status, _Handler.retry_after = status, header
        # the default policy: 0.5 s first, capped at 8 s; a Retry-After may pass
        # the cap, up to RETRY_AFTER_CEILING
        gw = Gateway(OpenAIChatBackend("openai", http_server), sleep=pytest.fail)
        delays = []
        assert drive(ask("hi"), gw, delays.append) == "echo:hi"
        assert delays == [delay]
        assert gw.backend_calls == 2

    def test_a_prompt_out_of_retries_names_the_last_status_and_retry_after(self, http_server):
        _Handler.behavior = "retry_after"
        _Handler.retry_status, _Handler.retry_after = 429, "30"
        gw = Gateway(OpenAIChatBackend("openai", http_server), retry=RetryPolicy(max_retries=1),
                     sleep=pytest.fail)
        delays = []
        with pytest.raises(RetriesExhausted,
                           match=r"after 2 attempts: HTTP 429, Retry-After 30 s$"):
            drive(ask("hi"), gw, delays.append)
        assert delays == [30.0]   # each wait on the server still spends an attempt
        assert gw.backend_calls == 2 and gw.retries_exhausted == 1
        _Handler.behavior = "ok"

    @pytest.mark.parametrize("behavior", ["disconnect_then_ok", "hang_then_ok"])
    def test_transport_failure_retried(self, http_server, behavior):
        _Handler.behavior = behavior
        gw = Gateway(OpenAIChatBackend("openai", http_server, timeout=0.5))
        assert drive(ask("hi"), gw) == "echo:hi"
        assert gw.backend_calls == 2

    def test_undecodable_body_is_backend_unavailable(self, http_server):
        _Handler.behavior = "html"
        gw = Gateway(OpenAIChatBackend("openai", http_server), sleep=lambda s: None)
        with pytest.raises(BackendUnavailable, match="undecodable response"):
            drive(ask("hi"), gw)
        assert gw.backend_calls == 1
        _Handler.behavior = "ok"


    @pytest.mark.parametrize("behavior, backend, named", [
        ("bad_request", OpenAIChatBackend, "HTTP 400"),
        ("redirect", OpenAIChatBackend, "HTTP 302"),
        ("empty_object", OpenAIChatBackend, "unexpected response shape"),
        ("empty_object", LlamaServerBackend, "no 'content' field"),
        ("json_list", LlamaServerBackend, "not a JSON object"),
        ("number_content", LlamaServerBackend, "the completion is int, not a string"),
        ("list_content", OpenAIChatBackend, "the completion is list, not a string"),
    ], ids=["http-400", "http-302-not-followed", "openai-no-choices", "llama-no-content", "llama-list-body",
            "llama-number-content", "openai-list-content"])
    def test_a_bad_answer_is_backend_unavailable_and_not_retried(self, http_server, behavior,
                                                                 backend, named):
        _Handler.behavior = behavior
        url = http_server.replace("/v1/chat/completions", "/completion")
        gw = Gateway(backend("live", url), sleep=lambda s: None)
        with pytest.raises(BackendUnavailable, match=named):
            drive(ask("hi"), gw)
        assert gw.backend_calls == 1
        _Handler.behavior = "ok"


class TestInFlight:
    def test_a_call_that_does_not_block_sends_then_reads_on_one_count(self, http_server):
        _Handler.behavior = "ok"
        gw = Gateway(OpenAIChatBackend("openai", http_server), sleep=pytest.fail)
        with pytest.raises(InFlight) as flight:
            gw.complete("hi")
        assert not isinstance(flight.value, MedcascadeError)
        assert select.select([flight.value.sock], [], [], 5.0)[0]
        with pytest.raises(InFlight):   # not read until the caller says it is ready
            gw.complete("hi")
        flight.value.ready = True
        assert gw.complete("hi") == "echo:hi"
        assert gw.backend_calls == 1

    def test_the_mock_never_raises_in_flight(self, tmp_path, monkeypatch):
        calls = []

        def complete(gw, prompt, _complete=Gateway.complete):
            try:
                answer = _complete(gw, prompt)
            except InFlight:
                calls.append("InFlight")
                raise
            calls.append("answered")
            return answer

        monkeypatch.setattr(Gateway, "complete", complete)
        run_bundle([make_record(rid=f"r{i}") for i in range(3)], Gateway(MockBackend()),
                   BundleStore(tmp_path / "b"))
        assert calls == ["answered"] * 9

    def test_a_failed_send_is_ready_at_once_and_transient(self):
        with socket.socket() as sock:   # a port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        gw = Gateway(OpenAIChatBackend("openai", f"http://127.0.0.1:{port}/v1"),
                     retry=RetryPolicy(max_retries=1), sleep=pytest.fail)
        with pytest.raises(RetryLater):
            gw.complete("hi")
        with pytest.raises(BackendUnavailable, match="after 2 attempts: ConnectionRefusedError"):
            gw.complete("hi")
        assert gw.backend_calls == 2

    def test_an_https_url_speaks_tls(self):
        with socket.create_server(("127.0.0.1", 0)) as server:
            def answer_in_plain_http():
                conn, _ = server.accept()
                with conn:
                    conn.recv(4096)   # the TLS client hello
                    conn.sendall(b"HTTP/1.0 200 OK\r\n\r\n")

            thread = threading.Thread(target=answer_in_plain_http)
            thread.start()
            url = f"https://127.0.0.1:{server.getsockname()[1]}/v1"
            gw = Gateway(OpenAIChatBackend("openai", url, timeout=5.0))
            with pytest.raises(RetryLater) as later:
                gw.complete("hi")
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert isinstance(later.value.__cause__.__cause__, ssl.SSLError)

    @pytest.mark.parametrize("cached, calls", [(True, (3, 3)), (False, (6, 0))],
                             ids=["cache", "no-cache"])
    def test_a_duplicated_record_waits_on_the_same_exchange(self, http_server, tmp_path,
                                                            monkeypatch, cached, calls):
        class CheckedSelector(selectors.DefaultSelector):
            """Fails on a socket closed while registered, or registered twice."""

            def register(self, fileobj, events, data=None):
                assert fileobj not in self.get_map()
                return super().register(fileobj, events, data)

            def select(self, timeout=None):
                assert all(key.fileobj.fileno() != -1 for key in self.get_map().values())
                return super().select(timeout)

        monkeypatch.setattr(selectors, "DefaultSelector", CheckedSelector)
        _Handler.behavior, _Handler.bodies = "ok", []
        gw = Gateway(OpenAIChatBackend("openai", http_server),
                     cache=ResponseCache(tmp_path / "cache") if cached else None)
        records = [make_record(rid=rid, text="fever since monday.") for rid in ("r0", "r1")]
        bundles = run_bundle(records, gw, BundleStore(tmp_path / "b"))
        # as in a serial run: the second record's prompts are cache hits,
        # or new calls without a cache
        assert (gw.backend_calls, gw.cache_hits) == calls
        assert len(_Handler.bodies) == calls[0]
        assert bundles[1].refined == bundles[0].refined.replace("r0", "r1")

    def test_a_hung_exchange_fails_once_after_its_timeout(self, http_server, tmp_path):
        _Handler.behavior, _Handler.bodies = "hang_then_ok", []   # one request hangs 1 s
        gw = Gateway(OpenAIChatBackend("openai", http_server, timeout=0.4),
                     retry=RetryPolicy(max_retries=1, base_delay=0.01))
        started = time.monotonic()
        run_bundle([make_record(text="fever since monday.")], gw, BundleStore(tmp_path / "b"))
        # one timeout and the retry's latency; a second timeout would pass 0.8 s
        assert 0.4 <= time.monotonic() - started < 0.7
        assert gw.backend_calls == len(_Handler.bodies) == 4
        assert (tmp_path / "b" / "failures.jsonl").read_bytes() == b""


class TestConcurrency:
    def test_concurrent_callers_share_cache_safely(self, tmp_path):
        import concurrent.futures

        gw = Gateway(MockBackend(), cache=ResponseCache(tmp_path))
        prompts = [render("refine", f"text number {i % 5}  padded") for i in range(40)]

        def call(prompt):
            return gw.complete(prompt)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(call, prompts))
        assert results == [f"text number {i % 5} padded" for i in range(40)]
        # 5 distinct requests -> 5 distinct keys in the log, every line valid JSON
        lines = (tmp_path / "responses.jsonl").read_text(encoding="utf-8").splitlines()
        assert len({json.loads(line)["key"] for line in lines}) == 5


class TestBuildGateway:
    def test_mock_default(self, tmp_path):
        gw = build_gateway(GatewayConfig(backend="mock", cache_dir=str(tmp_path / "c")))
        assert gw.complete(render("refine", "a  b")) == "a b"

    def test_live_backend_needs_url(self):
        with pytest.raises(UnknownBackend):
            build_gateway(GatewayConfig(backend="openai"))

    def test_env_overrides_url(self, monkeypatch, http_server):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        monkeypatch.setenv("MEDCASCADE_LLM_KEY", "secret")
        gw = build_gateway(GatewayConfig(backend="openai"))
        assert drive(ask("hi"), gw) == "echo:hi"

    def test_models_sharing_a_cache_dir_each_call_the_backend(self, monkeypatch, http_server,
                                                              tmp_path):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        calls = []
        for model in ("model-a", "model-b", "model-a"):
            gw = build_gateway(GatewayConfig(backend="openai", model=model,
                                             cache_dir=str(tmp_path / "c")))
            assert drive(ask("hi"), gw) == "echo:hi"
            calls.append((gw.backend_calls, gw.cache_hits))
        assert calls == [(1, 0), (1, 0), (0, 1)]

    def test_lexicons_sharing_a_cache_dir_each_call_the_backend(self, tmp_path, monkeypatch):
        one_term = tmp_path / "one_term.txt"
        one_term.write_text("fever\n", encoding="utf-8")
        answers = []
        for lexicon in (gateway._LEXICON_PATH, str(one_term), str(one_term)):
            monkeypatch.setattr(gateway, "_LEXICON_PATH", lexicon)
            gw = build_gateway(GatewayConfig(backend="mock", cache_dir=str(tmp_path / "c")))
            answers.append((gw.complete(render("ner", "fever and headache")),
                            gw.backend_calls, gw.cache_hits))
        assert answers == [("fever, headache", 1, 0), ("fever", 1, 0), ("fever", 0, 1)]

    def test_mock_scope_is_a_digest_of_the_lexicon(self):
        assert MockBackend({"fever", "cough"}).scope == MockBackend({"cough", "fever"}).scope
        assert MockBackend({"fever"}).scope != MockBackend({"fever", "cough"}).scope
        assert MockBackend().scope == MockBackend(load_symptom_lexicon()).scope

    def test_unknown_backend_name(self):
        with pytest.raises(UnknownBackend):
            build_gateway(GatewayConfig(backend="mystery"))

    @pytest.mark.parametrize("backend", ["mock", "openai"])
    def test_no_backend_is_paced_so_none_sleeps(self, tmp_path, monkeypatch, http_server,
                                                backend):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        gw = build_gateway(GatewayConfig(backend=backend, cache_dir=str(tmp_path / "c")))
        with sleeps() as slept:
            for i in range(30):  # three times the burst of the old token bucket
                assert drive(ask(render("refine", f"record {i}")), gw)
        assert gw.backend_calls == 30
        assert slept == []

    def test_llama_backend_is_built_answers_and_never_sleeps(self, monkeypatch, http_server):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL",
                           http_server.replace("/v1/chat/completions", "/completion"))
        gw = build_gateway(GatewayConfig(backend="llama"))
        assert isinstance(gw.backend, LlamaServerBackend)
        with sleeps() as slept:
            assert drive(ask("hi"), gw) == "echo:hi"
        assert slept == []


@contextlib.contextmanager
def sleeps():
    """Yields the list of ``time.sleep`` calls this thread makes in the block."""
    slept = []

    def profile(frame, event, arg):
        if event == "c_call" and arg is time.sleep:
            slept.append(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield slept
    finally:
        sys.setprofile(previous)
