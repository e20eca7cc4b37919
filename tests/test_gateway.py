import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from medcascade.errors import (AuthError, BackendUnavailable, ResponseEmpty,
                               UnknownBackend, UnknownSentinel)
from medcascade.gateway import (CompletionRequest, Gateway, GatewayConfig, MockBackend,
                                OpenAIChatBackend, ResponseCache, RetryPolicy,
                                TokenBucket, TransientBackendError, build_gateway,
                                cache_key, load_symptom_lexicon, mock_complete)


def req(prompt, backend_id="mock", **kwargs):
    return CompletionRequest(prompt=prompt, backend_id=backend_id, **kwargs)


class TestMockBackend:
    def test_refine_normalizes_whitespace(self):
        assert mock_complete(req("REFINE: text  with   spaces")) == "text with spaces"

    def test_refine_synthesizes_age_header(self):
        out = mock_complete(req("REFINE: والدتي عندها 65 سنة وتعاني من صداع"))
        assert out == "Age: 65\nوالدتي عندها 65 سنة وتعاني من صداع"

    def test_refine_age_keyword_english(self):
        out = mock_complete(req("REFINE: she is 65 years old"))
        assert out.startswith("Age: 65\n")

    def test_refine_plain_digits_no_header(self):
        assert mock_complete(req("REFINE: took 5 pills daily")) == "took 5 pills daily"

    def test_summarize_first_two_sentences(self):
        assert mock_complete(req("SUMMARIZE: A. B. C.")) == "A. B."

    def test_summarize_single_sentence_identity(self):
        assert mock_complete(req("SUMMARIZE: only one sentence here")) == \
            "only one sentence here"

    def test_summarize_arabic_question_mark(self):
        assert mock_complete(req("SUMMARIZE: الاولى؟ الثانية. الثالثة.")) == \
            "الاولى؟ الثانية."

    def test_ner_lexicon_hits(self):
        backend = MockBackend(lexicon={"headache", "fever"})
        out = backend.complete(req("NER: headache and fever"))
        assert out == "headache, fever"

    def test_ner_repeats_every_occurrence(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(req("NER: fever then fever")) == "fever, fever"

    def test_ner_strips_punctuation_keeps_surface(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(req("NER: Fever, then rest")) == "Fever"

    def test_ner_no_hits_empty(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete(req("NER: nothing relevant")) == ""

    def test_unknown_sentinel(self):
        with pytest.raises(UnknownSentinel):
            mock_complete(req("TRANSLATE: x"))

    def test_bundled_lexicon_covers_arabic_and_english(self):
        lexicon = load_symptom_lexicon()
        assert {"headache", "fever", "سكري", "طفح"} <= lexicon

    def test_pure_function(self):
        r = req("NER: headache and fever")
        assert mock_complete(r) == mock_complete(r)


class TestRequestValidation:
    def test_empty_prompt(self):
        with pytest.raises(ValueError):
            req("").validate()

    def test_temperature_range(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", temperature=3.0, reproducible=False).validate()

    def test_reproducible_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", temperature=0.5, reproducible=True).validate()


class TestCache:
    def test_second_call_served_from_cache(self, tmp_path):
        gw = Gateway(cache=ResponseCache(tmp_path))
        gw.register_backend(MockBackend())
        r = req("REFINE: hello   there")
        first = gw.complete(r)
        second = gw.complete(r)
        assert first == second == "hello there"
        assert gw.backend_calls == 1
        assert gw.cache_hits == 1

    def test_key_equality_iff_request_equality(self):
        a = req("REFINE: x")
        assert cache_key(a) == cache_key(req("REFINE: x"))
        assert cache_key(a) != cache_key(req("REFINE: y"))
        assert cache_key(a) != cache_key(req("REFINE: x", max_output_tokens=9))
        assert cache_key(a) != cache_key(CompletionRequest(
            prompt="REFINE: x", temperature=1.0, reproducible=False))
        assert cache_key(a) != cache_key(req("REFINE: x", backend_id="other"))

    def test_key_covers_the_backend_scope(self):
        a = req("hi", backend_id="openai")
        scope = {"url": "http://127.0.0.1:1/v1", "model": "m1"}
        assert cache_key(a) == cache_key(a, {})
        assert cache_key(a) != cache_key(a, scope)
        assert cache_key(a, scope) != cache_key(a, {**scope, "model": "m2"})
        assert cache_key(a, scope) != cache_key(a, {**scope, "url": "http://127.0.0.1:2/v1"})

    @given(st.text(min_size=1, max_size=80), st.text(min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_key_property(self, p1, p2):
        k1, k2 = cache_key(req(p1)), cache_key(req(p2))
        assert (k1 == k2) == (p1 == p2)

    def test_cache_file_named_by_key(self, tmp_path):
        cache = ResponseCache(tmp_path)
        r = req("REFINE: x")
        cache.put(cache_key(r), "x", r)
        assert (tmp_path / f"{cache_key(r)}.json").exists()
        assert cache.get(cache_key(r)) == "x"

    @pytest.mark.parametrize("damage", [b'{"key": "k", "resp', b"", b"\xff\xfe", b"null",
                                        b'{"key": "k"}'],
                             ids=["truncated", "empty", "not-utf8", "not-object", "no-response"])
    def test_damaged_entry_is_a_miss_and_put_overwrites_it(self, tmp_path, damage):
        gw = Gateway(cache=ResponseCache(tmp_path))
        backend = MockBackend()
        gw.register_backend(backend)
        r = req("REFINE: hello   there")
        path = tmp_path / f"{cache_key(r, backend.scope)}.json"
        path.write_bytes(damage)
        assert gw.complete(r) == "hello there"
        assert (gw.backend_calls, gw.cache_hits) == (1, 0)
        assert json.loads(path.read_text(encoding="utf-8"))["response"] == "hello there"
        assert gw.complete(r) == "hello there"
        assert (gw.backend_calls, gw.cache_hits) == (1, 1)


class FlakyBackend:
    backend_id = "flaky"
    prompt_style = "instruct"

    def __init__(self, failures, response="ok"):
        self.failures = failures
        self.response = response
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("boom")
        return self.response


class TestRetry:
    def test_retries_then_succeeds(self):
        sleeps = []
        gw = Gateway(retry=RetryPolicy(max_retries=3, base_delay=0.5),
                     sleep=sleeps.append)
        backend = FlakyBackend(failures=2)
        gw.register_backend(backend)
        assert gw.complete(req("x", backend_id="flaky")) == "ok"
        assert backend.calls == 3
        assert sleeps == [0.5, 1.0]
        assert sleeps == sorted(sleeps)  # nondecreasing backoff

    def test_exhausted_raises_backend_unavailable(self):
        sleeps = []
        gw = Gateway(retry=RetryPolicy(max_retries=2), sleep=sleeps.append)
        backend = FlakyBackend(failures=99)
        gw.register_backend(backend)
        with pytest.raises(BackendUnavailable):
            gw.complete(req("x", backend_id="flaky"))
        assert backend.calls == 3  # 1 + max_retries, never more
        assert len(sleeps) == 2

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=5, base_delay=1.0, factor=4.0, max_delay=6.0)
        delays = list(policy.delays())
        assert delays == [1.0, 4.0, 6.0, 6.0, 6.0]

    def test_empty_response_raises(self):
        gw = Gateway()
        gw.register_backend(FlakyBackend(failures=0, response="  "))
        with pytest.raises(ResponseEmpty):
            gw.complete(req("x", backend_id="flaky"))

    def test_unregistered_backend(self):
        with pytest.raises(UnknownBackend):
            Gateway().complete(req("x", backend_id="nope"))


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


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if self.behavior == "auth":
            self.send_response(401)
            self.end_headers()
            return
        if self.behavior == "flaky_then_ok":
            type(self).behavior = "ok"
            self.send_response(503)
            self.end_headers()
            return
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
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpBackends:
    def test_openai_roundtrip(self, http_server):
        _Handler.behavior = "ok"
        gw = Gateway()
        gw.register_backend(OpenAIChatBackend("openai", http_server, api_key="k"))
        assert gw.complete(req("hi", backend_id="openai")) == "echo:hi"

    def test_invalid_key_auth_error(self, http_server):
        _Handler.behavior = "auth"
        gw = Gateway(sleep=lambda s: None)
        gw.register_backend(OpenAIChatBackend("openai", http_server, api_key="bad"))
        with pytest.raises(AuthError):
            gw.complete(req("hi", backend_id="openai"))
        _Handler.behavior = "ok"

    def test_transient_503_retried(self, http_server):
        _Handler.behavior = "flaky_then_ok"
        gw = Gateway(sleep=lambda s: None)
        gw.register_backend(OpenAIChatBackend("openai", http_server))
        assert gw.complete(req("hi", backend_id="openai")) == "echo:hi"


class TestConcurrency:
    def test_concurrent_callers_share_cache_safely(self, tmp_path):
        import concurrent.futures

        gw = Gateway(cache=ResponseCache(tmp_path))
        gw.register_backend(MockBackend())
        prompts = [f"REFINE: text number {i % 5}  padded" for i in range(40)]

        def call(prompt):
            return gw.complete(req(prompt))

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(call, prompts))
        assert results == [f"text number {i % 5} padded" for i in range(40)]
        # 5 distinct requests -> 5 cache files, all valid JSON
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 5
        for path in files:
            json.loads(path.read_text(encoding="utf-8"))


class TestBuildGateway:
    def test_mock_default(self, tmp_path):
        gw = build_gateway(GatewayConfig(backend="mock", cache_dir=str(tmp_path / "c")))
        assert gw.complete(req("REFINE: a  b")) == "a b"

    def test_live_backend_needs_url(self):
        with pytest.raises(UnknownBackend):
            build_gateway(GatewayConfig(backend="openai"))

    def test_env_overrides_url(self, monkeypatch, http_server):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        monkeypatch.setenv("MEDCASCADE_LLM_KEY", "secret")
        gw = build_gateway(GatewayConfig(backend="openai"))
        assert gw.complete(req("hi", backend_id="openai")) == "echo:hi"

    def test_models_sharing_a_cache_dir_each_call_the_backend(self, monkeypatch, http_server,
                                                              tmp_path):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        calls = []
        for model in ("model-a", "model-b", "model-a"):
            gw = build_gateway(GatewayConfig(backend="openai", model=model,
                                             cache_dir=str(tmp_path / "c")))
            assert gw.complete(req("hi", backend_id="openai")) == "echo:hi"
            calls.append((gw.backend_calls, gw.cache_hits))
        assert calls == [(1, 0), (1, 0), (0, 1)]

    def test_lexicons_sharing_a_cache_dir_each_call_the_backend(self, tmp_path):
        one_term = tmp_path / "one_term.txt"
        one_term.write_text("fever\n", encoding="utf-8")
        answers = []
        for lexicon in ("", str(one_term), str(one_term)):
            gw = build_gateway(GatewayConfig(backend="mock", lexicon_path=lexicon,
                                             cache_dir=str(tmp_path / "c")))
            answers.append((gw.complete(req("NER: fever and headache")),
                            gw.backend_calls, gw.cache_hits))
        assert answers == [("fever, headache", 1, 0), ("fever", 1, 0), ("fever", 0, 1)]

    def test_mock_scope_is_a_digest_of_the_lexicon(self):
        assert MockBackend({"fever", "cough"}).scope == MockBackend({"cough", "fever"}).scope
        assert MockBackend({"fever"}).scope != MockBackend({"fever", "cough"}).scope
        assert MockBackend().scope == MockBackend(load_symptom_lexicon()).scope

    def test_unknown_backend_name(self):
        with pytest.raises(UnknownBackend):
            build_gateway(GatewayConfig(backend="mystery"))

    def test_mock_has_no_limiter_and_never_sleeps(self, tmp_path):
        gw = build_gateway(GatewayConfig(backend="mock", cache_dir=str(tmp_path / "c")))
        assert gw.rate_limiter is None
        slept = []

        def profile(frame, event, arg):
            if event == "c_call" and arg is time.sleep:
                slept.append(arg)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for i in range(30):  # three times the default burst
                gw.complete(req(f"REFINE: record {i}"))
        finally:
            sys.setprofile(previous)
        assert gw.backend_calls == 30
        assert slept == []

    def test_live_backend_gets_the_configured_limiter(self, monkeypatch):
        monkeypatch.delenv("MEDCASCADE_LLM_URL", raising=False)
        gw = build_gateway(GatewayConfig(backend="openai", url="http://127.0.0.1:9/v1",
                                         rate_per_sec=7.0, burst=3.0))
        assert isinstance(gw.rate_limiter, TokenBucket)
        assert (gw.rate_limiter.rate, gw.rate_limiter.capacity) == (7.0, 3.0)
