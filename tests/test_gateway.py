import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from medcascade.errors import (AuthError, BackendUnavailable, ResponseEmpty,
                               UnknownBackend, UnknownSentinel)
from medcascade.gateway import (Gateway, GatewayConfig, LlamaServerBackend, MockBackend,
                                OpenAIChatBackend, ResponseCache, RetryPolicy,
                                TokenBucket, TransientBackendError, build_gateway,
                                cache_key, load_symptom_lexicon)

MOCK = MockBackend()


def fake_backend(backend_id, scope=None):
    return SimpleNamespace(backend_id=backend_id, scope=scope)


class TestMockBackend:
    def test_refine_normalizes_whitespace(self):
        assert MOCK.complete("REFINE: text  with   spaces") == "text with spaces"

    def test_refine_synthesizes_age_header(self):
        out = MOCK.complete("REFINE: والدتي عندها 65 سنة وتعاني من صداع")
        assert out == "Age: 65\nوالدتي عندها 65 سنة وتعاني من صداع"

    def test_refine_age_keyword_english(self):
        out = MOCK.complete("REFINE: she is 65 years old")
        assert out.startswith("Age: 65\n")

    def test_refine_plain_digits_no_header(self):
        assert MOCK.complete("REFINE: took 5 pills daily") == "took 5 pills daily"

    def test_summarize_first_two_sentences(self):
        assert MOCK.complete("SUMMARIZE: A. B. C.") == "A. B."

    def test_summarize_single_sentence_identity(self):
        assert MOCK.complete("SUMMARIZE: only one sentence here") == \
            "only one sentence here"

    def test_summarize_arabic_question_mark(self):
        assert MOCK.complete("SUMMARIZE: الاولى؟ الثانية. الثالثة.") == \
            "الاولى؟ الثانية."

    def test_ner_lexicon_hits(self):
        backend = MockBackend(lexicon={"headache", "fever"})
        out = backend.complete("NER: headache and fever")
        assert out == "headache, fever"

    def test_ner_repeats_every_occurrence(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete("NER: fever then fever") == "fever, fever"

    def test_ner_strips_punctuation_keeps_surface(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete("NER: Fever, then rest") == "Fever"

    def test_ner_no_hits_empty(self):
        backend = MockBackend(lexicon={"fever"})
        assert backend.complete("NER: nothing relevant") == ""

    def test_unknown_sentinel(self):
        with pytest.raises(UnknownSentinel):
            MOCK.complete("TRANSLATE: x")

    def test_bundled_lexicon_covers_arabic_and_english(self):
        lexicon = load_symptom_lexicon()
        assert {"headache", "fever", "سكري", "طفح"} <= lexicon

    def test_pure_function(self):
        r = "NER: headache and fever"
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
        r = "REFINE: hello   there"
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
        r = "REFINE: hello   there"
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
    prompt_style = "instruct"
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
        gw = Gateway(backend, retry=RetryPolicy(max_retries=3, base_delay=0.5),
                     sleep=sleeps.append)
        assert gw.complete("x") == "ok"
        assert backend.calls == 3
        assert sleeps == [0.5, 1.0]
        assert sleeps == sorted(sleeps)  # nondecreasing backoff

    def test_exhausted_raises_backend_unavailable(self):
        sleeps = []
        backend = FlakyBackend(failures=99)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=2), sleep=sleeps.append)
        with pytest.raises(BackendUnavailable,
                           match="^backend 'flaky' failed after 3 attempts: boom$"):
            gw.complete("x")
        assert backend.calls == 3  # 1 + max_retries, never more
        assert len(sleeps) == 2

    def test_backoff_capped(self):
        policy = RetryPolicy(max_retries=5, base_delay=1.0, max_delay=6.0)
        delays = list(policy.delays())
        assert delays == [1.0, 2.0, 4.0, 6.0, 6.0]

    def test_empty_response_raises(self):
        gw = Gateway(FlakyBackend(failures=0, response="  "))
        with pytest.raises(ResponseEmpty):
            gw.complete("x")

    def test_no_retries_means_one_attempt(self):
        backend = FlakyBackend(failures=99)
        gw = Gateway(backend, retry=RetryPolicy(max_retries=0), sleep=pytest.fail)
        with pytest.raises(BackendUnavailable, match="after 1 attempts"):
            gw.complete("x")
        assert backend.calls == 1


class CountingLimiter:
    def __init__(self):
        self.acquires = 0

    def acquire(self):
        self.acquires += 1


class TestRateLimit:
    def test_every_attempt_takes_a_token(self):
        backend = FlakyBackend(failures=2)
        limiter = CountingLimiter()
        gw = Gateway(backend, rate_limiter=limiter, sleep=lambda s: None)
        assert gw.complete("x") == "ok"
        assert limiter.acquires == backend.calls == gw.backend_calls == 3


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
    last_body = b""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        type(self).last_body = raw
        body = json.loads(raw)
        if self.behavior == "auth":
            self.send_response(401)
            self.end_headers()
            return
        if self.behavior == "flaky_then_ok":
            type(self).behavior = "ok"
            self.send_response(503)
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
        if self.path.endswith("/completion"):
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
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpBackends:
    def test_openai_roundtrip(self, http_server):
        _Handler.behavior = "ok"
        gw = Gateway(OpenAIChatBackend("openai", http_server, api_key="k"))
        assert gw.complete("hi") == "echo:hi"

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
            gw.complete("hi")
        _Handler.behavior = "ok"

    def test_transient_503_retried(self, http_server):
        _Handler.behavior = "flaky_then_ok"
        gw = Gateway(OpenAIChatBackend("openai", http_server), sleep=lambda s: None)
        assert gw.complete("hi") == "echo:hi"


    @pytest.mark.parametrize("behavior", ["disconnect_then_ok", "hang_then_ok"])
    def test_transport_failure_retried(self, http_server, behavior):
        _Handler.behavior = behavior
        gw = Gateway(OpenAIChatBackend("openai", http_server, timeout=0.5),
                     sleep=lambda s: None)
        assert gw.complete("hi") == "echo:hi"
        assert gw.backend_calls == 2

    def test_undecodable_body_is_backend_unavailable(self, http_server):
        _Handler.behavior = "html"
        gw = Gateway(OpenAIChatBackend("openai", http_server), sleep=lambda s: None)
        with pytest.raises(BackendUnavailable, match="undecodable response"):
            gw.complete("hi")
        assert gw.backend_calls == 1
        _Handler.behavior = "ok"


class TestConcurrency:
    def test_concurrent_callers_share_cache_safely(self, tmp_path):
        import concurrent.futures

        gw = Gateway(MockBackend(), cache=ResponseCache(tmp_path))
        prompts = [f"REFINE: text number {i % 5}  padded" for i in range(40)]

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
        assert gw.complete("REFINE: a  b") == "a b"

    def test_live_backend_needs_url(self):
        with pytest.raises(UnknownBackend):
            build_gateway(GatewayConfig(backend="openai"))

    def test_env_overrides_url(self, monkeypatch, http_server):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        monkeypatch.setenv("MEDCASCADE_LLM_KEY", "secret")
        gw = build_gateway(GatewayConfig(backend="openai"))
        assert gw.complete("hi") == "echo:hi"

    def test_models_sharing_a_cache_dir_each_call_the_backend(self, monkeypatch, http_server,
                                                              tmp_path):
        _Handler.behavior = "ok"
        monkeypatch.setenv("MEDCASCADE_LLM_URL", http_server)
        calls = []
        for model in ("model-a", "model-b", "model-a"):
            gw = build_gateway(GatewayConfig(backend="openai", model=model,
                                             cache_dir=str(tmp_path / "c")))
            assert gw.complete("hi") == "echo:hi"
            calls.append((gw.backend_calls, gw.cache_hits))
        assert calls == [(1, 0), (1, 0), (0, 1)]

    def test_lexicons_sharing_a_cache_dir_each_call_the_backend(self, tmp_path):
        one_term = tmp_path / "one_term.txt"
        one_term.write_text("fever\n", encoding="utf-8")
        answers = []
        for lexicon in ("", str(one_term), str(one_term)):
            gw = build_gateway(GatewayConfig(backend="mock", lexicon_path=lexicon,
                                             cache_dir=str(tmp_path / "c")))
            answers.append((gw.complete("NER: fever and headache"),
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
                gw.complete(f"REFINE: record {i}")
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
