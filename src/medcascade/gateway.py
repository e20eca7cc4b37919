"""Uniform LLM access: a ``Gateway`` wraps one backend with an on-disk
response cache, retries, and rate limiting for live backends.

A backend has a ``backend_id``, a ``prompt_style`` (the template set the
preprocessing layers render), a ``scope`` (the settings that decide its
answers, hashed into cache keys) and ``complete(prompt) -> str``.  Every
request asks for ``MAX_OUTPUT_TOKENS`` at ``TEMPERATURE`` 0.

The mock backend understands three prompt sentinels (``REFINE:``,
``SUMMARIZE:``, ``NER:``) and applies a fixed pure transformation to the
payload after the sentinel, so every downstream stage is reproducible without
network access.  Live backends speak chat/completions-style HTTP JSON;
endpoint and key come from config with environment overrides
(``MEDCASCADE_LLM_URL``, ``MEDCASCADE_LLM_KEY``).  Only live backends get a
token-bucket rate limiter (``rate_per_sec``/``burst``), which paces every
attempt, retries included; the mock runs in-process and is never paced.

The response cache is one append-only log, ``<cache_dir>/responses.jsonl``,
read once into memory: each completion is one appended line, a damaged or
torn line is a miss, and a later line for a key wins.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .atomic import append_jsonl, read_jsonl
from .errors import (AuthError, BackendUnavailable, ResponseEmpty, UnknownBackend,
                     UnknownSentinel)

ENV_URL = "MEDCASCADE_LLM_URL"
ENV_KEY = "MEDCASCADE_LLM_KEY"

_LEXICON_PATH = os.path.join(os.path.dirname(__file__), "data", "symptom_lexicon.txt")

MAX_OUTPUT_TOKENS = 512
TEMPERATURE = 0.0


def _request_fields(prompt: str, backend_id: str) -> dict:
    return {"prompt": prompt, "max_output_tokens": MAX_OUTPUT_TOKENS,
            "temperature": TEMPERATURE, "backend_id": backend_id}


def cache_key(prompt: str, backend) -> str:
    """Stable content hash over the prompt, the fixed request settings, the
    backend's id and its ``scope``: the settings that decide the answer (a
    live backend's url and model name, the mock's lexicon)."""
    fields = _request_fields(prompt, backend.backend_id)
    if backend.scope:
        fields["scope"] = backend.scope
    canon = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed cache: one append-only JSONL log, indexed in memory.

    The log is read on the first ``get`` or ``put``; ``get`` is then a dict
    lookup and ``put`` appends one line.  A line that cannot be read
    (truncated, not JSON, no response) is a miss, and the next ``put`` of
    its key appends a good line, which wins.
    """

    def __init__(self, directory: str):
        self.path = os.path.join(str(directory), "responses.jsonl")
        self._index: dict[str, str] | None = None
        self._lock = threading.Lock()

    def _entries(self) -> dict[str, str]:
        if self._index is None:
            self._index = {e["key"]: e["response"] for e in read_jsonl(self.path)
                           if isinstance(e.get("key"), str)
                           and isinstance(e.get("response"), str)}
        return self._index

    def get(self, key: str) -> str | None:
        with self._lock:
            return self._entries().get(key)

    def put(self, key: str, response: str, prompt: str, backend_id: str) -> None:
        entry = {"key": key, "response": response, "created_at": time.time(),
                 "request": _request_fields(prompt, backend_id)}
        with self._lock:
            index = self._entries()
            append_jsonl(self.path, entry)
            index[key] = response


class TokenBucket:
    """Thread-safe token bucket: paces backend dispatch to ``rate_per_sec``
    after a burst of ``burst`` calls; it does not serialize the calls."""

    def __init__(self, rate_per_sec: float = 50.0, burst: float = 10.0,
                 clock=time.monotonic, sleep=time.sleep):
        self.rate = rate_per_sec
        self.capacity = burst
        self.tokens = burst
        self.updated = clock()
        self.clock = clock
        self.sleep = sleep
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self.clock()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                wait = (1.0 - self.tokens) / self.rate
            self.sleep(wait)


class TransientBackendError(Exception):
    """Retryable failure (connection trouble, 429/5xx)."""


# -- mock backend ------------------------------------------------------------

_SENTINELS = ("REFINE:", "SUMMARIZE:", "NER:")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?؟])\s+")
_TOKEN_EDGE_PUNCT = ".,;:!?،؛()[]{}\"'«»"

AGE_KEYWORDS = ("سنة", "سنه", "عام", "عاما", "عامًا", "سنين", "years", "year", "yrs", "yr")


def load_symptom_lexicon(path: str | None = None) -> set[str]:
    terms = set()
    with open(path or _LEXICON_PATH, encoding="utf-8") as fh:
        for line in fh:
            term = line.strip().lower()
            if term and not term.startswith("#"):
                terms.add(term)
    return terms


class MockBackend:
    """Pure, deterministic stand-in for the completion LLM.

    REFINE    -> whitespace-normalized payload, prefixed with an ``Age: N``
                 header when a digit run is followed by an age keyword.
    SUMMARIZE -> first two sentences of the payload.
    NER       -> comma-joined payload tokens found in the symptom lexicon
                 (every occurrence, original surface form).

    ``scope`` holds a digest of the lexicon, since it decides NER answers.
    """

    backend_id = "mock"
    prompt_style = "sentinel"

    def __init__(self, lexicon: set[str] | None = None):
        self.lexicon = lexicon if lexicon is not None else load_symptom_lexicon()
        terms = "\n".join(sorted(self.lexicon)).encode("utf-8")
        self.scope = {"lexicon": hashlib.sha256(terms).hexdigest()}

    def complete(self, prompt: str) -> str:
        for sentinel in _SENTINELS:
            if prompt.startswith(sentinel):
                payload = prompt[len(sentinel):].strip()
                if sentinel == "REFINE:":
                    return self._refine(payload)
                if sentinel == "SUMMARIZE:":
                    return self._summarize(payload)
                return self._ner(payload)
        head = prompt.split(":", 1)[0][:32]
        raise UnknownSentinel(f"mock backend knows {_SENTINELS}, got {head!r}")

    @staticmethod
    def _refine(payload: str) -> str:
        tokens = payload.split()
        normalized = " ".join(tokens)
        ages = []
        for i, tok in enumerate(tokens[:-1]):
            word = tok.strip(_TOKEN_EDGE_PUNCT)
            nxt = tokens[i + 1].strip(_TOKEN_EDGE_PUNCT).lower()
            if word.isdigit() and any(nxt.startswith(k) for k in AGE_KEYWORDS):
                ages.append(word)
        if ages:
            return f"Age: {', '.join(ages)}\n{normalized}"
        return normalized

    @staticmethod
    def _summarize(payload: str) -> str:
        sentences = _SENTENCE_SPLIT.split(payload.strip())
        return " ".join(sentences[:2])

    def _ner(self, payload: str) -> str:
        hits = []
        for tok in payload.split():
            word = tok.strip(_TOKEN_EDGE_PUNCT)
            if word and word.lower() in self.lexicon:
                hits.append(word)
        return ", ".join(hits)


# -- live backends -----------------------------------------------------------

class _HTTPBackend:
    """What both live protocols share: url, key, timeout and the JSON POST."""

    prompt_style = "instruct"

    def __init__(self, backend_id: str, url: str, api_key: str = "", timeout: float = 60.0):
        self.backend_id = backend_id
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.scope = {"url": url}

    def _post(self, body: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.url, data=json.dumps(body).encode("utf-8"),
                                         headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as e:
            if e.code in (401, 403):
                raise AuthError(f"HTTP {e.code} from {self.url}") from e
            if e.code in (408, 429) or e.code >= 500:
                raise TransientBackendError(f"HTTP {e.code}") from e
            raise BackendUnavailable(f"HTTP {e.code} from {self.url}") from e
        except (OSError, http.client.HTTPException) as e:  # refused, reset, timed out
            raise TransientBackendError(f"{type(e).__name__}: {e}") from e
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as e:
            raise BackendUnavailable(f"undecodable response from {self.url}: {e}") from e


class OpenAIChatBackend(_HTTPBackend):
    """Chat/completions JSON protocol (OpenAI-compatible servers)."""

    def __init__(self, backend_id: str, url: str, api_key: str = "", model: str = "",
                 timeout: float = 60.0):
        super().__init__(backend_id, url, api_key, timeout)
        self.model = model
        self.scope = {"url": url, "model": model}

    def complete(self, prompt: str) -> str:
        data = self._post({"model": self.model, "temperature": TEMPERATURE,
                           "max_tokens": MAX_OUTPUT_TOKENS,
                           "messages": [{"role": "user", "content": prompt}]})
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise BackendUnavailable(f"unexpected response shape: {e}") from e


class LlamaServerBackend(_HTTPBackend):
    """llama.cpp-style /completion JSON protocol."""

    def complete(self, prompt: str) -> str:
        data = self._post({"prompt": prompt, "temperature": TEMPERATURE,
                           "n_predict": MAX_OUTPUT_TOKENS})
        content = data.get("content")
        if content is None:
            raise BackendUnavailable("response has no 'content' field")
        return content


# -- gateway -----------------------------------------------------------------

@dataclass
class RetryPolicy:
    max_retries: int = 3
    base_delay: float = 0.5
    max_delay: float = 8.0

    def delays(self):
        """``base_delay``, doubling per retry, each capped at ``max_delay``."""
        d = self.base_delay
        for _ in range(self.max_retries):
            yield min(d, self.max_delay)
            d *= 2


class Gateway:
    """Front door for one backend: cache -> backend with retries, each attempt
    rate limited.

    With ``rate_limiter=None`` (the default) backend calls are not paced."""

    def __init__(self, backend, cache: ResponseCache | None = None,
                 rate_limiter: TokenBucket | None = None,
                 retry: RetryPolicy | None = None, sleep=time.sleep):
        self.backend = backend
        self.cache = cache
        self.rate_limiter = rate_limiter
        self.retry = retry or RetryPolicy()
        self.sleep = sleep
        self.backend_calls = 0
        self.cache_hits = 0

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        backend_id = self.backend.backend_id
        key = cache_key(prompt, self.backend)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached

        for attempt, delay in enumerate([*self.retry.delays(), None], start=1):
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            try:
                self.backend_calls += 1
                response = self.backend.complete(prompt)
                break
            except TransientBackendError as e:
                if delay is None:  # retries spent
                    raise BackendUnavailable(f"backend {backend_id!r} failed after "
                                             f"{attempt} attempts: {e}") from e
                self.sleep(delay)

        if not response or not response.strip():
            raise ResponseEmpty(f"backend {backend_id!r} returned an empty completion")
        if self.cache is not None:
            self.cache.put(key, response, prompt, backend_id)
        return response


@dataclass
class GatewayConfig:
    backend: str = "mock"                 # mock | openai | llama
    url: str = ""
    api_key: str = ""
    model: str = ""
    cache_dir: str = ""
    rate_per_sec: float = 50.0            # rate_per_sec and burst pace live
    burst: float = 10.0                   # backends only, never the mock
    max_retries: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    lexicon_path: str = ""


def build_gateway(cfg: GatewayConfig) -> Gateway:
    """Assemble a gateway from config; live backends get a rate limiter and env url/key."""
    cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    retry = RetryPolicy(max_retries=cfg.max_retries, base_delay=cfg.backoff_base,
                        max_delay=cfg.backoff_cap)
    if cfg.backend == "mock":
        lexicon = load_symptom_lexicon(cfg.lexicon_path) if cfg.lexicon_path else None
        return Gateway(MockBackend(lexicon), cache=cache, retry=retry)
    if cfg.backend not in ("openai", "llama"):
        raise UnknownBackend(f"unknown gateway backend {cfg.backend!r}")
    url = os.environ.get(ENV_URL, cfg.url)
    key = os.environ.get(ENV_KEY, cfg.api_key)
    if not url:
        raise UnknownBackend(f"live backend {cfg.backend!r} needs a url "
                             f"(config gateway.url or ${ENV_URL})")
    if cfg.backend == "openai":
        backend = OpenAIChatBackend(cfg.backend, url, key, cfg.model)
    else:
        backend = LlamaServerBackend(cfg.backend, url, key)
    return Gateway(backend, cache=cache, rate_limiter=TokenBucket(cfg.rate_per_sec, cfg.burst),
                   retry=retry)
