"""Uniform LLM access: a ``Gateway`` wraps one backend with an on-disk
response cache, deferred retries, and rate limiting for live backends.

A backend has a ``backend_id``, a ``scope`` (the settings that decide its
answers, hashed into cache keys) and ``complete(prompt) -> str``.  Every
request asks for ``MAX_OUTPUT_TOKENS`` at ``TEMPERATURE`` 0, and every
backend is sent the same prompts, the preprocessing layers' templates.

The mock backend tells the three layers' prompts apart by their templates'
text before ``{text}`` and applies a fixed pure transformation to what
follows, so every downstream stage is reproducible without network access.
Live backends speak chat/completions-style HTTP JSON over ``http.client``, one
direct connection per request (no proxy, no redirects); endpoint and key come
from config with environment overrides (``MEDCASCADE_LLM_URL``,
``MEDCASCADE_LLM_KEY``).  A backend parses its url once, when built, and
refuses one that is not http or https with a host, a port other than 0 and no
user info: the key goes in ``api_key``.  Only live backends get a token-bucket
rate limiter (``rate_per_sec``/``burst``), which paces every attempt, retries
included; the mock runs in-process and is never paced.  The gateway never
sleeps through a transient failure (connection trouble, 429, 5xx): while the
prompt has retries left it raises ``RetryLater`` with the back-off delay, or a
longer ``Retry-After``, capped at ``max_delay``.  A live backend ``send``s the
request, and the gateway raises its ``InFlight``, the one record of that
exchange and the owner of its connection, until it is ready, then hands it to
the backend's ``complete``; a backend without ``send`` answers in the call.
The caller (``preprocess.run_bundle``) does other work before asking again.

The response cache is one append-only log, ``<cache_dir>/responses.jsonl``,
read once into memory: each completion is one appended line, a damaged or
torn line is a miss, and a later line for a key wins.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time
import urllib.parse
from dataclasses import dataclass

from .atomic import append_jsonl, read_jsonl, text_digest
from .errors import (AuthError, BackendUnavailable, ConfigInvalid, ResponseEmpty,
                     RetriesExhausted, UnknownBackend, UnknownSentinel)

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
    return text_digest(json.dumps(fields, sort_keys=True, ensure_ascii=False))


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

    def _entries(self) -> dict[str, str]:
        if self._index is None:
            self._index = {e["key"]: e["response"] for e in read_jsonl(self.path)
                           if isinstance(e.get("key"), str)
                           and isinstance(e.get("response"), str)}
        return self._index

    def get(self, key: str) -> str | None:
        return self._entries().get(key)

    def put(self, key: str, response: str, prompt: str, backend_id: str) -> None:
        entry = {"key": key, "response": response, "created_at": time.time(),
                 "request": _request_fields(prompt, backend_id)}
        append_jsonl(self.path, entry)
        self._entries()[key] = response


class TokenBucket:
    """Token bucket: paces backend dispatch to ``rate_per_sec`` after a burst
    of ``burst`` calls; it does not serialize the calls."""

    def __init__(self, rate_per_sec: float = 50.0, burst: float = 10.0,
                 clock=time.monotonic, sleep=time.sleep):
        self.rate = rate_per_sec
        self.capacity = burst
        self.tokens = burst
        self.updated = clock()
        self.clock = clock
        self.sleep = sleep

    def acquire(self) -> None:
        while True:
            now = self.clock()
            self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
            self.updated = now
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return
            self.sleep((1.0 - self.tokens) / self.rate)


class TransientBackendError(Exception):
    """Retryable failure (connection trouble, 429/5xx), with a 429/503's ``Retry-After``."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class RetryLater(Exception):
    """Ask again after ``delay`` seconds; not a ``MedcascadeError``, so no
    layer or ledger catches it."""

    def __init__(self, delay: float):
        super().__init__(f"retry in {delay:g} s")
        self.delay = delay


class InFlight(Exception):
    """One exchange, a request on ``conn`` whose reply is unread: set ``ready`` once ``sock``
    is readable or ``deadline`` (``time.monotonic``) is past, then ask again.  A failed send
    keeps its ``error`` and no ``sock``, so it is ready at once.  Not a ``MedcascadeError``."""

    def __init__(self, conn, deadline: float, error: Exception | None = None):
        super().__init__("reply pending")
        self.conn, self.deadline, self.error = conn, deadline, error
        self.sock = None if error else conn.sock
        self.ready = self.sock is None


# -- mock backend ------------------------------------------------------------

SENTENCE_SPLIT = re.compile(r"(?<=[.!?؟])\s+")   # preprocess cuts summaries with it too
_TOKEN_EDGE_PUNCT = ".,;:!?،؛()[]{}\"'«»"

AGE_KEYWORDS = ("سنة", "سنه", "عام", "عاما", "عامًا", "سنين", "years", "year", "yrs", "yr")


def load_symptom_lexicon() -> set[str]:
    terms = set()
    with open(_LEXICON_PATH, encoding="utf-8") as fh:
        for line in fh:
            term = line.strip().lower()
            if term and not term.startswith("#"):
                terms.add(term)
    return terms


class MockBackend:
    """Pure, deterministic stand-in for the completion LLM.

    It answers the layers' prompts (``preprocess.TEMPLATES``), telling each
    stage by its template's text before ``{text}``; what follows, stripped,
    is the payload:

    refine    -> whitespace-normalized payload, prefixed with an ``Age: N``
                 header when a digit run is followed by an age keyword.
    summarize -> first two sentences of the payload.
    ner       -> comma-joined payload tokens found in the symptom lexicon
                 (every occurrence, original surface form).

    ``scope`` holds a digest of the lexicon, since it decides NER answers.
    """

    backend_id = "mock"

    def __init__(self, lexicon: set[str] | None = None):
        from .preprocess import TEMPLATES   # here: preprocess imports this module
        self.lexicon = lexicon if lexicon is not None else load_symptom_lexicon()
        self.scope = {"lexicon": text_digest("\n".join(sorted(self.lexicon)))}
        answers = {"refine": self._refine, "summarize": self._summarize, "ner": self._ner}
        self._heads = {TEMPLATES[stage].partition("{text}")[0]: answers[stage] for stage in answers}

    def complete(self, prompt: str) -> str:
        for head, answer in self._heads.items():
            if prompt.startswith(head):
                return answer(prompt[len(head):].strip())
        raise UnknownSentinel(f"the mock answers only the layers' prompts, got {prompt[:32]!r}")

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
        sentences = SENTENCE_SPLIT.split(payload.strip())
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
    """What both live protocols share: the url, parsed and checked once (a bad one is a
    ``ValueError``), the key, the timeout and the JSON POST, sent then read."""

    def __init__(self, backend_id: str, url: str, api_key: str = "", timeout: float = 60.0):
        parts = urllib.parse.urlsplit(url)   # .port raises unless a number from 0 to 65535
        if (parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0
                or parts.username is not None):
            raise ValueError("use http or https, a host, a port other than 0 and no user info"
                             f" (a key goes in gateway.api_key or ${ENV_KEY})")
        self.backend_id = backend_id
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.scope = {"url": url}
        self._https, self._host, self._port = parts.scheme == "https", parts.hostname, parts.port
        self._path = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))

    def send(self, prompt: str) -> InFlight:
        """Write the request for ``prompt`` on a new connection; a failed one is ready."""
        conn = (http.client.HTTPSConnection if self._https
                else http.client.HTTPConnection)(self._host, self._port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        deadline, error = time.monotonic() + self.timeout, None
        try:
            conn.request("POST", self._path, json.dumps(self._body(prompt)).encode("utf-8"),
                         headers)
        except (OSError, http.client.HTTPException) as e:   # raised by ``_post``
            error = e
        return InFlight(conn, deadline, error)

    def _post(self, prompt: str, flight: InFlight | None) -> dict:
        """The JSON reply of ``flight``, or of an exchange sent here when there is none."""
        flight = flight or self.send(prompt)
        try:
            if flight.error is not None:
                raise flight.error
            flight.conn.sock.settimeout(max(flight.deadline - time.monotonic(), 1e-3))
            with flight.conn.getresponse() as resp:
                status, raw = resp.status, resp.read()
                wait = (resp.getheader("Retry-After") or "").strip()
        except (OSError, http.client.HTTPException) as e:  # refused, reset, timed out
            raise TransientBackendError(f"{type(e).__name__}: {e}") from e
        finally:
            flight.conn.close()
        if status in (401, 403):
            raise AuthError(f"HTTP {status} from {self.url}")
        if status in (408, 429) or status >= 500:
            raise TransientBackendError(f"HTTP {status}", float(wait) if status in (429, 503)
                                        and wait.isascii() and wait.isdigit() else None)
        if not 200 <= status < 300:   # redirects are not followed
            raise BackendUnavailable(f"HTTP {status} from {self.url}")
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as e:
            raise BackendUnavailable(f"undecodable response from {self.url}: {e}") from e
        if not isinstance(data, dict):
            raise BackendUnavailable(f"response from {self.url} is not a JSON object")
        return data

    @staticmethod
    def _text(content) -> str:
        if not isinstance(content, str):
            raise BackendUnavailable(f"the completion is {type(content).__name__}, not a string")
        return content


class OpenAIChatBackend(_HTTPBackend):
    """Chat/completions JSON protocol (OpenAI-compatible servers)."""

    def __init__(self, backend_id: str, url: str, api_key: str = "", model: str = "",
                 timeout: float = 60.0):
        super().__init__(backend_id, url, api_key, timeout)
        self.model = model
        self.scope = {"url": url, "model": model}

    def _body(self, prompt: str) -> dict:
        return {"model": self.model, "temperature": TEMPERATURE, "max_tokens": MAX_OUTPUT_TOKENS,
                "messages": [{"role": "user", "content": prompt}]}

    def complete(self, prompt: str, flight: InFlight | None = None) -> str:
        data = self._post(prompt, flight)
        try:
            return self._text(data["choices"][0]["message"]["content"])
        except (KeyError, IndexError, TypeError) as e:
            raise BackendUnavailable(f"unexpected response shape: {e}") from e


class LlamaServerBackend(_HTTPBackend):
    """llama.cpp-style /completion JSON protocol."""

    def _body(self, prompt: str) -> dict:
        return {"prompt": prompt, "temperature": TEMPERATURE, "n_predict": MAX_OUTPUT_TOKENS}

    def complete(self, prompt: str, flight: InFlight | None = None) -> str:
        data = self._post(prompt, flight)
        if "content" not in data:
            raise BackendUnavailable("response has no 'content' field")
        return self._text(data["content"])


# -- gateway -----------------------------------------------------------------

@dataclass
class RetryPolicy:
    max_retries: int = 3
    base_delay: float = 0.5
    max_delay: float = 8.0

    def delay(self, retry: int) -> float:
        """``base_delay`` doubled per earlier retry, capped at ``max_delay`` (overflow-safe)."""
        return min(self.base_delay * 2.0 ** min(retry - 1, 1023), self.max_delay)


class Gateway:
    """Front door for one backend: cache -> backend, each attempt rate limited
    (not paced with ``rate_limiter=None``, the default).  A caller waits out
    a ``RetryLater`` on ``clock`` and ``sleep``."""

    def __init__(self, backend, cache: ResponseCache | None = None,
                 rate_limiter: TokenBucket | None = None,
                 retry: RetryPolicy | None = None, clock=time.monotonic, sleep=time.sleep):
        self.backend = backend
        self.cache = cache
        self.rate_limiter = rate_limiter
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.backend_calls = 0
        self.cache_hits = 0
        self.retries_exhausted = 0   # prompts that raised RetriesExhausted
        self._attempts: dict[str, int] = {}   # cache key -> failed attempts so far
        self._in_flight: dict[str, InFlight] = {}   # cache key -> exchange sent, not read

    def complete(self, prompt: str) -> str:
        """The answer to ``prompt``.  A request sent by the backend raises its ``InFlight``
        until it is ``ready``; an exchange takes one token and one count, however many ask."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        backend_id = self.backend.backend_id
        key = cache_key(prompt, self.backend)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached

        flight = self._in_flight.get(key)
        if flight is None:
            if self.rate_limiter is not None:
                self.rate_limiter.acquire()
            self.backend_calls += 1
            if hasattr(self.backend, "send"):
                flight = self._in_flight[key] = self.backend.send(prompt)
        if flight is not None and not flight.ready:
            raise flight.with_traceback(None)
        self._in_flight.pop(key, None)
        attempt = self._attempts.pop(key, 0) + 1
        try:
            response = (self.backend.complete(prompt) if flight is None
                        else self.backend.complete(prompt, flight))
        except TransientBackendError as e:
            if attempt > self.retry.max_retries:
                self.retries_exhausted += 1
                raise RetriesExhausted(f"backend {backend_id!r} failed after "
                                       f"{attempt} attempts: {e}") from e
            self._attempts[key] = attempt
            delay = max(self.retry.delay(attempt), e.retry_after or 0.0)
            raise RetryLater(min(delay, self.retry.max_delay)) from e

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


def build_gateway(cfg: GatewayConfig) -> Gateway:
    """Assemble a gateway from config; live backends get a rate limiter and env url/key."""
    cache = ResponseCache(cfg.cache_dir) if cfg.cache_dir else None
    retry = RetryPolicy(max_retries=cfg.max_retries, base_delay=cfg.backoff_base,
                        max_delay=cfg.backoff_cap)
    if cfg.backend == "mock":
        return Gateway(MockBackend(), cache=cache, retry=retry)
    if cfg.backend not in ("openai", "llama"):
        raise UnknownBackend(f"unknown gateway backend {cfg.backend!r}")
    url = os.environ.get(ENV_URL, cfg.url)
    key = os.environ.get(ENV_KEY, cfg.api_key)
    if not url:
        raise UnknownBackend(f"live backend {cfg.backend!r} needs a url "
                             f"(config gateway.url or ${ENV_URL})")
    try:
        if cfg.backend == "openai":
            backend = OpenAIChatBackend(cfg.backend, url, key, cfg.model)
        else:
            backend = LlamaServerBackend(cfg.backend, url, key)
    except ValueError as e:
        source = f"${ENV_URL}" if ENV_URL in os.environ else "gateway.url"
        raise ConfigInvalid(f"{source} is not a valid url: {e}") from None
    return Gateway(backend, cache=cache, rate_limiter=TokenBucket(cfg.rate_per_sec, cfg.burst),
                   retry=retry)
