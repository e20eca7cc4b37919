"""A chat/completions stand-in for a live LLM, served on localhost.

The stub answers every request after a fixed latency, so a run's timing
does not depend on a remote model.  Like a hosted API it serves requests
concurrently: the latency is an asyncio sleep, so a client that sends
several requests at once waits for them together.  Failures are injected by record content, so
the same corpus and seed always produce the same calls, retries and
reprompts:

- ``flaky`` records: the first attempt of each distinct prompt gets HTTP 503;
- ``garbled_once`` records: the first entity-extraction answer is
  unparseable, the reprompt is answered properly;
- ``garbled`` records: every entity-extraction answer is unparseable, so the
  record lands in the failure ledger;
- ``fatal`` records: every request gets HTTP 503, so each stage exhausts its
  retries.

The server runs one thread (an asyncio event loop), binds 127.0.0.1 on a
free port and answers one request per connection, as ``urllib`` sends them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import threading
from dataclasses import dataclass
from http import HTTPStatus

GARBLED_ANSWER = "answer: unclear"
_SENTENCE_END = re.compile(r"(?<=[.!?؟])\s+")

# How the three instruct templates can be told apart; anything else is
# answered as a refinement.
_SUMMARIZE_HINT = "Summarize"
_NER_HINT = "entities"

FAILURE_KINDS = ("flaky", "garbled_once", "garbled", "fatal")


def content_rank(seed: int, text: str) -> str:
    """Seeded, content-keyed order used to pick failure subsets."""
    return hashlib.sha256(f"{seed}\x00{text}".encode("utf-8")).hexdigest()


def pick_failures(texts: list[str], seed: int, counts: dict[str, int]) -> dict[str, str]:
    """Assign exactly ``counts[kind]`` distinct texts to each failure kind.

    The subsets are disjoint and depend only on the seed and the texts.
    """
    ranked = sorted(set(texts), key=lambda t: content_rank(seed, t))
    plan: dict[str, str] = {}
    pos = 0
    for kind in FAILURE_KINDS:
        for text in ranked[pos: pos + counts.get(kind, 0)]:
            plan[text] = kind
        pos += counts.get(kind, 0)
    if pos > len(ranked):
        raise ValueError(f"asked for {pos} failing records, corpus has {len(ranked)} texts")
    return plan


def _answer(prompt: str, text: str) -> str:
    if _SUMMARIZE_HINT in prompt:
        return _SENTENCE_END.split(text)[0]
    if _NER_HINT in prompt:
        words = [w.strip(".,؟?!") for w in text.split()]
        picked = [w for w in words if len(w) >= 4][:3] or words[:1]
        return "symptom: " + ", ".join(picked)
    return f"Medical complaint: {text}"


@dataclass
class StubCounters:
    requests: int = 0
    status_503: int = 0
    garbled: int = 0
    unknown: int = 0


class StubLLM:
    """Owns the server, its thread and its injection state."""

    def __init__(self, texts: list[str], failures: dict[str, str], latency_s: float):
        self.texts = sorted(set(texts), key=len, reverse=True)
        self.failures = dict(failures)
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self.reset()

    def reset(self) -> None:
        """Forget earlier attempts, so the next cold pass sees the same failures."""
        with self._lock:
            self.counters = StubCounters()
            self._seen_prompts: set[str] = set()
            self._ner_answers: dict[str, int] = {}

    # -- request handling -------------------------------------------------

    def _text_in(self, prompt: str) -> str | None:
        for text in self.texts:
            if text in prompt:
                return text
        return None

    def respond(self, prompt: str) -> tuple[int, str]:
        """(HTTP status, completion text) for one prompt; no latency."""
        text = self._text_in(prompt)
        with self._lock:
            self.counters.requests += 1
            if text is None:
                self.counters.unknown += 1
                return 400, ""
            kind = self.failures.get(text)
            first_attempt = prompt not in self._seen_prompts
            self._seen_prompts.add(prompt)
            if kind == "fatal" or (kind == "flaky" and first_attempt):
                self.counters.status_503 += 1
                return 503, ""
            if _NER_HINT in prompt and kind in ("garbled", "garbled_once"):
                asked = self._ner_answers.get(text, 0)
                self._ner_answers[text] = asked + 1
                if kind == "garbled" or asked == 0:
                    self.counters.garbled += 1
                    return 200, GARBLED_ANSWER
        return 200, _answer(prompt, text)

    # -- serving ------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            try:
                prompt = json.loads(body.decode("utf-8"))["messages"][0]["content"]
            except (ValueError, KeyError, IndexError, TypeError):
                status, content = 400, ""
            else:
                await asyncio.sleep(self.latency_s)
                status, content = self.respond(prompt)
            payload = b""
            if status == 200:
                payload = json.dumps({"choices": [{"message": {"role": "assistant",
                                                               "content": content}}]},
                                     ensure_ascii=False).encode("utf-8")
            writer.write(f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Content-Length: {len(payload)}\r\n"
                         f"Connection: close\r\n\r\n".encode("ascii") + payload)
            await writer.drain()
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
            pass
        finally:
            writer.close()

    # -- lifetime -----------------------------------------------------------

    def start(self) -> str:
        self._loop = asyncio.new_event_loop()
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        port = self._server.sockets[0].getsockname()[1]
        return f"http://127.0.0.1:{port}/v1/chat/completions"

    def stop(self) -> None:
        """Close the listener and end the loop's thread; no polling."""
        if self._server is None:
            return
        loop, server = self._loop, self._server

        async def close():
            server.close()
            await server.wait_closed()

        asyncio.run_coroutine_threadsafe(close(), loop).result(timeout=5.0)
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("stub server thread did not stop")
        loop.close()
        self._loop = self._server = self._thread = None
