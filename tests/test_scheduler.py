"""The preprocess stage's scheduler: ``run_bundle`` parks a (record, layer)
task whose gateway call must be retried, or whose reply is still out, and
keeps serving the others."""

import asyncio
import json
import os
import re
import tempfile
import threading
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from medcascade import preprocess
from medcascade.atomic import text_digest, write_jsonl
from medcascade.corpus import scrub_pii
from medcascade.errors import MedcascadeError
from medcascade.gateway import (Gateway, MockBackend, OpenAIChatBackend, ResponseCache,
                                RetryPolicy, TransientBackendError, cache_key)
from medcascade.preprocess import (FORMAT_REMINDER, TEMPLATES, BundleStore, extract_entities,
                                   refine, run_bundle, summarize)

from conftest import drive, make_record

# binary fractions, so the fake clock's sums are exact
LATENCY = 0.125
POLICY = RetryPolicy(max_retries=2, base_delay=0.5, max_delay=8.0)


def _stage_of(prompt):
    """The layer whose template ``prompt`` was rendered from."""
    return next(stage for stage, template in TEMPLATES.items()
                if prompt.startswith(template.partition("{text}")[0]))


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []   # (time, seconds, (record, stage) pairs started so far)
        self.started = set()

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append((self.now, seconds, frozenset(self.started)))
        self.now += seconds


class ClockedBackend(MockBackend):
    """The mock on a fake clock: every call takes ``LATENCY`` seconds.  The
    first attempt of each ``fail_first`` (record, stage) pair and every
    attempt of each ``fail_always`` pair fail transiently; the NER answers
    of ``refuse_ner`` records are refusals."""

    def __init__(self, clock, fail_first=(), fail_always=(), refuse_ner=()):
        super().__init__(lexicon={"fever", "cough"})
        self.clock = clock
        self.fail_first, self.fail_always = set(fail_first), set(fail_always)
        self.refuse_ner = set(refuse_ner)
        self.calls = []   # (sent at, failed at or None, (record, stage))

    def complete(self, prompt):
        pair = (int(re.search(r"record (\d+)", prompt).group(1)), _stage_of(prompt))
        sent = self.clock.now
        self.clock.started.add(pair)
        self.clock.now += LATENCY
        first = all(call[2] != pair for call in self.calls)
        fails = pair in self.fail_always or (first and pair in self.fail_first)
        self.calls.append((sent, self.clock.now if fails else None, pair))
        if fails:
            raise TransientBackendError("HTTP 503")
        if pair[1] == "ner" and pair[0] in self.refuse_ner:
            return "I cannot help with that."
        return super().complete(prompt)


def _records(n):
    return [make_record(rid=f"r{i}", text=f"record {i} has fever. then a cough. more.")
            for i in range(n)]


def _run(tmp_path, name, n, **failures):
    clock = FakeClock()
    backend = ClockedBackend(clock, **failures)
    gw = Gateway(backend, retry=POLICY, clock=clock, sleep=clock.sleep)
    run_bundle(_records(n), gw, BundleStore(tmp_path / name))
    files = {f: (tmp_path / name / f).read_bytes() for f in ("bundles.jsonl", "failures.jsonl")}
    return backend, clock, files


def _ledger(files):
    return [json.loads(line) for line in files["failures.jsonl"].splitlines()]


def _order(backend):
    return [pair for _, _, pair in backend.calls]


class TestDeferredRetries:
    def test_later_records_are_served_before_a_parked_retry_is_due(self, tmp_path):
        backend, clock, _ = _run(tmp_path, "b", 4, fail_first={(0, "refine")})
        order = _order(backend)
        retry = order.index((0, "refine"), 1)
        # the retry is due 0.5 s after the failure ends: four calls of 0.125 s
        assert order[1:retry] == [(0, "summarize"), (0, "ner"), (1, "refine"), (1, "summarize")]
        assert clock.sleeps == []

    def test_no_retry_is_sent_before_its_failure_time_plus_its_delay(self, tmp_path):
        backend, _, _ = _run(tmp_path, "b", 3,
                             fail_first={(0, "refine"), (1, "ner"), (2, "summarize")},
                             fail_always={(1, "refine")})
        retried = 0
        for k, (_, failed_at, pair) in enumerate(backend.calls):
            if failed_at is None:
                continue
            attempt = sum(1 for call in backend.calls[:k + 1] if call[2] == pair)
            later = [call for call in backend.calls[k + 1:] if call[2] == pair]
            if later:
                retried += 1
                assert later[0][0] >= failed_at + POLICY.delay(attempt)
        assert retried == 5   # one each for three fail_first pairs, two for fail_always

    def test_the_stage_sleeps_only_when_no_task_is_ready(self, tmp_path):
        backend, clock, _ = _run(tmp_path, "b", 2,
                                 fail_first={(1, "refine"), (1, "summarize"), (1, "ner")})
        assert clock.sleeps, "every task of the last record was parked at once"
        every_pair = {(i, stage) for i in range(2) for stage in preprocess.STAGES}
        for _, seconds, started in clock.sleeps:
            assert started == every_pair   # no fresh task was waiting
            assert seconds > 0             # and no parked one was due
        # r1's refine failed at 0.5 and is due at 1.0; the last fresh call ended
        # at 0.75, and its summarize and ner are due as each retry before them ends
        assert [entry[:2] for entry in clock.sleeps] == [(0.75, 0.25)]

    def test_each_prompt_gets_at_most_one_plus_max_retries_attempts(self, tmp_path):
        backend, _, files = _run(tmp_path, "b", 3, fail_first={(0, "ner"), (2, "refine")},
                                 fail_always={(1, "summarize")})
        attempts = {}
        for pair in _order(backend):
            attempts[pair] = attempts.get(pair, 0) + 1
        assert attempts.pop((1, "summarize")) == 1 + POLICY.max_retries
        assert attempts.pop((0, "ner")) == attempts.pop((2, "refine")) == 2
        assert set(attempts.values()) == {1}
        assert _ledger(files) == [{"record_id": "r1", "stage": "summarize",
                                   "error": "RetriesExhausted"}]

    def test_deferred_runs_write_the_bytes_of_a_run_without_failures(self, tmp_path):
        _, _, clean = _run(tmp_path, "clean", 4, refuse_ner={1, 3})
        backend, clock, deferred = _run(
            tmp_path, "deferred", 4, refuse_ner={1, 3},
            fail_first={(0, "refine"), (1, "ner"), (2, "summarize"), (3, "refine"),
                        (3, "summarize"), (3, "ner")})
        assert _order(backend) != sorted(_order(backend), key=lambda p: p[0])
        assert clock.sleeps
        assert deferred == clean
        assert clean["failures.jsonl"].count(b"\n") == 2

    def test_fatal_failures_are_ledgered_in_record_order(self, tmp_path):
        # r2's refusal is ledgered at once, r0's and r4's failures only after
        # their retries: the ledger still lists them by record
        _, _, files = _run(tmp_path, "b", 5, refuse_ner={2},
                           fail_always={(0, "summarize"), (4, "refine")})
        assert [(e["record_id"], e["stage"]) for e in _ledger(files)] == \
            [("r0", "summarize"), ("r2", "ner"), ("r4", "refine")]


class TestLayerLookup:
    def test_run_bundle_calls_the_layers_bound_at_call_time(self, tmp_path, monkeypatch):
        called = []
        for name in ("refine", "summarize", "extract_entities"):
            def traced(record, _layer=getattr(preprocess, name), _name=name):
                called.append((record.id, _name))
                return _layer(record)
            monkeypatch.setattr(preprocess, name, traced)
        run_bundle(_records(2), Gateway(MockBackend()), BundleStore(tmp_path / "b"))
        assert called == [(f"r{i}", name) for i in range(2)
                          for name in ("refine", "summarize", "extract_entities")]


@pytest.mark.parametrize("max_retries", [0, 1])
def test_a_no_op_sleep_does_not_spin(tmp_path, max_retries):
    """With the real clock and a sleep that returns at once, a parked task
    runs when nothing else is ready instead of being polled for."""
    clock = FakeClock()
    backend = ClockedBackend(clock, fail_always={(0, "refine")})
    gw = Gateway(backend, retry=RetryPolicy(max_retries=max_retries, base_delay=3600.0),
                 sleep=lambda seconds: None)
    run_bundle(_records(1), gw, BundleStore(tmp_path / "b"))
    assert _order(backend).count((0, "refine")) == 1 + max_retries


class GarbledThenBusy(MockBackend):
    """The mock, except that record 0's first NER answer cannot be parsed and
    the first attempt of its reprompt gets a 503."""

    def __init__(self):
        super().__init__(lexicon={"fever", "cough"})
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        if _stage_of(prompt) == "ner" and "record 0" in prompt:
            if FORMAT_REMINDER not in prompt:
                return "answer: unclear"
            if self.prompts.count(prompt) == 1:
                raise TransientBackendError("HTTP 503")
        return super().complete(prompt)


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_a_restarted_layer_does_not_ask_its_earlier_prompts_again(tmp_path, cached):
    counts = []
    for scheduled in (False, True):
        clock = FakeClock()
        gw = Gateway(GarbledThenBusy(), retry=POLICY, clock=clock, sleep=clock.sleep,
                     cache=ResponseCache(tmp_path / f"cache{scheduled}") if cached else None)
        if scheduled:
            run_bundle(_records(2), gw, BundleStore(tmp_path / "b"))
        else:
            for record in _records(2):
                for layer in (refine, summarize, extract_entities):
                    drive(layer(record), gw)
        counts.append((gw.backend_calls, gw.cache_hits))
    # r0: refine, summarize, the garbled NER answer, the reprompt's 503 and
    # its retry; r1: three prompts
    assert counts == [(8, 0), (8, 0)]


# -- live requests in flight ------------------------------------------------------

class ReverseOrderLLM:
    """A chat/completions server on localhost and one asyncio thread.  It holds
    each request until none has come for ``QUIET`` seconds, then answers the
    held ones newest first.  The first attempt of each prompt of a record that
    says "flaky" gets a 503; the NER answers of a "garbled" record cannot be
    parsed.  ``most_open`` is the most connections it ever had open at once.
    Leaving it waits for every connection's handler to finish: what it still
    holds is answered once no request has come for ``QUIET`` seconds, to a
    client that may have gone."""

    QUIET = 0.02

    def __init__(self):
        self.prompts, self.answered, self.held = [], [], []
        self.open = self.most_open = 0
        self.timer = None

    def __enter__(self):
        self.loop = asyncio.new_event_loop()
        self.server = self.loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        port = self.server.sockets[0].getsockname()[1]
        self.url = f"http://127.0.0.1:{port}/v1/chat/completions"
        return self

    def __exit__(self, *exc):
        async def close():
            self.server.close()
            await self.server.wait_closed()
            await asyncio.gather(*asyncio.all_tasks() - {asyncio.current_task()},
                                 return_exceptions=True)

        asyncio.run_coroutine_threadsafe(close(), self.loop).result(timeout=5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()
        self.loop.close()

    def _answer(self, prompt, first):
        text = prompt.split("Complaint:\n", 1)[1].split("\n", 1)[0]
        if "flaky" in text and first:
            return 503, ""
        if "entities" in prompt:
            return 200, "answer: unclear" if "garbled" in text else f"symptom: {text.split()[1]}"
        if "Summarize" in prompt:
            return 200, text[:len(text) // 2]
        return 200, f"Medical complaint: {text}"

    def _release(self):
        held, self.held = self.held, []
        for n, release in enumerate(reversed(held)):
            self.loop.call_later(0.002 * n, release.set_result, None)

    async def _handle(self, reader, writer):
        self.open += 1
        self.most_open = max(self.most_open, self.open)
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
            prompt = json.loads(await reader.readexactly(length))["messages"][0]["content"]
            first = prompt not in self.prompts
            self.prompts.append(prompt)
            release = self.loop.create_future()
            self.held.append(release)
            if self.timer is not None:
                self.timer.cancel()
            self.timer = self.loop.call_later(self.QUIET, self._release)
            await release
            status, content = self._answer(prompt, first)
            body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            self.answered.append(prompt)
            self.open -= 1   # before the client can see the answer and connect again
            writer.write(b"HTTP/1.1 %d -\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                         % (status, len(body), body))
            await writer.drain()
        finally:
            writer.close()
            await writer.wait_closed()


def _live_records():
    kinds = ["", "flaky", "", "garbled", "", "", "flaky", "", "", "garbled"]
    return [make_record(rid=f"r{i}", text=f"record{i} fever {kind} since monday. then a cough.")
            for i, kind in enumerate(kinds)]


def _live_run(tmp_path, name, serial=False):
    with ReverseOrderLLM() as server:
        backend = OpenAIChatBackend("openai", server.url, timeout=5.0)
        if serial:   # the same protocol without ``send``: every call blocks
            backend = SimpleNamespace(backend_id=backend.backend_id, scope=backend.scope,
                                      complete=backend.complete)
        gw = Gateway(backend, cache=ResponseCache(tmp_path / name / "cache"),
                     retry=RetryPolicy(max_retries=2, base_delay=0.01))
        run_bundle(_live_records(), gw, BundleStore(tmp_path / name))
    files = {f: (tmp_path / name / f).read_bytes() for f in ("bundles.jsonl", "failures.jsonl")}
    return gw, server, files


class TestInFlight:
    def test_replies_in_reverse_order_give_a_serial_runs_bytes_and_counts(self, tmp_path):
        serial_gw, serial_server, serial = _live_run(tmp_path, "serial", serial=True)
        gw, server, overlapped = _live_run(tmp_path, "overlapped")
        assert server.answered != server.prompts   # the replies did come out of order
        assert overlapped == serial
        assert [json.loads(line)["record_id"] for line in serial["failures.jsonl"].splitlines()] \
            == ["r3", "r9"]
        assert (gw.backend_calls, gw.cache_hits) == (serial_gw.backend_calls,
                                                     serial_gw.cache_hits) == (38, 0)
        # 30 prompts, a reprompt for each garbled record, a retry for each
        # prompt of a flaky one
        assert len(server.prompts) == len(serial_server.prompts) == 38
        assert serial_server.most_open == 1

    def test_at_most_four_requests_are_in_flight(self, tmp_path):
        _, server, _ = _live_run(tmp_path, "b")
        assert 1 < server.most_open <= preprocess._IN_FLIGHT == 4

    def test_each_layer_is_created_once_per_task(self, tmp_path, monkeypatch):
        # a task parked for a retry or a reply resumes its layer where it
        # stopped, a garbled record's NER reprompt included
        created = []
        for name in ("refine", "summarize", "extract_entities"):
            def counted(*args, _layer=getattr(preprocess, name), _name=name):
                created.append((args[0].id, _name))
                return _layer(*args)
            monkeypatch.setattr(preprocess, name, counted)
        _, server, _ = _live_run(tmp_path, "b")
        assert len(server.prompts) == 38 and server.most_open > 1
        assert sorted(created) == sorted({(r.id, name) for r in _live_records()
                                          for name in ("refine", "summarize",
                                                       "extract_entities")})

    def test_an_error_that_stops_the_run_closes_every_open_exchange(self, tmp_path,
                                                                    monkeypatch):
        puts, put = [], ResponseCache.put

        def full_disk_on_the_third_put(cache, *args):
            puts.append(args)
            if len(puts) == 3:
                raise OSError(28, "No space left on device")
            return put(cache, *args)

        monkeypatch.setattr(ResponseCache, "put", full_disk_on_the_third_put)
        with ReverseOrderLLM() as server:
            gw = Gateway(OpenAIChatBackend("openai", server.url, timeout=5.0),
                         cache=ResponseCache(tmp_path / "cache"),
                         retry=RetryPolicy(base_delay=0.01))
            with pytest.raises(OSError, match="No space left on device"):
                run_bundle(_live_records(), gw, BundleStore(tmp_path / "b"))
        assert len(puts) == 3 and gw._in_flight   # other exchanges were still out
        assert all(flight.conn.sock is None for flight in gw._in_flight.values())

    def test_no_thread_is_started(self, tmp_path, monkeypatch):
        counts, ask = [], preprocess._ask

        def counting_ask(gw, prompt):
            counts.append(threading.active_count())
            return ask(gw, prompt)

        monkeypatch.setattr(preprocess, "_ask", counting_ask)
        with ReverseOrderLLM() as server:
            before = threading.active_count()
            gw = Gateway(OpenAIChatBackend("openai", server.url, timeout=5.0),
                         retry=RetryPolicy(base_delay=0.01))
            run_bundle(_live_records()[:4], gw, BundleStore(tmp_path / "b"))
        assert len(counts) > 12 and set(counts) == {before}


# -- differential oracle: the scheduler against the serial driver ----------------

ORACLE_TEXTS = ("record 0 has fever. then a cough.", "record 1 has a cough. more.",
                "record 2 is fine.")
OUTCOMES = ("ok", "503", "503 retry-after", "429", "empty", "refusal", "garbled")
RETRY_AFTER = {"503": None, "503 retry-after": 3.0, "429": 1.0}   # the transient outcomes
# a prompt by (text, stage, whether it is the NER reprompt)
SLOTS = [(t, stage, False) for t in range(len(ORACLE_TEXTS)) for stage in preprocess.STAGES] \
    + [(t, "ner", True) for t in range(len(ORACLE_TEXTS))]


def _slot_prompt(slot):
    text, stage, reprompt = slot
    prompt = preprocess.render(stage, ORACLE_TEXTS[text])
    return f"{prompt}\n{FORMAT_REMINDER}" if reprompt else prompt


class ScriptedBackend(MockBackend):
    """The mock on a fake clock, without ``send``: each call takes ``LATENCY``
    seconds, and the n-th call of a prompt plays the n-th outcome of its
    slot's script, then the mock's answer once the script has run out."""

    def __init__(self, clock, scripts):
        super().__init__(lexicon={"fever", "cough"})
        self.clock, self.calls = clock, []
        self.scripts = {_slot_prompt(slot): script for slot, script in scripts.items()}

    def complete(self, prompt):
        self.clock.now += LATENCY
        script = self.scripts.get(prompt, [])
        played = self.calls.count(prompt)
        self.calls.append(prompt)
        outcome = script[played] if played < len(script) else "ok"
        if outcome in RETRY_AFTER:
            raise TransientBackendError(f"HTTP {outcome[:3]}", RETRY_AFTER[outcome])
        return {"empty": "", "refusal": "I cannot help with that.",
                "garbled": "answer: unclear"}.get(outcome) or super().complete(prompt)


def _serial_bundle(records, gw, store, sleep):
    """``run_bundle``'s files, each layer of each record driven to its end in turn."""
    bundles, failed = [], []
    for record in records:
        source = replace(record, text=scrub_pii(record.text))
        outputs = []
        for stage, layer in zip(preprocess.STAGES, (refine, summarize, extract_entities)):
            try:
                outputs.append(drive(layer(source), gw, sleep))
            except MedcascadeError as e:
                outputs.append([] if stage == "ner" else "")
                failed.append(preprocess.LedgerEntry(record.id, stage, e.category))
        bundles.append(preprocess.PreprocessBundle(record.id, *outputs,
                                                   preprocess.template_hashes(),
                                                   text_digest(source.text)))
    store.save(bundles)
    write_jsonl(os.path.join(store.directory, "failures.jsonl"), map(asdict, failed))


def _both_runs(texts, scripts, max_retries, cached):
    """(bundle and ledger bytes, backend calls, cache hits, calls per prompt,
    prompts that ran out of retries) of ``run_bundle``, then of the serial
    driver, on the same script and cache."""
    records = [make_record(rid=f"r{i}", text=ORACLE_TEXTS[t]) for i, t in enumerate(texts)]
    seen = []
    with tempfile.TemporaryDirectory() as tmp:
        for serial in (False, True):
            clock = FakeClock()
            backend = ScriptedBackend(clock, scripts)
            cache = ResponseCache(os.path.join(tmp, f"cache{serial}"))
            for slot in sorted(cached):
                prompt = _slot_prompt(slot)
                cache.put(cache_key(prompt, backend), MockBackend.complete(backend, prompt),
                          prompt, backend.backend_id)
            gw = Gateway(backend, cache=cache, clock=clock, sleep=clock.sleep,
                         retry=RetryPolicy(max_retries=max_retries, base_delay=0.5))
            store = BundleStore(os.path.join(tmp, f"bundles{serial}"))
            if serial:
                _serial_bundle(records, gw, store, clock.sleep)
            else:
                run_bundle(records, gw, store)
            files = [(Path(store.directory) / name).read_bytes()
                     for name in ("bundles.jsonl", "failures.jsonl")]
            seen.append((files, gw.backend_calls, gw.cache_hits, Counter(backend.calls),
                         gw.retries_exhausted))
    return seen


@settings(max_examples=300, deadline=None, derandomize=True)
@given(texts=st.lists(st.sampled_from(range(len(ORACLE_TEXTS))), min_size=1, max_size=4),
       scripts=st.fixed_dictionaries({slot: st.lists(st.sampled_from(OUTCOMES), max_size=3)
                                      for slot in SLOTS}),
       max_retries=st.integers(0, 3), cached=st.sets(st.sampled_from(SLOTS)))
def test_the_scheduler_writes_what_the_serial_driver_writes(texts, scripts, max_retries,
                                                            cached):
    scheduled, serial = _both_runs(texts, scripts, max_retries, cached)
    assert scheduled == serial


def test_a_prompt_in_back_off_is_asked_by_one_task_at_a_time():
    # r1 has r0's text, so its refine prompt too.  It waits while r0 waits out
    # that prompt's back-off, instead of spending r0's one retry; r0's retries
    # run out, and r1's own first attempt gets the answer, as in a serial run
    scheduled, serial = _both_runs([0, 0], {(0, "refine", False): ["503", "503"]},
                                   max_retries=1, cached=set())
    assert scheduled == serial
    assert [json.loads(line)["record_id"] for line in scheduled[0][1].splitlines()] == ["r0"]
    assert scheduled[1:3] == (5, 2)
