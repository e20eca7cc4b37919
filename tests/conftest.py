import contextlib
import json
import select
import struct
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from medcascade.corpus import ComplaintRecord, CorpusManifest, LabelSet
from medcascade.errors import MedcascadeError
from medcascade.gateway import Gateway, InFlight, MockBackend, ResponseCache, RetryLater


VOCAB = {"type": ["chronic", "acute"], "severity": ["mild", "severe"],
         "diagnosis": ["diabetes", "influenza"]}


def make_record(rid="r1", text="عندي صداع شديد من 3 ايام.", ctype="chronic",
                severity="severe", age=40, gender="female"):
    return ComplaintRecord(id=rid, text=text, age=age, gender=gender,
                           labels=LabelSet(condition_type=ctype, severity=severity))


def ask(prompt):
    """A one-prompt layer: yields ``prompt`` and returns its answer."""
    return (yield prompt)


def drive(layer, gw, sleep=lambda seconds: None):
    """Run the layer generator ``layer`` against ``gw`` to its result, blocking:
    the serial reference for ``run_bundle``.  A ``RetryLater`` is waited out with
    ``sleep(delay)``, an ``InFlight`` in ``select`` on its socket until its
    deadline, and a typed error is thrown in at the layer's ``yield``."""
    prompt = next(layer)
    while True:
        try:
            try:
                answer = gw.complete(prompt)
            except RetryLater as later:
                sleep(later.delay)
            except InFlight as flight:
                select.select([flight.sock], [], [], max(flight.deadline - time.monotonic(), 0.0))
                flight.ready = True
            except MedcascadeError as e:
                prompt = layer.throw(e)
            else:
                prompt = layer.send(answer)
        except StopIteration as stop:
            return stop.value


class StubServer(ThreadingHTTPServer):
    """A stub LLM server on a free localhost port.  A client may close its
    connection before the answer is written (``preprocess`` closes every open
    exchange when it stops), so a handler may meet a ``ConnectionError``;
    that one is not printed into the test's stderr."""

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@contextlib.contextmanager
def serving(handler):
    """Serve ``handler`` from a ``StubServer`` on a thread; yields its port."""
    server = StubServer(handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def safetensors_bytes(header: dict, buffer: bytes, pad: int = 0) -> bytes:
    """A safetensors file as the format's spec lays it out: the header's length
    (8 bytes, little-endian), the JSON header followed by ``pad`` spaces, then
    the byte buffer."""
    head = json.dumps(header).encode() + b" " * pad
    return struct.pack("<Q", len(head)) + head + buffer


def read_safetensors(path) -> tuple[dict, bytes]:
    """The JSON header and the byte buffer of the safetensors file ``path``."""
    data = Path(path).read_bytes()
    (length,) = struct.unpack("<Q", data[:8])
    return json.loads(data[8:8 + length]), data[8 + length:]


def edit_safetensors_header(path, edit) -> None:
    """Rewrite ``path`` with ``edit(header)`` applied to its header, keeping its buffer."""
    header, buffer = read_safetensors(path)
    edit(header)
    Path(path).write_bytes(safetensors_bytes(header, buffer))


@pytest.fixture
def small_vocab():
    return dict(VOCAB)


@pytest.fixture
def mock_gateway(tmp_path):
    return Gateway(MockBackend(), cache=ResponseCache(tmp_path / "cache"))


@pytest.fixture
def corpus_files(tmp_path):
    """A 3-record jsonl corpus plus manifest sidecar on disk."""
    records = [
        {"id": "p1", "text": "عندي حمى شديد من يومين.", "age": 30, "gender": "male",
         "labels": {"diagnosis": None, "type": "acute", "severity": "severe"}},
        {"id": "p2", "text": "عندي سكري خفيف.", "age": 61, "gender": "female",
         "labels": {"diagnosis": "diabetes", "type": "chronic", "severity": "mild"}},
        {"id": "p3", "text": "حمى بسيط ورقمي 01234567890.", "age": None, "gender": None,
         "labels": {"diagnosis": None, "type": "acute", "severity": "mild"}},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                      encoding="utf-8")
    manifest = tmp_path / "corpus.manifest.json"
    manifest.write_text(json.dumps({"schema_version": 1, "vocab": VOCAB}),
                        encoding="utf-8")
    return corpus, manifest


def manifest_obj():
    return CorpusManifest(vocab=dict(VOCAB))


# one visible pass/fail line per acceptance criterion
ACCEPTANCE_PREFIX = "test_criterion"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (report.when == "call" and item.name.startswith(ACCEPTANCE_PREFIX)
            and "test_acceptance" in str(item.fspath)):
        label = item.name.removeprefix(ACCEPTANCE_PREFIX + "_")
        status = "PASS" if report.passed else "FAIL"
        capman = item.config.pluginmanager.getplugin("capturemanager")
        if capman:
            with capman.global_and_fixture_disabled():
                print(f"[acceptance] {label}: {status}")
        else:
            print(f"[acceptance] {label}: {status}")
