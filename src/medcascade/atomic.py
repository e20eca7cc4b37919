"""The package's file writers and its one JSON form.

``write_atomic`` replaces a whole file: temp file + rename, so readers never
see a partial file and a failed write leaves the previous version in place.
It also takes a function that writes into the open temp file, so an
``np.savez`` archive is never built in memory first.  The temp file is a
plain binary file open for writing only, so ``np.save`` writes an array into
it with one ``tofile``.

Every JSON artifact takes one form, so its bytes depend on its value alone:
keys sorted and non-ASCII kept.  ``write_json`` indents one value by two
spaces and ends it with a newline; ``write_jsonl`` and ``append_jsonl`` write
one ``json_line`` per entry.  ``read_json`` reports a file it cannot open,
decode or unpack, and ``read_jsonl`` one it cannot open, as
``CorruptArtifact`` naming the file; ``check_types`` holds the values of a
JSON object to the types of a dataclass's defaults.

``file_digest``, the package's one file hash, streams a file's bytes through
sha256, so a large file is never held whole; ``text_digest`` is its one hash
of in-memory content, the sha256 of a string's UTF-8 bytes.

``append_jsonl`` adds one entry to the package's one append-only log, the
response cache: one line of JSON written with a single ``os.write`` on an
``O_APPEND`` descriptor.  If the log does not end in a newline (a tail torn
by a crash), the write starts with one, so the torn line stays a line of its
own.  ``read_jsonl`` reads that log and the whole-file JSONL artifacts (the
bundle log, the failure ledger) alike: it skips blank lines and lines that
are not JSON objects, and never modifies the file; callers skip entries that
lack their required fields, and a later entry for the same key wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import BinaryIO, Callable

from .errors import CorruptArtifact


def write_atomic(path, data: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Write ``data`` (UTF-8 if text, or what a function writes into the
    temp file) to ``path``, creating its directory.  A path of the wrong kind
    (a file in place of its directory, a directory at ``path``) raises
    ``CorruptArtifact``."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, (FileExistsError, IsADirectoryError, NotADirectoryError)):
            raise CorruptArtifact.at(path, e, "unwritable") from e
        raise


def file_digest(path) -> str | None:
    """The sha256 hex digest of the bytes of ``path``; None for a file that
    is missing or cannot be read."""
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError:
        return None


def text_digest(text: str) -> str:
    """The sha256 hex digest of the UTF-8 bytes of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_line(entry) -> str:
    """``entry`` as one line of JSON, newline included."""
    return json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n"


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as a JSON file, atomically."""
    write_atomic(path, json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


def write_jsonl(path, entries) -> None:
    """Write one ``json_line`` per entry to ``path``, atomically."""
    write_atomic(path, "".join(json_line(entry) for entry in entries))


def read_json(path, build=lambda data: data):
    """``build`` of the JSON value in ``path``; a file that cannot be opened
    (missing, a directory), is not UTF-8 JSON or that ``build`` cannot unpack
    raises ``CorruptArtifact``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (OSError, *CorruptArtifact.DECODE_ERRORS) as e:
        raise CorruptArtifact.at(path, e) from e


def check_types(cls, data: dict) -> None:
    """Each value of ``data`` must have the type of ``cls``'s default for its
    key, where that is int (not bool), float (int accepted), str, or a tuple
    (a list, as JSON has no tuple, or a tuple); else ``TypeError`` naming the
    key."""
    for key, value in data.items():
        expected = type(cls.__dataclass_fields__[key].default)
        if expected is tuple:
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"{key} must be a list, got {value!r}")
            continue
        accepted = (int, float) if expected is float else (expected,)
        if expected in (int, float, str) and (
                isinstance(value, bool) or not isinstance(value, accepted)):
            raise TypeError(f"{key} must be {expected.__name__}, got {value!r}")


def append_jsonl(path, entry: dict) -> None:
    """Append ``entry`` as one JSON line to ``path``, creating its directory."""
    line = json_line(entry).encode("utf-8")
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        os.write(fd, line)
    finally:
        os.close(fd)


def read_jsonl(path) -> list[dict]:
    """The JSON-object lines of ``path`` in file order; none if it is absent."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return []
    except OSError as e:
        raise CorruptArtifact.at(path, e) from e
    entries = []
    for line in raw.split(b"\n"):
        try:
            entry = json.loads(line.decode("utf-8"))
        except ValueError:  # blank, torn, not UTF-8 or not JSON
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries
