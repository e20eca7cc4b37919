import ast
import io
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from medcascade import atomic
from medcascade.atomic import (append_jsonl, json_line, read_json, read_jsonl, write_atomic,
                               write_json, write_jsonl)
from medcascade.errors import CorruptArtifact
from medcascade.preprocess import Entity, PreprocessBundle


class TestWriteAtomic:
    def test_text_and_bytes_round_trip(self, tmp_path):
        write_atomic(tmp_path / "a" / "b.txt", "سطر\n")
        write_atomic(tmp_path / "c.bin", b"\x00\xff")
        assert (tmp_path / "a" / "b.txt").read_bytes() == "سطر\n".encode("utf-8")
        assert (tmp_path / "c.bin").read_bytes() == b"\x00\xff"

    def test_a_function_writes_into_the_temp_file(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        path = tmp_path / "a.npz"
        in_place = []
        write_atomic(path, lambda fh: np.savez(fh, **arrays) or in_place.append(path.exists()))
        assert in_place == [False]   # the file is published once the function returns
        assert path.read_bytes() == buf.getvalue()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]

    def test_failed_rename_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        path.write_text("old", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("old", encoding="utf-8")
        with pytest.raises(TypeError):
            write_atomic(path, 42)
        assert path.read_text(encoding="utf-8") == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


class TestAppendJsonl:
    def test_appends_one_line_per_entry_creating_the_directory(self, tmp_path):
        path = tmp_path / "logs" / "a.jsonl"
        append_jsonl(path, {"k": "سطر"})
        append_jsonl(path, {"k": 2})
        assert path.read_bytes() == '{"k": "سطر"}\n{"k": 2}\n'.encode("utf-8")
        assert read_jsonl(path) == [{"k": "سطر"}, {"k": 2}]

    def test_torn_tail_gets_its_own_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"k": 1}\n{"k": ')
        append_jsonl(path, {"k": 3})
        assert path.read_bytes() == b'{"k": 1}\n{"k": \n{"k": 3}\n'
        assert read_jsonl(path) == [{"k": 1}, {"k": 3}]

    def test_reader_skips_damaged_lines_and_never_writes(self, tmp_path):
        path = tmp_path / "a.jsonl"
        data = b'\n{"k": 1}\n\xff\xfe\nnull\n[1]\n{"k"\n  \n{"k": 2}'
        path.write_bytes(data)
        assert read_jsonl(path) == [{"k": 1}, {"k": 2}]
        assert path.read_bytes() == data
        assert read_jsonl(tmp_path / "absent.jsonl") == []


class TestJsonForm:
    # nested, unsorted at every level, with Arabic text
    DATA = {"b": {"z": "سطر", "a": [1, {"y": None, "x": True}]}, "a": 1.5}

    def test_a_json_file_is_sorted_indented_utf8_with_a_final_newline(self, tmp_path):
        write_json(tmp_path / "d" / "a.json", self.DATA)
        assert (tmp_path / "d" / "a.json").read_bytes() == (
            '{\n'
            '  "a": 1.5,\n'
            '  "b": {\n'
            '    "a": [\n'
            '      1,\n'
            '      {\n'
            '        "x": true,\n'
            '        "y": null\n'
            '      }\n'
            '    ],\n'
            '    "z": "سطر"\n'
            '  }\n'
            '}\n').encode("utf-8")
        assert read_json(tmp_path / "d" / "a.json") == self.DATA

    def test_a_jsonl_file_holds_one_sorted_utf8_line_per_entry(self, tmp_path):
        line = '{"a": 1.5, "b": {"a": [1, {"x": true, "y": null}], "z": "سطر"}}\n'
        assert json_line(self.DATA) == line
        write_jsonl(tmp_path / "a.jsonl", iter([self.DATA, {"k": 2}]))
        assert (tmp_path / "a.jsonl").read_bytes() == (line + '{"k": 2}\n').encode("utf-8")
        append_jsonl(tmp_path / "a.jsonl", {"k": 3})
        assert read_jsonl(tmp_path / "a.jsonl") == [self.DATA, {"k": 2}, {"k": 3}]

    @pytest.mark.parametrize("raw", [b'{"a": ', b'\xff\xfe', b'[1]', b'{"b": 1}'])
    def test_a_damaged_file_is_a_corrupt_artifact_naming_it(self, tmp_path, raw):
        path = tmp_path / "a.json"
        path.write_bytes(raw)
        with pytest.raises(CorruptArtifact, match=re.escape(str(path))):
            read_json(path, build=lambda data: data["a"])

    def test_a_record_serializes_as_its_fields(self):
        bundle = PreprocessBundle("r1", "نص", "ملخص", [Entity("صداع", "symptom"),
                                                      Entity("fever", "symptom", True)],
                                  {"refine": "h1"}, "d1")
        assert asdict(bundle) == {
            "record_id": "r1", "refined": "نص", "summarized": "ملخص",
            "entities": [{"surface": "صداع", "category": "symptom", "normalized": False},
                         {"surface": "fever", "category": "symptom", "normalized": True}],
            "prompt_hashes": {"refine": "h1"}, "source_sha256": "d1"}
        assert PreprocessBundle.from_json(asdict(bundle)) == bundle


def test_one_file_under_src_appends():
    """The append-only logs share one writer: ``append_jsonl``."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    pattern = r"\bO_APPEND\b|open\([^)]*[\"']a[b+]?[\"']"
    users = sorted(p.name for p in src.rglob("*.py")
                   if re.search(pattern, p.read_text(encoding="utf-8")))
    assert users == ["atomic.py"]


def test_one_file_under_src_renames_into_place():
    """A second temp+rename writer must not creep back: all writes go
    through ``medcascade.atomic.write_atomic``."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    users = sorted(p.name for p in src.rglob("*.py")
                   if re.search(r"\bos\.replace\b", p.read_text(encoding="utf-8")))
    assert users == ["atomic.py"]


def test_no_module_under_src_writes_json_by_hand():
    """JSON artifacts take the one form ``write_json``/``write_jsonl`` give
    them: no module but ``atomic`` passes a ``json.dumps`` result to
    ``write_atomic``."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    users = []
    for path in sorted(src.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("write_atomic"):
                args = call.args + [k.value for k in call.keywords]
                if any(isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
                       for arg in args for node in ast.walk(arg)):
                    users.append(path.name)
    assert users == ["atomic.py"]
