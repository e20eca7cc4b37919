import re
from pathlib import Path

import pytest

from medcascade import atomic
from medcascade.atomic import write_atomic


class TestWriteAtomic:
    def test_text_and_bytes_round_trip(self, tmp_path):
        write_atomic(tmp_path / "a" / "b.txt", "سطر\n")
        write_atomic(tmp_path / "c.bin", b"\x00\xff")
        assert (tmp_path / "a" / "b.txt").read_bytes() == "سطر\n".encode("utf-8")
        assert (tmp_path / "c.bin").read_bytes() == b"\x00\xff"

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


def test_one_file_under_src_renames_into_place():
    """A second temp+rename writer must not creep back: all writes go
    through ``medcascade.atomic.write_atomic``."""
    src = Path(__file__).resolve().parents[1] / "src" / "medcascade"
    users = sorted(p.name for p in src.rglob("*.py")
                   if re.search(r"\bos\.replace\b", p.read_text(encoding="utf-8")))
    assert users == ["atomic.py"]
