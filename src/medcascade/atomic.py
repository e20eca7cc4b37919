"""The package's one file writer: temp file + rename, so readers never see a
partial file and a failed write leaves the previous version in place."""

from __future__ import annotations

import os
import threading


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (UTF-8 if text) to ``path``, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
