"""Atomic file writes: readers see the old file or the new one, never a
torn one."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same
    directory and ``os.replace``.  Creates the directory; on any failure
    the temp file is removed and the exception propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
