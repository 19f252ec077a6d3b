"""Atomic file writes: readers see the old file or the new one, never a
torn one."""

from __future__ import annotations

import os
import secrets
from typing import Tuple


def create_temp_file(directory: str, prefix: str) -> Tuple[int, str]:
    """Create a fresh ``<prefix><random>.tmp`` in ``directory``; returns
    ``(fd, path)`` open for writing.  Its mode is what ``open()`` gives a
    new file (``0o666`` less the umask), which a rename then publishes;
    ``tempfile.mkstemp`` would publish ``0o600``."""
    while True:
        path = os.path.join(directory, f"{prefix}{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        return fd, path


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same
    directory and ``os.replace``.  Creates the directory; on any failure
    the temp file is removed and the exception propagates."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = create_temp_file(directory, f".{os.path.basename(path)}.")
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
