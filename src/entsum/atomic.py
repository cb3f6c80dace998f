"""Atomic file replacement for every file the package writes.

Checkpoints, reports and vector files are written to a temporary file in the
target's directory and moved over the target with one ``os.replace``, so a
reader sees either the previous file or the complete new one, never a
half-written one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` when the block
    exits cleanly; on an exception the temporary file is removed and
    ``path`` is left as it was.  Binary content goes through ``fh.buffer``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = tmp.open("w", encoding="utf-8", newline="\n")  # on failure there is nothing to remove
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
