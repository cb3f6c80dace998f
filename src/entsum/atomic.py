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
    # 1 MiB, as a vector store's rows are written one at a time: through the
    # default 8 KiB buffer a save took about 1.3 times as long.  On failure
    # of open there is nothing to remove
    fh = tmp.open("w", buffering=1 << 20, encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
