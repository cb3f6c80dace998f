"""The layout of scorer checkpoints and vector stores: one line of compact
sorted-key JSON holding ``format``, ``version`` and the kind's own fields,
then raw little-endian float64 values."""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import numpy as np

from .atomic import atomic_writer
from .dataset import decode_text
from .errors import DataError


# a kind of framed file: its marker, its version and its errors' nouns
Framing = namedtuple("Framing", "marker version name kind unit sized_by")


def write_framed(path: str | Path, framing: Framing, fields: dict, rows) -> None:
    """Replace ``path`` with the header of ``fields``, then each array of
    ``rows`` as it comes, written from its own memory when it is already
    contiguous little-endian float64; an exception raised by ``rows`` leaves
    ``path`` as it was."""
    header = {**fields, "format": framing.marker, "version": framing.version}
    with atomic_writer(path) as fh:
        fh.buffer.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for row in rows:
            fh.buffer.write(np.ascontiguousarray(row, dtype="<f8"))


def read_framed(path: str | Path, data: bytes, framing: Framing, parse):
    """``parse(header)``'s fields, and the values of ``data``, the content of
    ``path``, as a read-only view.  Checked in order, each failure a
    ``DataError`` naming the file: the header's strict UTF-8 JSON, marker and
    version, ``parse``, which returns the fields and the number of values
    they imply, that byte count before any array is allocated, and that
    every value is finite."""
    cut = data.find(b"\n")
    if cut < 0:
        raise DataError(f"{path}: no header line")
    try:
        doc = json.loads(decode_text(data[:cut], path))
    except (ValueError, RecursionError) as exc:  # also a too-long integer, deep nesting
        raise DataError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != framing.marker:
        raise DataError(f"{path}: not a {framing.name}")
    version = doc.get("version")
    if type(version) is not int or version != framing.version:
        raise DataError(f"{path}: {framing.kind} version {version!r}, supported {framing.version}")
    fields, count = parse(doc)
    size = len(data) - cut - 1
    if size != 8 * count:
        raise DataError(f"{path}: {size} {framing.unit} bytes, the {framing.sized_by} "
                        f"needs {8 * count}")
    values = np.frombuffer(data, dtype="<f8", offset=cut + 1)
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite {framing.unit}")
    return fields, values
