"""Every writer replaces its target atomically: a failed write leaves the
previous file byte-unchanged and no temporary file behind."""

import os

import numpy as np
import pytest

from entsum import atomic, embeddings, framing
from entsum.embeddings import save_vec_file
from entsum.evaluation import make_report, write_aggregate_json, write_per_entity_tsv
from entsum.model import TripleScorer, save_checkpoint

from conftest import small_config, store_of

PREVIOUS = b"previous content\n"


def _previous_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(PREVIOUS)
    return path


def test_interrupted_vec_save_keeps_previous_file(tmp_path, monkeypatch):
    # the write fails at the second word's row, after the header and the
    # first word's row have been written to the temporary file
    calls = []

    def write_framed(path, framing_, fields, rows):
        def first_row_then_fail():
            yield next(iter(rows))
            calls.append(sorted(p.name for p in tmp_path.iterdir()))
            raise OSError("write failed")
        framing.write_framed(path, framing_, fields, first_row_then_fail())

    monkeypatch.setattr(embeddings, "write_framed", write_framed)
    store = store_of({"a": np.array([1.0]), "b": np.array([2.0])}, 1)
    path = _previous_file(tmp_path, "store.vec")
    with pytest.raises(OSError, match="write failed"):
        save_vec_file(store, path)
    assert calls == [[f".store.vec.{os.getpid()}.tmp", "store.vec"]]
    assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["store.vec"]


REPORTS = [make_report({"http://x/a": 0.5}, 0, 1)]

WRITERS = {
    "checkpoint": lambda p: save_checkpoint(TripleScorer.create(small_config()), p),
    "per_entity": lambda p: write_per_entity_tsv(REPORTS, p),
    "aggregate": lambda p: write_aggregate_json("toy", 2, REPORTS, p),
    "vectors": lambda p: save_vec_file(store_of({"a": np.array([1.0])}, 1), p),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, writer):
    def fail(src, dst):
        raise OSError("replace failed")

    path = _previous_file(tmp_path, "target")
    monkeypatch.setattr(atomic.os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        WRITERS[writer](path)
    assert path.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_replaces_previous_file(tmp_path, writer):
    path = _previous_file(tmp_path, "target")
    WRITERS[writer](path)
    assert path.read_bytes() != PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
