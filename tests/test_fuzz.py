"""Seeded mutation fuzz over whole checkpoint files and ESBM trees.

Each checkpoint case takes a saved checkpoint and truncates it inside the
header, at the newline or inside the parameter bytes, flips bytes in the
header or in the parameter bytes, or appends junk.  Every mutant must either
load as a scorer whose parameters are finite and as many as its config
needs, or raise a ``DataError``.  Through ``entsum summarize`` it must end in
exit 0 or 2 without a traceback; exit 3 is the one other outcome, for
parameters that load finite but overflow a score.

Each tree case takes a small ESBM tree and truncates one of its description,
gold, ``elist.txt`` or split files, flips bytes in it, deletes or duplicates
one of its lines, or swaps its content with another file's.  Through
``entsum ingest --esbm`` every mutant must end in exit 0 or 2 without a
traceback.

Each vector case takes the toy corpus's vector file and truncates it, flips
bytes in it, inserts bytes the loader treats specially, or deletes,
duplicates or swaps its lines.  Through ``entsum filter-vectors`` every
mutant must end in exit 0 or 2 without a traceback or a temporary file, and
a written file must load to the words and bits of the mutant itself.
"""

import random
import re

import numpy as np
import pytest

from entsum import cli, embeddings
from entsum.embeddings import load_vec_file, manifest_vocabulary
from entsum.errors import DataError
from entsum.model import ModelConfig, TripleScorer, load_checkpoint, save_checkpoint

from conftest import ARIA, TOYMUSIC, build_esbm_tree

CASES = 240
# a C0 or C1 control character or DEL
CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")
KINDS = ("cut-header", "cut-newline", "cut-blob", "flip-header", "flip-blob", "append")


def mutant(data: bytes, case: int) -> tuple[str, bytes]:
    """The kind and bytes of mutation ``case`` of checkpoint ``data``."""
    rng = random.Random(case)
    cut = data.index(b"\n")
    kind = KINDS[case % len(KINDS)]
    if kind == "cut-header":
        return kind, data[:rng.randrange(cut)]
    if kind == "cut-newline":
        return kind, data[:cut + rng.randrange(-1, 3)]
    if kind == "cut-blob":
        return kind, data[:rng.randrange(cut + 2, len(data))]
    if kind == "append":
        return kind, data + rng.randbytes(rng.randrange(1, 17))
    lo, hi = (0, cut + 1) if kind == "flip-header" else (cut + 1, len(data))
    out = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        out[rng.randrange(lo, hi)] ^= rng.randrange(1, 256)
    return kind, bytes(out)


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> bytes:
    config = ModelConfig(embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
                         scoring_hidden=(8, 8, 8), seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "fold0.ckpt"
    save_checkpoint(TripleScorer.create(config), path,
                    meta={"chosen_epoch": 4, "fold": 0, "k": 2})
    return path.read_bytes()


def test_mutated_checkpoints_load_or_raise_data_errors(saved, tmp_path):
    path = tmp_path / "fold0.ckpt"
    outcomes = set()
    for case in range(CASES):
        kind, data = mutant(saved, case)
        path.write_bytes(data)
        try:
            model, _ = load_checkpoint(path)
        except DataError:
            outcomes.add((kind, "refused"))
            continue
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        assert np.isfinite(model.flat).all(), (case, kind)
        assert model.flat.size == model.config.parameter_count, (case, kind)
        outcomes.add((kind, "loaded"))
    # every kind was tried, and both outcomes happen
    assert {kind for kind, _ in outcomes} == set(KINDS)
    assert {"loaded", "refused"} <= {outcome for _, outcome in outcomes}


def test_summarize_on_mutated_checkpoints_exits_cleanly(saved, tmp_path, capsys):
    path = tmp_path / "fold0.ckpt"
    args = ["summarize", "--manifest", str(TOYMUSIC / "manifest.json"),
            "--vectors", str(TOYMUSIC / "toy.vec"), "--k", "2",
            "--checkpoint", str(path), "--entity", ARIA]
    codes = set()
    for case in range(CASES):
        kind, data = mutant(saved, case)
        path.write_bytes(data)
        try:
            rc = cli.main(args)
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (case, kind, err)
        if rc == 0:
            assert out.startswith(f"{ARIA}: top 2 of "), (case, kind, out)
        else:
            prefix = {2: "error:", 3: "numeric error:"}.get(rc)
            assert prefix and err.startswith(prefix) and out == "", (case, kind, rc, err)
            assert err.endswith("\n") and not CONTROL.search(err[:-1]), (case, kind, err)
        codes.add(rc)
    assert {0, 2} <= codes


TREE_CASES = 400
TREE_KINDS = ("truncate", "flip", "delete-line", "duplicate-line", "swap")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A ten-entity ESBM tree and the bytes of each of its files."""
    root = tmp_path_factory.mktemp("esbm")
    build_esbm_tree(root)
    return root, {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def tree_mutant(files: dict, case: int) -> tuple[str, dict]:
    """The kind of mutation ``case`` and the new bytes of the files it changes."""
    rng = random.Random(case)
    paths = list(files)
    path = rng.choice(paths)
    data = files[path]
    kind = TREE_KINDS[case % len(TREE_KINDS)]
    if kind == "truncate":
        return kind, {path: data[:rng.randrange(len(data))]}
    if kind == "flip":
        out = bytearray(data)
        for _ in range(rng.randrange(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
        return kind, {path: bytes(out)}
    if kind == "swap":
        other = rng.choice(paths)
        return kind, {path: files[other], other: data}
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i:i + 1] = [] if kind == "delete-line" else [lines[i], lines[i]]
    return kind, {path: b"".join(lines)}


def test_ingest_on_mutated_trees_exits_cleanly(tree, capsys):
    root, files = tree
    outcomes = set()
    for case in range(TREE_CASES):
        kind, changed = tree_mutant(files, case)
        for path, data in changed.items():
            path.write_bytes(data)
        try:
            rc = cli.main(["ingest", "--esbm", str(root)])
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        finally:
            for path in changed:
                path.write_bytes(files[path])
        out, err = capsys.readouterr()
        assert "Traceback" not in err, (case, kind, err)
        if rc == 0:
            assert out.endswith("folds: 5\n") and err == "", (case, kind, out, err)
        else:
            assert rc == 2 and err.startswith("error:") and out == "", (case, kind, rc, err)
            assert err.endswith("\n") and not CONTROL.search(err[:-1]), (case, kind, err)
        outcomes.add((kind, rc))
    # every kind was tried, and some mutants still load while others fail
    assert {kind for kind, _ in outcomes} == set(TREE_KINDS)
    assert {rc for _, rc in outcomes} == {0, 2}


VEC_CASES = 300
VEC_KINDS = ("truncate", "flip", "insert", "delete-line", "duplicate-line", "swap-lines")
# invalid UTF-8, the Kelvin sign (which lowercases to "k"), NUL, line and
# field separators, and components that are non-finite or that only float reads
VEC_PIECES = [b"\xff", b"\xe2\x82", "\u212a".encode(), b"\x00", b"\r", b"\n", b" ", b"  ",
              b"\t", b"nan", b"1e999", b"1_0", b"-", b"."]


def vec_mutant(data: bytes, case: int) -> tuple[str, bytes]:
    """The kind and bytes of mutation ``case`` of vector file ``data``."""
    rng = random.Random(case)
    kind = VEC_KINDS[case % len(VEC_KINDS)]
    if kind == "truncate":
        return kind, data[:rng.randrange(len(data))]
    if kind == "flip":
        out = bytearray(data)
        for _ in range(rng.randrange(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
        return kind, bytes(out)
    if kind == "insert":
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(data) + 1)
            data = data[:i] + rng.choice(VEC_PIECES) + data[i:]
        return kind, data
    lines = data.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "swap-lines":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i:i + 1] = [] if kind == "delete-line" else [lines[i], lines[i]]
    return kind, b"".join(lines)


def test_filter_vectors_on_mutated_vector_files_exits_cleanly(toy_manifest, tmp_path, capsys,
                                                              monkeypatch):
    # three words per save block, so the table carried between blocks is used
    monkeypatch.setattr(embeddings, "SAVE_BLOCK", 12)
    data = (TOYMUSIC / "toy.vec").read_bytes()
    vocab = manifest_vocabulary(toy_manifest)
    path, out_dir = tmp_path / "mutant.vec", tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "filtered.vec"
    outcomes = set()
    for case in range(VEC_CASES):
        kind, mutated = vec_mutant(data, case)
        path.write_bytes(mutated)
        out.unlink(missing_ok=True)
        try:
            rc = cli.main(["filter-vectors", "--manifest", str(TOYMUSIC / "manifest.json"),
                           "--vectors", str(path), "--out", str(out)])
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        _, err = capsys.readouterr()
        assert "Traceback" not in err, (case, kind, err)
        if rc == 0:
            assert err == "", (case, kind, err)
            assert [p.name for p in out_dir.iterdir()] == ["filtered.vec"], (case, kind)
            want, got = load_vec_file(path, vocab), load_vec_file(out)
            assert got.dim == want.dim, (case, kind)
            assert {w: v.tobytes() for w, v in got.vectors.items()} == \
                {w: v.tobytes() for w, v in want.vectors.items()}, (case, kind)
        else:
            assert rc == 2 and err.startswith("error:"), (case, kind, rc, err)
            assert err.endswith("\n") and not CONTROL.search(err[:-1]), (case, kind, err)
            assert list(out_dir.iterdir()) == [], (case, kind)
        outcomes.add((kind, rc))
    # every kind was tried, and some mutants still filter while others fail
    assert {kind for kind, _ in outcomes} == set(VEC_KINDS)
    assert {rc for _, rc in outcomes} == {0, 2}
