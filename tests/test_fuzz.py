"""Seeded mutation fuzz over whole checkpoint files and ESBM trees.

Each checkpoint case takes a saved checkpoint and truncates it inside the
header, at the newline or inside the parameter bytes, flips bytes in the
header or in the parameter bytes, or appends junk.  Then every node of the
header's config and meta is retyped in turn: replaced by each of ``true``,
``7.5``, ``"7"``, ``null``, ``[]``, ``{}`` and a 5000-digit integer, the
parameter bytes kept.  Every mutant must either load as a scorer whose
parameters are finite and as many as its config needs, and whose config is
the header's value for value and type for type, or raise a ``DataError``.
Through ``entsum summarize`` it must end in exit 0 or 2 without a traceback;
exit 3 is the one other outcome, for parameters that load finite but
overflow a score.  Through ``entsum evaluate --checkpoints``, with the
mutant of a checkpoint saved for one fold as that fold's, the same holds, and a run that fails prints
nothing on stdout and leaves no report or temporary file.

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

Each store case takes what ``filter-vectors`` writes for the toy corpus and
mutates it as a checkpoint, retypes its header's ``dim``, ``words`` and each
word, or repeats, uppercases or empties a word.  Every mutant must either
load as the store its header describes, with finite vectors, or raise a
``DataError``; a repeated, uppercase or empty word is always refused.
Through ``entsum train --max-epochs 1`` and ``entsum summarize`` it must end
in exit 0, 2 or 3 without a traceback, and a failed ``train`` writes no
checkpoint or report.

Each constructor case takes that store's words and matrix and uppercases,
empties or repeats a word, makes the matrix complex, object, float32 or
integer, gives it a wrong shape, puts NaN or an infinity in it, or keeps it
float64 in another memory layout.  Every mutant must either raise a
``DataError`` from ``EmbeddingStore`` or build a store that
``save_vec_file`` and ``load_vec_file`` give back word for word and bit for
bit; a matrix of another dtype never builds.

Each train case mutates one file of a copy of the toy corpus as a tree
case does, or, every other case, its vector file as a vector case does; a
few more keep the corpus and give ``--lr`` a hostile value.  Through
``entsum train --max-epochs 2`` every case must end in exit 0, 2 or 3
without a traceback, and a failed run writes no checkpoint or report.  A
run that succeeds writes the same bytes when run again, and ``entsum
evaluate --checkpoints`` on its checkpoints writes its two reports byte for
byte.

Each manifest case takes the toy corpus's manifest JSON and mutates it the
same ways, or puts a value of another type, size or depth in place of one of
its nodes, or drops a key or list entry.  Each TSV case mutates a per-entity TSV the same
ways.  Through ``entsum ingest --manifest`` and ``entsum evaluate --oracle
--compare`` every mutant must end in exit 0, 2 or 3 without a traceback, and
a run that fails prints nothing on stdout.
"""

import json
import math
import random
import re
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from entsum import cli
from entsum.embeddings import EmbeddingStore, load_vec_file, manifest_vocabulary, save_vec_file
from entsum.errors import DataError
from entsum.model import ModelConfig, TripleScorer, load_checkpoint, save_checkpoint

from conftest import ARIA, TOYMUSIC, build_esbm_tree, vectors_of

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


RETYPE = "retype-header"
RETYPE_VALUES = ["true", "7.5", '"7"', "null", "[]", "{}", "9" * 5000]


def retyped_mutants(data: bytes, nodes) -> list[tuple[str, bytes]]:
    """Framed file ``data`` with each of the header nodes that ``nodes``
    lists, as ``(container, key)`` pairs of the parsed header, replaced in
    turn by each of ``RETYPE_VALUES``."""
    cut = data.index(b"\n")
    out = []
    for i in range(len(nodes(json.loads(data[:cut])))):
        for value in RETYPE_VALUES:
            doc = json.loads(data[:cut])
            container, key = nodes(doc)[i]
            container[key] = SENTINEL
            header = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            out.append((RETYPE, header.replace(json.dumps(SENTINEL), value).encode() + data[cut:]))
    return out


def checkpoint_nodes(doc) -> list:
    """The config and meta of a checkpoint header and every node under them."""
    return [(doc, "config"), (doc, "meta"), *json_nodes(doc["config"], []),
            *json_nodes(doc["meta"], [])]


def checkpoint_mutants(data: bytes) -> list[tuple[str, bytes]]:
    return [mutant(data, case) for case in range(CASES)] + retyped_mutants(data, checkpoint_nodes)


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> bytes:
    # a one-unit layer, so that ``true`` in its place keeps the byte count
    # right and reaches the scorer's constructor
    config = ModelConfig(embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
                         scoring_hidden=(8, 8, 1), seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "fold0.ckpt"
    save_checkpoint(TripleScorer.create(config), path,
                    meta={"chosen_epoch": 4, "fold": 0, "k": 2})
    return path.read_bytes()


def test_mutated_checkpoints_load_or_raise_data_errors(saved, tmp_path):
    path = tmp_path / "fold0.ckpt"
    outcomes = set()
    for case, (kind, data) in enumerate(checkpoint_mutants(saved)):
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
        # nothing was coerced: ``true`` stays ``true`` and 7.5 stays 7.5
        header = json.loads(data[:data.index(b"\n")])
        assert json.dumps(asdict(model.config), sort_keys=True) == \
            json.dumps(header["config"], sort_keys=True), (case, kind)
        outcomes.add((kind, "loaded"))
    # every kind was tried, and both outcomes happen
    assert {kind for kind, _ in outcomes} == {*KINDS, RETYPE}
    assert {"loaded", "refused"} <= {outcome for _, outcome in outcomes}


def test_summarize_on_mutated_checkpoints_exits_cleanly(saved, tmp_path, capsys):
    path = tmp_path / "fold0.ckpt"
    args = ["summarize", "--manifest", str(TOYMUSIC / "manifest.json"),
            "--vectors", str(TOYMUSIC / "toy.vec"), "--k", "2",
            "--checkpoint", str(path), "--entity", ARIA]
    codes = set()
    for case, (kind, data) in enumerate(checkpoint_mutants(saved)):
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


def test_evaluate_on_mutated_checkpoints_exits_cleanly(saved, tmp_path, capsys):
    # each mutant stands in for one fold's checkpoint, the other fold's is
    # intact; both start from a checkpoint whose meta names the fold they
    # stand in for; a failed run prints nothing and writes no report or
    # temporary
    ckpts, out = tmp_path / "ckpts", tmp_path / "out"
    ckpts.mkdir()
    args = ["evaluate", "--manifest", str(TOYMUSIC / "manifest.json"),
            "--vectors", str(TOYMUSIC / "toy.vec"), "--k", "2",
            "--checkpoints", str(ckpts), "--out", str(out)]
    assert saved.count(b'"fold":0') == 1
    by_fold = [saved, saved.replace(b'"fold":0', b'"fold":1')]
    mutants = [checkpoint_mutants(data) for data in by_fold]
    outcomes = set()
    for case in range(len(mutants[0])):
        fold = case % 2
        kind, data = mutants[fold][case]
        (ckpts / f"fold{fold}.ckpt").write_bytes(data)
        (ckpts / f"fold{1 - fold}.ckpt").write_bytes(by_fold[1 - fold])
        try:
            rc = cli.main(args)
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        stdout, err = capsys.readouterr()
        assert_clean_exit(rc, err, (case, kind))
        assert sorted(p.name for p in ckpts.iterdir()) == ["fold0.ckpt", "fold1.ckpt"]
        if rc == 0:
            assert re.fullmatch(r"model mean F1 \d\.\d{4} over 2 entities\n", stdout), \
                (case, kind, stdout)
            assert sorted(p.name for p in out.iterdir()) == ["aggregate.json", "per_entity.tsv"]
            shutil.rmtree(out)
        else:
            assert stdout == "" and not out.exists(), (case, kind, rc, stdout)
        outcomes.add((kind, rc))
    assert {kind for kind, _ in outcomes} == {*KINDS, RETYPE}
    assert {0, 2} <= {rc for _, rc in outcomes}


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
LINE_KINDS = ("truncate", "flip", "insert", "delete-line", "duplicate-line", "swap-lines")
# invalid UTF-8, the Kelvin sign (which lowercases to "k"), NUL, line and
# field separators, and components that are non-finite or that only float reads
VEC_PIECES = [b"\xff", b"\xe2\x82", "\u212a".encode(), b"\x00", b"\r", b"\n", b" ", b"  ",
              b"\t", b"nan", b"1e999", b"1_0", b"-", b"."]


def line_mutant(data: bytes, case: int, pieces: list[bytes],
                kinds: tuple[str, ...] = LINE_KINDS) -> tuple[str, bytes]:
    """The kind and bytes of mutation ``case`` of text file ``data``, for a
    kind in ``LINE_KINDS``; an insertion takes bytes from ``pieces``."""
    rng = random.Random(case)
    kind = kinds[case % len(kinds)]
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
            data = data[:i] + rng.choice(pieces) + data[i:]
        return kind, data
    lines = data.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "swap-lines":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i:i + 1] = [] if kind == "delete-line" else [lines[i], lines[i]]
    return kind, b"".join(lines)


def test_filter_vectors_on_mutated_vector_files_exits_cleanly(toy_manifest, tmp_path, capsys):
    data = (TOYMUSIC / "toy.vec").read_bytes()
    vocab = manifest_vocabulary(toy_manifest)
    path, out_dir = tmp_path / "mutant.vec", tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "filtered.vec"
    outcomes = set()
    for case in range(VEC_CASES):
        kind, mutated = line_mutant(data, case, VEC_PIECES)
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
            want, got = load_vec_file(path, vocab), load_vec_file(out, vocab)
            assert got.dim == want.dim, (case, kind)
            assert {w: v.tobytes() for w, v in vectors_of(got).items()} == \
                {w: v.tobytes() for w, v in vectors_of(want).items()}, (case, kind)
        else:
            assert rc == 2 and err.startswith("error:"), (case, kind, rc, err)
            assert err.endswith("\n") and not CONTROL.search(err[:-1]), (case, kind, err)
            assert list(out_dir.iterdir()) == [], (case, kind)
        outcomes.add((kind, rc))
    # every kind was tried, and some mutants still filter while others fail
    assert {kind for kind, _ in outcomes} == set(LINE_KINDS)
    assert {rc for _, rc in outcomes} == {0, 2}


def assert_clean_exit(rc: int, err: str, case) -> None:
    """Exit 0 with nothing on stderr, or exit 2 or 3 with one error line that
    holds no control character."""
    assert "Traceback" not in err, (case, err)
    if rc == 0:
        assert err == "", (case, err)
    else:
        prefix = {2: "error:", 3: "numeric error:"}.get(rc)
        assert prefix and err.startswith(prefix), (case, rc, err)
        assert err.endswith("\n") and not CONTROL.search(err[:-1]), (case, err)


BAD_WORD = "bad-word"


def store_nodes(doc) -> list:
    """The dim and words of a store header and each word."""
    return [(doc, "dim"), (doc, "words"), *json_nodes(doc["words"], [])]


def bad_word_mutants(data: bytes) -> list[tuple[str, bytes]]:
    """Store ``data`` with its second word replaced by its first, by its own
    uppercasing and by the empty word."""
    cut = data.index(b"\n")
    words = json.loads(data[:cut])["words"]
    out = []
    for word in (words[0], words[1].upper(), ""):
        doc = json.loads(data[:cut])
        doc["words"][1] = word
        out.append((BAD_WORD, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
                    + data[cut:]))
    return out


def store_mutants(data: bytes) -> list[tuple[str, bytes]]:
    return ([mutant(data, case) for case in range(CASES)] + retyped_mutants(data, store_nodes)
            + bad_word_mutants(data))


@pytest.fixture(scope="module")
def store(toy_manifest, tmp_path_factory) -> bytes:
    """What ``filter-vectors`` writes for the toy corpus."""
    path = tmp_path_factory.mktemp("store") / "filtered.vec"
    vocab = manifest_vocabulary(toy_manifest)
    save_vec_file(load_vec_file(TOYMUSIC / "toy.vec", vocab), path)
    return path.read_bytes()


def test_mutated_stores_load_or_raise_data_errors(store, toy_manifest, tmp_path):
    # under the manifest's vocabulary, which keeps every word of the intact
    # store, and under half of it
    path = tmp_path / "store.vec"
    vocab = manifest_vocabulary(toy_manifest)
    outcomes = set()
    for case, (kind, data) in enumerate(store_mutants(store)):
        path.write_bytes(data)
        for words in (vocab, set(sorted(vocab)[::2])):
            try:
                loaded = load_vec_file(path, words)
            except DataError:
                outcomes.add((kind, "refused"))
                continue
            except Exception as exc:
                pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
            assert kind != BAD_WORD, case
            header = json.loads(data[:data.index(b"\n")])
            assert type(loaded.dim) is int and loaded.dim == header["dim"], (case, kind)
            assert list(loaded.words) == [w for w in header["words"] if w in words], (case, kind)
            matrix = loaded.matrix
            assert matrix.dtype == np.float64 and matrix.shape == (len(loaded), loaded.dim), \
                (case, kind)
            assert np.isfinite(matrix).all() and not matrix.flags.writeable, (case, kind)
            outcomes.add((kind, "loaded"))
    assert {kind for kind, _ in outcomes} == {*KINDS, RETYPE, BAD_WORD}
    assert {"loaded", "refused"} <= {outcome for _, outcome in outcomes}


CTOR_CASES = 300
CTOR_KINDS = ("uppercase-word", "empty-word", "duplicate-word", "complex", "object", "float32",
              "int", "wrong-shape", "nan", "inf", "strided")
# object components: numbers and a numeric string convert, the rest do not
OBJECT_VALUES = [1, 2.5, "2.5", True, None, "x", 10 ** 400, 1j, [1.0]]


def constructor_mutant(words: tuple, matrix: np.ndarray, case: int):
    """The kind, words and matrix of mutation ``case`` of a store's words
    and matrix, made for ``EmbeddingStore``."""
    rng = random.Random(case)
    kind = CTOR_KINDS[case % len(CTOR_KINDS)]
    words, matrix = list(words), np.array(matrix)
    i, j = rng.randrange(len(words)), rng.randrange(matrix.shape[1])
    if kind == "uppercase-word":
        words[i] = words[i].upper()
    elif kind == "empty-word":
        words[i] = ""
    elif kind == "duplicate-word":
        words[i] = words[rng.randrange(len(words))]
    elif kind == "complex":
        matrix = matrix + rng.choice([0j, 1j])
    elif kind == "object":
        matrix = matrix.astype(object)
        matrix[i, j] = rng.choice(OBJECT_VALUES)
    elif kind == "float32":
        matrix = matrix.astype(np.float32)
    elif kind == "int":
        matrix = np.round(matrix * 100).astype(rng.choice([np.int8, np.int64, np.uint16]))
    elif kind == "strided":  # float64 still, in another memory layout
        matrix = rng.choice([np.asfortranarray(matrix), matrix[:, ::-1], matrix[::-2]])
        words = words[::2] if len(matrix) < len(words) else words
    elif kind == "wrong-shape":
        matrix = rng.choice([matrix[:-1], np.vstack([matrix, matrix[:1]]), matrix[:, :0],
                             matrix[..., None], matrix.ravel(), [*matrix[:-1], matrix[-1, :-1]]])
    else:
        matrix[i, j] = rng.choice([math.nan, math.inf, -math.inf] if kind == "nan"
                                  else [math.inf, -math.inf])
    return kind, words, matrix


def test_store_constructor_mutants_refuse_or_round_trip(store, toy_manifest, tmp_path):
    # a mutant that builds saves and loads back to the same words and bits
    path = tmp_path / "store.vec"
    path.write_bytes(store)
    base = load_vec_file(path, manifest_vocabulary(toy_manifest))
    outcomes = set()
    for case in range(CTOR_CASES):
        kind, words, matrix = constructor_mutant(base.words, base.matrix, case)
        try:
            built = EmbeddingStore(words, matrix)
        except DataError:
            outcomes.add((kind, "refused"))
            continue
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        assert built.matrix.dtype == np.float64 and not built.matrix.flags.writeable, case
        save_vec_file(built, path)
        back = load_vec_file(path, set(built.words))
        assert back.dim == built.dim and back.words == tuple(sorted(built.words)), (case, kind)
        assert back.matrix.tobytes() == \
            built.matrix[[built.index[w] for w in back.words]].tobytes(), (case, kind)
        outcomes.add((kind, "built"))
    assert {kind for kind, _ in outcomes} == set(CTOR_KINDS)
    refused = {kind for kind, outcome in outcomes if outcome == "refused"}
    built = {kind for kind, outcome in outcomes if outcome == "built"}
    # a matrix of another dtype is refused whatever its values
    assert refused == set(CTOR_KINDS) - {"strided"}
    assert "strided" in built and not built & {"empty-word", "complex", "object", "float32",
                                               "int", "wrong-shape", "nan", "inf"}


REPORTS = ("aggregate.json", "per_entity.tsv")


def written(directory) -> dict:
    """The name and bytes of each file in ``directory``, none if it is absent."""
    if not directory.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_train_and_summarize_on_mutated_stores_exit_cleanly(store, tmp_path, capsys):
    # a store that trains trains again to the same bytes, and evaluating its
    # checkpoints writes the reports train wrote
    manifest = str(TOYMUSIC / "manifest.json")
    path, ckpts = tmp_path / "store.vec", tmp_path / "ckpts"
    out, again, evaluated = tmp_path / "out", tmp_path / "again", tmp_path / "evaluated"
    assert cli.main(["train", "--manifest", manifest, "--vectors", str(TOYMUSIC / "toy.vec"),
                     "--k", "2", "--max-epochs", "1", "--out", str(ckpts)]) == 0
    capsys.readouterr()
    reports = ["aggregate.json", "fold0.ckpt", "fold1.ckpt", "per_entity.tsv"]
    common = ["--manifest", manifest, "--vectors", str(path), "--k", "2"]
    train = ["train", *common, "--max-epochs", "1", "--out"]
    outcomes = set()
    for case, (kind, data) in enumerate(store_mutants(store)):
        path.write_bytes(data)
        for args in ([*train, str(out)],
                     ["summarize", *common, "--checkpoint", str(ckpts / "fold0.ckpt"),
                      "--entity", ARIA]):
            try:
                rc = cli.main(args)
                err = capsys.readouterr().err
                if args[0] == "train" and rc == 0:
                    rerun = cli.main([*train, str(again)]), capsys.readouterr().err
                    checked = cli.main(["evaluate", *common, "--checkpoints", str(out),
                                        "--out", str(evaluated)]), capsys.readouterr().err
            except Exception as exc:
                pytest.fail(f"case {case} ({kind}) {args[0]}: {type(exc).__name__}: {exc}")
            assert_clean_exit(rc, err, (case, kind, args[0]))
            if args[0] == "train":
                files_written = written(out)
                assert sorted(files_written) == (reports if rc == 0 else []), (case, kind, rc)
                if rc == 0:
                    assert rerun == (0, "") and written(again) == files_written, (case, kind)
                    assert checked == (0, ""), (case, kind, checked)
                    assert written(evaluated) == {name: files_written[name] for name in REPORTS}, \
                        (case, kind)
                for directory in (out, again, evaluated):
                    shutil.rmtree(directory, ignore_errors=True)
            outcomes.add((kind, args[0], rc))
    assert {kind for kind, _, _ in outcomes} == {*KINDS, RETYPE, BAD_WORD}
    assert {0, 2} <= {rc for _, command, rc in outcomes if command == "train"}
    assert {0, 2} <= {rc for _, command, rc in outcomes if command == "summarize"}


TRAIN_CASES = 200
# learning rates that overflow the parameters, and one so small it
# underflows every update, with the exit code each gives
HOSTILE_LR = [("1e300", 3), ("1e200", 3), ("1e-320", 0)]
TRAIN_OUTPUT = re.compile(r"fold\d+\.ckpt|per_entity\.tsv|aggregate\.json")


def test_train_on_mutated_corpora_and_hostile_rates_exits_cleanly(tmp_path, capsys):
    root = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, root)
    files = {path: path.read_bytes() for path in sorted(root.iterdir())}
    vec = root / "toy.vec"
    runs = [(case, []) for case in range(TRAIN_CASES)]
    runs += [(lr, ["--lr", lr]) for lr, _ in HOSTILE_LR]
    outcomes = set()
    for n, (case, flags) in enumerate(runs):
        if isinstance(case, int) and case % 2:
            kind, mutated = line_mutant(files[vec], case // 2, VEC_PIECES)
            changed = {vec: mutated}
        elif isinstance(case, int):
            kind, changed = tree_mutant(files, case // 2)
        else:
            kind, changed = "lr", {}
        for path, data in changed.items():
            path.write_bytes(data)
        common = ["--manifest", str(root / "manifest.json"), "--vectors", str(vec), "--k", "2"]
        train = ["train", *common, *flags, "--max-epochs", "2", "--out"]
        first, again, evaluated = (tmp_path / f"run{n}-{i}" for i in range(3))
        try:
            rc = cli.main([*train, str(first)])
            _, err = capsys.readouterr()
            if rc == 0:
                rerun = cli.main([*train, str(again)]), capsys.readouterr().err
                checked = cli.main(["evaluate", *common, "--checkpoints", str(first),
                                    "--out", str(evaluated)]), capsys.readouterr().err
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        finally:
            for path in changed:
                path.write_bytes(files[path])
        assert_clean_exit(rc, err, (case, kind))
        files_written = written(first)
        if rc == 0:
            assert set(REPORTS) < set(files_written), (case, kind, sorted(files_written))
            assert all(map(TRAIN_OUTPUT.fullmatch, files_written)), (case, kind, files_written)
            assert rerun == (0, "") and written(again) == files_written, (case, kind, rerun)
            assert checked == (0, ""), (case, kind, checked)
            assert written(evaluated) == {name: files_written[name] for name in REPORTS}, \
                (case, kind)
        else:
            assert files_written == {}, (case, kind, rc, sorted(files_written))
        if kind == "lr":
            assert rc == dict(HOSTILE_LR)[case], (case, rc, err)
        for out in (first, again, evaluated):
            shutil.rmtree(out, ignore_errors=True)
        outcomes.add((kind, rc))
    # every kind was tried, and some mutants still train while others fail
    assert {kind for kind, _ in outcomes} == {*TREE_KINDS, *LINE_KINDS, "lr"}
    assert {0, 2, 3} <= {rc for _, rc in outcomes}


MANIFEST_CASES = 640
MANIFEST_KINDS = (*LINE_KINDS, "replace-node", "drop-node")
# bytes that end or open a JSON token, invalid UTF-8, NUL, and number texts
# the decoder reads specially
JSON_PIECES = [b'"', b",", b":", b"{", b"}", b"[", b"]", b"\\", b"\xff", b"\x00", b"-", b"0",
               b"NaN", b"1e999"]
# values put in place of a node: other types, non-finite and huge numbers,
# strings that name no file or a directory, and nesting past the decoder's limit
JSON_VALUES = ["null", "true", "0", "-1", "2.5", "NaN", "-Infinity", "1e999", '""', '"x"',
               '"."', '"../toymusic/toy.vec"', '"\\u0000"', '"\\ud800"', "[]", "{}", '[""]',
               '{"1": []}', "9" * 5000, "[" * 3000 + "]" * 3000]
SENTINEL = "\x00mutated"


def json_nodes(node, out: list) -> list:
    """Every (container, key) pair under ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            json_nodes(child, out)
    return out


def manifest_mutant(data: bytes, case: int) -> tuple[str, bytes]:
    """The kind and bytes of mutation ``case`` of manifest ``data``."""
    kind = MANIFEST_KINDS[case % len(MANIFEST_KINDS)]
    if kind in LINE_KINDS:
        return line_mutant(data, case, JSON_PIECES, MANIFEST_KINDS)
    rng = random.Random(case)
    doc = json.loads(data)
    container, key = rng.choice(json_nodes(doc, []))
    if kind == "drop-node":
        del container[key]
        return kind, json.dumps(doc).encode()
    container[key] = SENTINEL
    text = json.dumps(doc).replace(json.dumps(SENTINEL), rng.choice(JSON_VALUES))
    return kind, text.encode()


def test_ingest_on_mutated_manifests_exits_cleanly(tmp_path, capsys):
    root = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, root)
    path = root / "manifest.json"
    data = path.read_bytes()
    outcomes = set()
    for case in range(MANIFEST_CASES):
        kind, mutated = manifest_mutant(data, case)
        path.write_bytes(mutated)
        try:
            rc = cli.main(["ingest", "--manifest", str(path)])
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert_clean_exit(rc, err, (case, kind))
        assert re.fullmatch(r"\d+ entities, \d+ triples, \d+ golds\nfolds: \d+\n" if rc == 0
                            else "", out), (case, kind, out)
        outcomes.add((kind, rc))
    # every kind was tried, and some mutants still load while others fail
    assert {kind for kind, _ in outcomes} == set(MANIFEST_KINDS)
    assert {0, 2} <= {rc for _, rc in outcomes}


TSV_CASES = 400
# field and line separators, including the ones only str.splitlines breaks
# at, invalid UTF-8, NUL, and F1 texts that are non-finite, out of range or
# that only float reads
TSV_PIECES = [b"\t", b"\n", b"\r", "\x85".encode(), "\u2028".encode(), b"\xff", b"\x00", b" ",
              b"nan", b"inf", b"-0", b"1e999", b"1_0", b"2", b"-"]


def test_evaluate_compare_on_mutated_tsvs_exits_cleanly(tmp_path, capsys):
    # this run's F1s, two other entities, and differences that vary
    rows = [f"0\t{ARIA}\t0.5", "1\thttp://toy.example/film/Blue_River\t0.25",
            "0\thttp://toy.example/x\t1.0", "1\thttp://toy.example/y\t0.0"]
    data = "\n".join(["fold\tentity\tf1", *rows]).encode() + b"\n"
    path = tmp_path / "other.tsv"
    args = ["evaluate", "--manifest", str(TOYMUSIC / "manifest.json"), "--oracle", "--k", "2",
            "--compare", str(path)]
    outcomes = set()
    for case in range(TSV_CASES):
        kind, mutated = line_mutant(data, case, TSV_PIECES)
        path.write_bytes(mutated)
        try:
            rc = cli.main(args)
        except Exception as exc:
            pytest.fail(f"case {case} ({kind}): {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert_clean_exit(rc, err, (case, kind))
        # the other file is read and tested before anything is printed
        assert re.fullmatch(r"oracle mean F1 0\.7500 over 2 entities\npaired \d+ shared "
                            r"entities;.*\nt=\S+, p=\S+, n=\d+\n" if rc == 0 else "", out), \
            (case, kind, out)
        outcomes.add((kind, rc))
    assert {kind for kind, _ in outcomes} == set(LINE_KINDS)
    assert {0, 2} <= {rc for _, rc in outcomes}
