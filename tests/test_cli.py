"""End-to-end command-line behavior, driven in process through cli.main."""

import base64
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entsum import cli
from entsum.errors import DataError, NumericError
from entsum.evaluation import (
    format_significance,
    paired_ttest,
    read_per_entity_tsv,
)
from entsum.embeddings import load_vec_file, manifest_vocabulary
from entsum.framing import write_framed
from entsum.model import (
    CHECKPOINT,
    ModelConfig,
    TripleScorer,
    load_checkpoint,
    save_checkpoint,
)

from conftest import ARIA, BLUE, BRACE_TEXTS, TOYMUSIC, build_esbm_tree, count_forks, use_cpus

MANIFEST = str(TOYMUSIC / "manifest.json")
VEC = str(TOYMUSIC / "toy.vec")


def invoke(capsys, *args):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    rc = cli.main([
        "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--seed", "0", "--max-epochs", "3", "--out", str(out),
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def overfit_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit")
    rc = cli.main([
        "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--seed", "0", "--max-epochs", "30", "--out", str(out),
    ])
    assert rc == 0
    return out


def patched_manifest(tmp_path, mutate):
    root = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, root)
    path = root / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# ingest
# --------------------------------------------------------------------------

def test_ingest_reports_counts(capsys):
    rc, out, err = invoke(capsys, "ingest", "--manifest", MANIFEST)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "2 entities, 17 triples, 12 golds"
    assert lines[1] == "folds: 2"
    assert len(lines) == 2
    assert err == ""


def test_ingest_prints_coverage_warnings(capsys):
    rc, out, _ = invoke(capsys, "ingest", "--manifest", MANIFEST, "--vectors", VEC)
    assert rc == 0
    warnings = [l for l in out.splitlines() if l.startswith("warning: ")]
    assert len(warnings) == 2
    assert "'2005'" in warnings[0]
    assert "'english'" in warnings[1]


def test_ingest_esbm_tree(capsys, tmp_path):
    build_esbm_tree(tmp_path)
    rc, out, _ = invoke(capsys, "ingest", "--esbm", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "10 entities, 30 triples, 40 golds"
    assert lines[1] == "folds: 5"


def test_ingest_rejects_both_sources(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "ingest", "--manifest", MANIFEST, "--esbm", str(tmp_path)
    )
    assert rc == 1
    assert err.startswith("usage error:")


def test_ingest_requires_one_source(capsys):
    rc, _, err = invoke(capsys, "ingest")
    assert rc == 1
    assert "one of --manifest or --esbm" in err


def test_missing_description_file_names_path(capsys, tmp_path):
    path = patched_manifest(
        tmp_path, lambda doc: doc["entities"][0].update(desc_file="absent.nt")
    )
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert rc == 2
    assert err.startswith("error:")
    assert "absent.nt" in err


def test_control_characters_in_a_path_print_escaped(capsys, tmp_path):
    path = patched_manifest(
        tmp_path, lambda doc: doc["entities"][0].update(desc_file="a\nb.nt\x1b[2J")
    )
    rc, out, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: missing file: {path.parent}/a\\x0ab.nt\\x1b[2J\n"


@pytest.mark.parametrize("name, shown, reason", [
    ("a\x00b.nt", "a\\x00b.nt", "embedded null byte"),
    ("\ud800.nt", "\\ud800.nt", "surrogates not allowed"),
], ids=["nul", "lone-surrogate"])
def test_a_path_the_os_cannot_take_is_a_data_error(capsys, tmp_path, name, shown, reason):
    path = patched_manifest(tmp_path, lambda doc: doc["entities"][0].update(desc_file=name))
    rc, out, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {path.parent}/{shown}: cannot read (")
    assert err.endswith(f"{reason})\n") and err.count("\n") == 1 and err.isascii()


def test_control_characters_in_a_split_file_print_escaped(capsys, tmp_path):
    build_esbm_tree(tmp_path)
    train = tmp_path / "dbpedia_split" / "Fold0" / "train.txt"
    train.write_text("1\x1b[2J\n", encoding="utf-8")
    rc, out, err = invoke(capsys, "ingest", "--esbm", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err == (f"error: {train.parent}: split references unknown entity id "
                   "1\\x1b[2J\n")


@pytest.mark.parametrize("error, code, prefix", [
    (cli.UsageError, 1, "usage error"),
    (DataError, 2, "error"),
    (NumericError, 3, "numeric error"),
])
def test_every_control_character_prints_as_hex(capsys, monkeypatch, error, code, prefix):
    controls = [*range(0x20), *range(0x7F, 0xA0)]

    def fail(args):
        raise error("<" + "".join(map(chr, controls)) + "\xa0é>")

    monkeypatch.setitem(cli._COMMANDS, "ingest", fail)
    rc, out, err = invoke(capsys, "ingest")
    escaped = "".join(f"\\x{c:02x}" for c in controls)
    assert (rc, out, err) == (code, "", f"{prefix}: <{escaped}\xa0é>\n")


@pytest.mark.parametrize("which, bad_line, reason", [
    ("description", f'<{ARIA}> <http://toy.example/voc/nick> "x\\uD800" .',
     "unicode escape \\uD800 is not a character"),
    ("gold", "<broken", "bad IRI at column 1"),
    ("esbm-description", '<http://ex.org/dbpedia/e1> <http://ex.org/voc/p1> "x',
     "bad literal at column 51"),
    ("esbm-gold", "<http://ex.org/dbpedia/e1> <http://ex.org/voc/p1>",
     "statement ended early"),
])
def test_malformed_statement_names_its_file(capsys, tmp_path, which, bad_line, reason):
    toy = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, toy)
    esbm = tmp_path / "esbm"
    build_esbm_tree(esbm)
    path, source = {
        "description": (toy / "aria_desc.nt", ["--manifest", str(toy / "manifest.json")]),
        "gold": (toy / "aria_gold_top2_0.nt", ["--manifest", str(toy / "manifest.json")]),
        "esbm-description": (esbm / "dbpedia" / "1" / "1_desc.nt", ["--esbm", str(esbm)]),
        "esbm-gold": (esbm / "dbpedia" / "1" / "1_gold_top5_1.nt", ["--esbm", str(esbm)]),
    }[which]
    line_no = len(path.read_text(encoding="utf-8").splitlines()) + 1
    with path.open("a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    rc, out, err = invoke(capsys, "ingest", *source)
    assert rc == 2
    assert out == ""
    assert err == f"error: {path}: malformed statement on line {line_no}: {reason}\n"


def test_description_without_the_entity_names_its_file(capsys, tmp_path):
    toy = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, toy)
    path = toy / "aria_desc.nt"
    path.write_text('<http://toy.example/other> <http://toy.example/voc/p> "x" .\n',
                    encoding="utf-8")
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(toy / "manifest.json"))
    assert rc == 2
    assert err == f"error: {path}: no statement mentions <{ARIA}>\n"


def test_broken_fold_names_its_index(capsys, tmp_path):
    path = patched_manifest(
        tmp_path,
        lambda doc: doc["folds"][0].update(test=["http://toy.example/nobody"]),
    )
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert rc == 2
    assert "fold 0" in err


@pytest.mark.parametrize("mutate, message", [
    # train would write both folds' checkpoints to fold0.ckpt
    (lambda doc: doc["folds"][1].update(index=0), "fold 0: index used by an earlier fold"),
    # the entity would have two F1s, which evaluate and --compare cannot pair
    (lambda doc: doc["folds"].append(dict(doc["folds"][1], index=2)),
     f"fold 2: test entity also tested in fold 1: {ARIA}"),
], ids=["repeated-index", "tested-twice"])
@pytest.mark.parametrize("command", ["ingest", "train"])
def test_folds_that_mix_up_a_runs_files_are_a_data_error(capsys, tmp_path, mutate, message,
                                                         command):
    path = patched_manifest(tmp_path, mutate)
    args = [command, "--manifest", str(path)]
    if command == "train":
        args += ["--vectors", VEC, "--k", "2", "--max-epochs", "1", "--out", str(tmp_path / "o")]
    rc, stdout, err = invoke(capsys, *args)
    assert (rc, stdout, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_invalid_manifest_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json", encoding="utf-8")
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(bad))
    assert rc == 2
    assert err.startswith("error:")


def set_first_fold(key, value):
    return lambda doc: doc["folds"][0].update({key: value})


def set_aria_gold(value):
    return lambda doc: doc["entities"][0].update(gold=value)


def copy_aria_gold_2(key):
    # int() reads each key below as 2, so "02" used to merge a second list of
    # Aria's size-2 golds into the first: 15 golds where there are 12
    return lambda doc: doc["entities"][0]["gold"].update({key: doc["entities"][0]["gold"]["2"]})


@pytest.mark.parametrize("mutate, fragment", [
    (lambda doc: doc.update(entities={"iri": ARIA}), "field 'entities' must be a list"),
    (lambda doc: doc.update(entities=[1], folds=[]), "entity 0 must be an object"),
    (lambda doc: doc["entities"].append([ARIA]), "entity 2 must be an object"),
    (lambda doc: doc["entities"][1].update(iri=7), "field 'iri' must be a string"),
    (lambda doc: doc["entities"][0].update(desc_file=None), "field 'desc_file' must be a string"),
    (set_aria_gold([]), "field 'gold' must be an object"),
    (set_aria_gold({"2": {"annotator": "a0", "file": "aria_gold_top2_0.nt"}}),
     "gold k=2 must be a list"),
    (set_aria_gold({"2": ["aria_gold_top2_0.nt"]}), "every entry must be an object"),
    (set_aria_gold({"2": [{"annotator": "a0", "file": 2}]}), "field 'file' must be a string"),
    (lambda doc: doc.update(folds={"index": 0}), "field 'folds' must be a list"),
    (lambda doc: doc.update(folds=[0]), "fold 0 must be an object"),
    (set_first_fold("index", "0"), "field 'index' must be an integer"),
    (set_first_fold("index", 0.5), "field 'index' must be an integer"),
    (set_first_fold("index", True), "field 'index' must be an integer"),
    (set_first_fold("train", ARIA), "field 'train' must be a list"),
    (set_first_fold("train", [[ARIA]]), "every entry of 'train' must be a string"),
    (set_first_fold("valid", ARIA), "field 'valid' must be a list"),
    (set_first_fold("valid", [None]), "every entry of 'valid' must be a string"),
    (set_first_fold("test", 5), "field 'test' must be a list"),
    (set_first_fold("test", [{"iri": BLUE}]), "every entry of 'test' must be a string"),
    *[(copy_aria_gold_2(key), f"{ARIA}: gold key {key!r} is not a positive integer")
      for key in ["\u0662", " 2 ", "0_2", "02"]],
], ids=[
    "entities-object", "entity-int", "entity-list", "iri-int", "desc_file-null",
    "gold-list", "gold-k-object", "gold-entry-string", "gold-file-int", "folds-object",
    "fold-int", "index-string", "index-float", "index-bool", "train-string",
    "train-entry-list", "valid-string", "valid-entry-null", "test-int", "test-entry-object",
    "gold-key-arabic-indic", "gold-key-spaced", "gold-key-underscored", "gold-key-zero-led",
])
def test_manifest_of_wrong_json_shape_is_a_data_error(capsys, tmp_path, mutate, fragment):
    path = patched_manifest(tmp_path, mutate)
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert rc == 2
    assert err.startswith("error:")
    assert fragment in err, err


# --------------------------------------------------------------------------
# usage errors
# --------------------------------------------------------------------------

def test_unknown_command(capsys):
    rc, _, err = invoke(capsys, "frobnicate")
    assert rc == 1
    assert err.startswith("usage error:")


def test_unknown_flag(capsys):
    rc, _, err = invoke(capsys, "ingest", "--manifest", MANIFEST, "--frob")
    assert rc == 1
    assert err.startswith("usage error:")


def test_missing_required_flag(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "train", "--manifest", MANIFEST, "--out", str(tmp_path / "o")
    )
    assert rc == 1
    assert "--vectors" in err


def test_bad_collection_choice(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "ingest", "--esbm", str(tmp_path), "--esbm-collection", "wikidata"
    )
    assert rc == 1
    assert err.startswith("usage error:")


def required_args(command, tmp_path):
    return {
        "train": ["--vectors", VEC, "--out", str(tmp_path / "o")],
        "evaluate": ["--oracle", "--out", str(tmp_path / "o")],
        "summarize": ["--vectors", VEC, "--checkpoint", str(tmp_path / "c"), "--entity", ARIA],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--k", "0"),
    ("evaluate", "--k", "0"),
    ("summarize", "--k", "-1"),
    ("train", "--k", "two"),
    ("train", "--max-epochs", "0"),
    ("train", "--max-epochs", "-3"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "0"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--lr", "-inf"),
    ("train", "--lr", "fast"),
    ("train", "--seed", "-1"),
])
def test_bad_numeric_argument_is_a_usage_error(capsys, tmp_path, command, flag, value):
    # the manifest does not exist: a run that got as far as loading data
    # would exit 2, so exit 1 shows the value was refused before that
    missing = str(tmp_path / "absent.json")
    rc, stdout, err = invoke(
        capsys, command, "--manifest", missing, *required_args(command, tmp_path), flag, value
    )
    assert rc == 1
    assert err.startswith("usage error:") and flag in err, err
    assert "Traceback" not in err and stdout == ""
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------
# filter-vectors
# --------------------------------------------------------------------------

def test_filter_vectors_restricts_to_vocabulary(capsys, tmp_path):
    out = tmp_path / "filtered.vec"
    rc, stdout, _ = invoke(
        capsys, "filter-vectors", "--manifest", MANIFEST,
        "--vectors", VEC, "--out", str(out),
    )
    assert rc == 0
    assert stdout == f"kept 40 of 42 vocabulary words -> {out}\n"
    header, payload = out.read_bytes().split(b"\n", 1)
    store = load_vec_file(out, {*json.loads(header)["words"], "unused"})
    assert len(store) == 40
    assert store.dim == 4
    assert "unused" not in store.index
    assert json.loads(header)["words"] == sorted(store.words)
    assert len(payload) == 40 * 4 * 8


def test_filter_vectors_no_overlap_exits_2(capsys, tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    (root / "e1.nt").write_text(
        '<http://x/e1> <http://x/zzz> "qqq" .\n', encoding="utf-8"
    )
    (root / "e2.nt").write_text(
        '<http://x/e2> <http://x/zzz> "qqq" .\n', encoding="utf-8"
    )
    (root / "m.json").write_text(json.dumps({
        "name": "tiny",
        "entities": [
            {"iri": "http://x/e1", "desc_file": "e1.nt"},
            {"iri": "http://x/e2", "desc_file": "e2.nt"},
        ],
        "folds": [
            {"index": 0, "train": ["http://x/e1"], "valid": [], "test": ["http://x/e2"]},
            {"index": 1, "train": ["http://x/e2"], "valid": [], "test": ["http://x/e1"]},
        ],
    }), encoding="utf-8")
    out = tmp_path / "filtered.vec"
    rc, stdout, err = invoke(
        capsys, "filter-vectors", "--manifest", str(root / "m.json"),
        "--vectors", VEC, "--out", str(out),
    )
    # it printed "kept 0 of 2" and wrote a store of no words
    assert (rc, stdout, err) == (2, "", f"error: {VEC}: no vector for any word of the dataset\n")
    assert not out.exists()


def test_filter_vectors_empty_vocabulary(capsys, tmp_path):
    # a description whose property and value tokenize to nothing at all
    root = tmp_path / "data"
    root.mkdir()
    for name, iri in (("e1", "http://x/e1"), ("e2", "http://x/e2")):
        (root / f"{name}.nt").write_text(
            f'<{iri}> <http://x/-> "---" .\n', encoding="utf-8"
        )
    (root / "m.json").write_text(json.dumps({
        "name": "void",
        "entities": [
            {"iri": "http://x/e1", "desc_file": "e1.nt"},
            {"iri": "http://x/e2", "desc_file": "e2.nt"},
        ],
        "folds": [
            {"index": 0, "train": ["http://x/e1"], "valid": [], "test": ["http://x/e2"]},
            {"index": 1, "train": ["http://x/e2"], "valid": [], "test": ["http://x/e1"]},
        ],
    }), encoding="utf-8")
    out = tmp_path / "filtered.vec"
    rc, stdout, err = invoke(
        capsys, "filter-vectors", "--manifest", str(root / "m.json"),
        "--vectors", VEC, "--out", str(out),
    )
    # it printed "kept 0 of 0" and wrote a store of no words
    assert (rc, stdout, err) == (2, "", f"error: {VEC}: no vector for any word of the dataset\n")
    assert not out.exists()


# files whose first byte is "{" but that are no vector store, each made
# from a good store's bytes, with the start of its error after the file name
NOT_STORES = {
    **{f"text-{name}": (lambda store, data=data: data, message)
       for name, (data, message) in BRACE_TEXTS.items()},
    "store-cut-header": (lambda store: store[:store.index(b"\n") // 2], "no header line"),
    "store-format-renamed": (lambda store: store.replace(b'"format"', b'"formats"', 1),
                             "not a vector store"),
    # the payload's first newline byte then ends a "header" of binary bytes
    "store-header-without-newline": (lambda store: store.replace(b"\n", b"", 1),
                                     "not UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(NOT_STORES))
def test_a_brace_led_file_that_is_no_store_exits_2(capsys, tmp_path, case):
    store = tmp_path / "filtered.vec"
    assert invoke(capsys, "filter-vectors", "--manifest", MANIFEST, "--vectors", VEC,
                  "--out", str(store))[0] == 0
    damage, message = NOT_STORES[case]
    path = tmp_path / "vectors.vec"
    path.write_bytes(damage(store.read_bytes()))
    out = tmp_path / "out"
    out.mkdir()
    for args in (["filter-vectors", "--out", str(out / "filtered.vec")],
                 ["train", "--k", "2", "--max-epochs", "1", "--out", str(out)]):
        rc, stdout, err = invoke(capsys, *args, "--manifest", MANIFEST, "--vectors", str(path))
        assert (rc, stdout) == (2, ""), args[0]
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
        assert list(out.iterdir()) == [], args[0]


@pytest.mark.parametrize("case", ["text", "missing", "directory"])
def test_a_vector_file_that_does_not_read_names_itself(capsys, tmp_path, case):
    path = tmp_path / "bad.vec"
    if case == "text":
        path.write_text("cat 1 2\ndog 3\n", encoding="utf-8")
        message = f"{path}: unparseable line 2: expected 2 vector components, got 1"
    elif case == "missing":
        message = f"missing file: {path}"
    else:
        path.mkdir()
        message = f"{path}: cannot read (Is a directory)"
    out = tmp_path / "out"
    out.mkdir()
    for args in (["filter-vectors", "--out", str(out / "filtered.vec")],
                 ["train", "--k", "2", "--max-epochs", "1", "--out", str(out)]):
        rc, stdout, err = invoke(capsys, *args, "--manifest", MANIFEST, "--vectors", str(path))
        assert (rc, stdout, err) == (2, "", f"error: {message}\n"), args[0]
        assert list(out.iterdir()) == [], args[0]


def test_filtered_store_scores_identically(capsys, tmp_path, toy_manifest, toy_store):
    from entsum.model import ModelConfig, TripleScorer

    out = tmp_path / "filtered.vec"
    rc, _, _ = invoke(
        capsys, "filter-vectors", "--manifest", MANIFEST,
        "--vectors", VEC, "--out", str(out),
    )
    assert rc == 0
    filtered = load_vec_file(out, manifest_vocabulary(toy_manifest))
    model = TripleScorer.create(ModelConfig(
        embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
        scoring_hidden=(8, 8), seed=0,
    ))
    for desc in toy_manifest.entities:
        full = model.score_entity(desc, toy_store)
        trimmed = model.score_entity(desc, filtered)
        assert full.scores == trimmed.scores


def test_training_from_the_filtered_store_is_byte_identical(capsys, tmp_path, train_dir):
    # filter-vectors output trains to the same checkpoints and reports as the
    # text file, and filtering the store again writes the same bytes
    store, again = tmp_path / "filtered.vec", tmp_path / "again.vec"
    for vectors, out in ((VEC, store), (store, again)):
        rc, _, _ = invoke(capsys, "filter-vectors", "--manifest", MANIFEST,
                          "--vectors", str(vectors), "--out", str(out))
        assert rc == 0
    assert again.read_bytes() == store.read_bytes()
    rc, _, _ = invoke(capsys, "train", "--manifest", MANIFEST, "--vectors", str(store),
                      "--k", "2", "--seed", "0", "--max-epochs", "3", "--out", str(tmp_path / "t"))
    assert rc == 0
    names = ["aggregate.json", "fold0.ckpt", "fold1.ckpt", "per_entity.tsv"]
    assert sorted(p.name for p in (tmp_path / "t").iterdir()) == names
    for name in names:
        assert (tmp_path / "t" / name).read_bytes() == (train_dir / name).read_bytes(), name


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def test_train_writes_checkpoints_and_reports(train_dir, capsys):
    for name in ("fold0.ckpt", "fold1.ckpt", "per_entity.tsv", "aggregate.json"):
        assert (train_dir / name).is_file()
    doc = json.loads((train_dir / "aggregate.json").read_text(encoding="utf-8"))
    assert doc["dataset"] == "toymusic"
    assert doc["k"] == 2
    assert doc["entities"] == 2
    assert len(doc["folds"]) == 2
    _, meta = load_checkpoint(train_dir / "fold0.ckpt")
    assert meta["k"] == 2
    assert meta["fold"] == 0
    assert meta["chosen_epoch"] >= 1


def test_train_prints_per_fold_and_overall(capsys, tmp_path):
    out = tmp_path / "run"
    rc, stdout, _ = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--max-epochs", "2", "--out", str(out),
    )
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("fold 0: mean F1 ")
    assert lines[1].startswith("fold 1: mean F1 ")
    assert lines[2].startswith("overall mean F1 ")
    per_entity = read_per_entity_tsv(out / "per_entity.tsv")
    mean = sum(per_entity.values()) / len(per_entity)
    assert lines[2] == f"overall mean F1 {mean:.4f}"


def test_train_reruns_are_byte_identical(train_dir, capsys, tmp_path):
    again = tmp_path / "again"
    rc, _, _ = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--seed", "0", "--max-epochs", "3", "--out", str(again),
    )
    assert rc == 0
    for name in ("fold0.ckpt", "fold1.ckpt", "per_entity.tsv", "aggregate.json"):
        assert (again / name).read_bytes() == (train_dir / name).read_bytes()


def test_train_outputs_do_not_depend_on_the_cpu_count(capsys, tmp_path, monkeypatch):
    forked = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        rc, stdout, err = invoke(
            capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
            "--k", "2", "--seed", "0", "--max-epochs", "3", "--out", str(out),
        )
        assert rc == 0, err
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert len(forked) == 1  # the two-CPU run trained fold 1 in a worker
    assert sorted(runs[0][1]) == ["aggregate.json", "fold0.ckpt", "fold1.ckpt", "per_entity.tsv"]
    assert runs[0] == runs[1]


def test_train_seed_changes_checkpoints(train_dir, capsys, tmp_path):
    other = tmp_path / "other"
    rc, _, _ = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--seed", "1", "--max-epochs", "3", "--out", str(other),
    )
    assert rc == 0
    assert (other / "fold0.ckpt").read_bytes() != (train_dir / "fold0.ckpt").read_bytes()


def test_train_loss_early_stop_mode(capsys, tmp_path):
    out = tmp_path / "loss-mode"
    rc, stdout, _ = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--max-epochs", "2", "--early-stop", "loss", "--out", str(out),
    )
    assert rc == 0
    assert (out / "aggregate.json").is_file()


def test_train_without_gold_slot(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "4", "--out", str(tmp_path / "o"),
    )
    assert rc == 2
    assert err.startswith("error:")


def test_train_nonfinite_loss(capsys, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        rc, _, err = invoke(
            capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
            "--k", "2", "--lr", "1e200", "--max-epochs", "5",
            "--out", str(tmp_path / "o"),
        )
    assert rc == 3
    assert err.startswith("numeric error:")


def test_train_overflowing_adam_moment_is_a_numeric_error(capsys, tmp_path):
    # at lr 1e17 every loss stays finite but a squared gradient overflows
    rc, stdout, err = invoke(
        capsys, "train", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--lr", "1e17", "--max-epochs", "5", "--out", str(tmp_path / "o"),
    )
    assert rc == 3
    assert stdout == ""
    assert err == ("numeric error: fold 0, epoch 2: Adam's second-moment estimate is not "
                   "finite (a squared gradient overflowed)\n")


@pytest.mark.parametrize("command", ["train", "summarize"])
def test_internal_shape_mismatch_is_a_numeric_error(capsys, tmp_path, monkeypatch, train_dir,
                                                    command):
    def mismatch(*args):
        raise NumericError("cosine over shapes (3, 4) and (3, 5)")

    monkeypatch.setattr(cli, "cross_validate", mismatch)
    monkeypatch.setattr(TripleScorer, "score_entity", mismatch)
    args = {
        "train": ["train", "--out", str(tmp_path / "o")],
        "summarize": ["summarize", "--checkpoint", str(train_dir / "fold0.ckpt"),
                      "--entity", ARIA],
    }[command]
    rc, stdout, err = invoke(capsys, *args, "--manifest", MANIFEST, "--vectors", VEC, "--k", "2")
    assert rc == 3
    assert stdout == ""
    assert err == "numeric error: cosine over shapes (3, 4) and (3, 5)\n"  # no traceback


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def test_evaluate_checkpoints(train_dir, capsys, tmp_path):
    # evaluating train's checkpoints writes train's reports byte for byte
    out = tmp_path / "eval"
    rc, stdout, _ = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoints", str(train_dir), "--out", str(out),
    )
    assert rc == 0
    per_entity = read_per_entity_tsv(train_dir / "per_entity.tsv")
    mean = sum(per_entity.values()) / len(per_entity)
    assert stdout == f"model mean F1 {mean:.4f} over 2 entities\n"
    names = ["aggregate.json", "per_entity.tsv"]
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (train_dir / name).read_bytes(), name


def test_evaluate_oracle(capsys, tmp_path):
    out = tmp_path / "oracle"
    rc, stdout, _ = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2",
        "--oracle", "--out", str(out),
    )
    assert rc == 0
    assert stdout == "oracle mean F1 0.7500 over 2 entities\n"
    doc = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert doc["mean_f1"] == 0.75
    assert (out / "per_entity.tsv").is_file()


def test_evaluate_needs_checkpoints_or_oracle(capsys):
    rc, _, err = invoke(capsys, "evaluate", "--manifest", MANIFEST, "--k", "2")
    assert rc == 1
    assert "needs --checkpoints or --oracle" in err


@pytest.mark.parametrize("flag, value, out", [
    ("--vectors", "nonexistent.vec", False),
    ("--vectors", VEC, True),
    ("--checkpoints", "nonexistent", True),
])
def test_evaluate_oracle_refuses_a_model_file(capsys, tmp_path, monkeypatch, flag, value, out):
    # the first case is the command as a user would type it in the repository
    monkeypatch.chdir(TOYMUSIC.parents[2])
    args = ["evaluate", "--manifest", "tests/data/toymusic/manifest.json", "--k", "2",
            "--oracle", flag, value]
    if out:
        args += ["--out", str(tmp_path / "oracle")]
    rc, stdout, err = invoke(capsys, *args)
    assert rc == 1
    assert stdout == ""
    assert err == f"usage error: evaluate --oracle reads no {flag}\n"
    assert not (tmp_path / "oracle").exists()


def test_evaluate_compare_runs_significance_test(train_dir, capsys, tmp_path):
    model_f1 = read_per_entity_tsv(train_dir / "per_entity.tsv")
    shared = sorted(model_f1)
    # an entity the oracle run does not have is left out of the pairing
    compare = tmp_path / "compare.tsv"
    compare.write_text(
        (train_dir / "per_entity.tsv").read_text(encoding="utf-8")
        + "1\thttp://toy.example/music/Elsewhere\t0.5\n",
        encoding="utf-8",
    )
    from entsum.dataset import load_manifest
    from entsum.evaluation import f1_against_golds, oracle_summary

    manifest = load_manifest(MANIFEST)
    oracle_f1 = {
        iri: f1_against_golds(oracle_summary(manifest.entity(iri), 2),
                              manifest.entity(iri).gold[2])
        for iri in shared
    }
    try:
        expected = format_significance(paired_ttest(
            [oracle_f1[i] for i in shared], [model_f1[i] for i in shared]
        ))
    except DataError:  # all differences equal: no t statistic
        expected = None

    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2",
        "--oracle", "--compare", str(compare),
    )
    if expected is None:
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error:")
    else:
        assert rc == 0
        assert stdout.splitlines()[1:] == [
            f"paired 2 shared entities; left out 0 of this run and 1 of {compare}", expected
        ]


def test_evaluate_compare_degenerate_variance_is_a_data_error(capsys, tmp_path):
    from entsum.dataset import load_manifest
    from entsum.evaluation import f1_against_golds, oracle_summary

    manifest = load_manifest(MANIFEST)
    rows = []
    for fold in manifest.folds:
        for iri in fold.test:
            desc = manifest.entity(iri)
            f1 = f1_against_golds(oracle_summary(desc, 2), desc.gold[2])
            # for F1 in [1/4, 1] both subtractions are exact, so every
            # paired difference is exactly 1/8
            assert 0.25 <= f1 <= 1.0 and f1 - (f1 - 0.125) == 0.125
            rows.append(f"{fold.index}\t{iri}\t{f1 - 0.125!r}")
    compare = tmp_path / "shifted.tsv"
    compare.write_text("\n".join([TSV_HEADER, *rows]) + "\n", encoding="utf-8")
    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2",
        "--oracle", "--compare", str(compare),
    )
    assert rc == 2
    assert stdout == ""
    assert err == "error: all 2 differences equal 0.125; t statistic undefined\n"


TSV_HEADER = "fold\tentity\tf1"


@pytest.mark.parametrize("rows, names", [
    (None, ["missing file"]),
    ([TSV_HEADER, "0\thttp://x/a"], ["line 2", "2 tab-separated fields"]),
    ([TSV_HEADER, "0\thttp://x/a\t0.5", "0\thttp://x/b\t0.5\textra"],
     ["line 3", "4 tab-separated"]),
    ([TSV_HEADER, "0\thttp://x/a\thigh"], ["line 2", "non-numeric F1 'high'"]),
    ([TSV_HEADER, "0\thttp://x/a\tnan"], ["line 2", "'nan'", "outside [0, 1]"]),
    ([TSV_HEADER, "0\thttp://x/a\tinf"], ["line 2", "'inf'"]),
    ([TSV_HEADER, "0\thttp://x/a\t1.5"], ["line 2", "'1.5'"]),
    ([TSV_HEADER, "0\thttp://x/a\t-0.25"], ["line 2", "'-0.25'"]),
    ([TSV_HEADER, "0\thttp://x/a\t0.5", "", "1\thttp://x/a\t0.5"],
     ["http://x/a", "line 2 and line 4"]),
    # without its header the first row would be lost unread
    ([f"0\t{ARIA}\t0.5", f"1\t{BLUE}\t0.25"], ["line 1", "header"]),
])
def test_evaluate_compare_rejects_bad_tsv(capsys, tmp_path, rows, names):
    path = tmp_path / "other.tsv"
    if rows is not None:
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, _, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2",
        "--oracle", "--compare", str(path),
    )
    assert rc == 2
    assert err.startswith("error:")
    assert str(path) in err
    assert all(name in err for name in names), err


@pytest.mark.parametrize("data, message", [
    (f"{TSV_HEADER}\n0\t{ARIA}\t0.5\xff\n".encode("latin-1"), "not UTF-8 text"),
    (f"{TSV_HEADER}\n0\t{ARIA}\t0.5\n".encode(), "need at least 2 pairs, got 1"),
], ids=["not-utf8", "one-row"])
def test_evaluate_compare_failure_prints_and_writes_nothing(capsys, tmp_path, data, message):
    # the TSV is read and the t-test run before the mean is printed and
    # before the --out reports are written
    path = tmp_path / "other.tsv"
    path.write_bytes(data)
    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2", "--oracle",
        "--out", str(tmp_path / "reports"), "--compare", str(path),
    )
    assert (rc, stdout) == (2, "")
    assert err.startswith("error:") and message in err, err
    assert not (tmp_path / "reports").exists()


def test_evaluate_dim_mismatched_checkpoint(train_dir, capsys, tmp_path):
    # 4-dimensional checkpoints against a 3-dimensional vector file
    slim = tmp_path / "slim.vec"
    slim.write_text("1 3\ntype 0.1 0.2 0.3\n", encoding="utf-8")
    rc, _, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", str(slim),
        "--k", "2", "--checkpoints", str(train_dir),
    )
    assert rc == 2
    assert err.startswith("error:")
    assert "embed_dim 4" in err and "3-dimensional" in err


def test_evaluate_k_mismatched_checkpoint(train_dir, capsys):
    # the checkpoints were trained for k=2
    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "3", "--checkpoints", str(train_dir),
    )
    assert rc == 2
    assert stdout == ""
    assert "k=2" in err and "--k 3" in err


def nonfinite_vec(tmp_path):
    path = tmp_path / "nan.vec"
    lines = (TOYMUSIC / "toy.vec").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("type ")
    lines[1] = "type nan 0.13 0.19 0.4"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["ingest", "train"])
def test_nonfinite_vector_file_is_a_data_error(capsys, tmp_path, command):
    args = [command, "--manifest", MANIFEST, "--vectors", str(nonfinite_vec(tmp_path))]
    if command == "train":
        args += ["--k", "2", "--max-epochs", "1", "--out", str(tmp_path / "o")]
    rc, _, err = invoke(capsys, *args)
    assert rc == 2
    assert err.startswith("error:")
    assert "line 2" in err and "non-finite" in err
    assert not (tmp_path / "o").exists()


# vector files whose width is below 1, and the start of each one's error
NO_WIDTH_VECTORS = {
    "text-header-0-minus-1": (b"0 -1\n", "unparseable line 1: header dim -1 is below 1"),
    "text-header-0-0": (b"0 0\n", "unparseable line 1: header dim 0 is below 1"),
    "store-dim-0": (b'{"dim":0,"format":"entsum-vectors","version":1,"words":[]}\n',
                    "dim 0 is not an integer >= 1"),
}


@pytest.mark.parametrize("case", sorted(NO_WIDTH_VECTORS))
@pytest.mark.parametrize("command", ["ingest", "train", "filter-vectors"])
def test_a_vector_file_of_width_below_1_exits_2(capsys, tmp_path, command, case):
    # each loaded as a store of dim -1 or 0: ingest exited 0, train ended in
    # a ValueError traceback and filter-vectors wrote a store of dim 0
    data, message = NO_WIDTH_VECTORS[case]
    path, out = tmp_path / "bad.vec", tmp_path / "out"
    path.write_bytes(data)
    args = [command, "--manifest", MANIFEST, "--vectors", str(path)]
    if command != "ingest":
        args += ["--out", str(out)]
    if command == "train":
        args += ["--k", "2", "--max-epochs", "1"]
    rc, _, err = invoke(capsys, *args)
    assert (rc, err) == (2, f"error: {path}: {message}\n")
    assert not out.exists()


# vector files that hold a vector for no word of toymusic: in the first two
# nothing bears out the header's width of 10^12
NO_WORD_VECTORS = {
    "store-dim-10^12": b'{"dim":1000000000000,"format":"entsum-vectors","version":1,"words":[]}\n',
    "text-header-0-10^12": b"0 1000000000000\n",
    "text-other-word": b"1 4\nelsewhere 0.1 0.2 0.3 0.4\n",
    "text-headerless-zzqx": b"zzqx 0.1 0.2 0.3 0.4\n",
}


@pytest.mark.parametrize("case", sorted(NO_WORD_VECTORS))
def test_train_refuses_vectors_for_no_word_of_the_dataset(capsys, tmp_path, case):
    # the first two used to size the model's weights by the header's width
    # and end in a MemoryError traceback
    path, out = tmp_path / "none.vec", tmp_path / "out"
    path.write_bytes(NO_WORD_VECTORS[case])
    rc, stdout, err = invoke(capsys, "train", "--manifest", MANIFEST, "--vectors", str(path),
                             "--k", "2", "--max-epochs", "1", "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert err == f"error: {path}: no vector for any word of the dataset\n"
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(NO_WORD_VECTORS))
@pytest.mark.parametrize("command", ["ingest", "filter-vectors", "evaluate", "summarize"])
def test_every_command_refuses_vectors_for_no_word_of_the_dataset(capsys, train_dir, tmp_path,
                                                                  command, case):
    # train's refusal, made where every command loads its vectors: ingest
    # exited 0 with one warning per form, filter-vectors wrote a store of no
    # words, and evaluate scored all-zero encodings for a 4-wide file
    path, out = tmp_path / "none.vec", tmp_path / "out"
    path.write_bytes(NO_WORD_VECTORS[case])
    args = {
        "ingest": [],
        "filter-vectors": ["--out", str(out)],
        "evaluate": ["--k", "2", "--checkpoints", str(train_dir), "--out", str(out)],
        "summarize": ["--k", "2", "--checkpoint", str(train_dir / "fold0.ckpt"),
                      "--entity", ARIA],
    }[command]
    rc, stdout, err = invoke(capsys, command, "--manifest", MANIFEST, "--vectors", str(path),
                             *args)
    assert (rc, stdout, err) == (2, "", f"error: {path}: no vector for any word of the dataset\n")
    assert not out.exists()


@pytest.mark.parametrize("fold1", ["copy", b'"1"', b"1.0", b"true", b"null", None])
def test_evaluate_refuses_a_checkpoint_trained_for_another_fold(capsys, train_dir, tmp_path,
                                                                 fold1):
    # a copy of fold 0's checkpoint as fold 1's used to score fold 1's test
    # entity with the model that trained on it, and exit 0; a checkpoint
    # with no fold still loads
    ckpts, out = tmp_path / "ckpts", tmp_path / "out"
    ckpts.mkdir()
    shutil.copy(train_dir / "fold0.ckpt", ckpts / "fold0.ckpt")
    data = (train_dir / "fold1.ckpt").read_bytes()
    assert data.count(b'"fold":1,') == 1
    if fold1 == "copy":
        data = (train_dir / "fold0.ckpt").read_bytes()
    else:
        data = data.replace(b'"fold":1,', b"" if fold1 is None else b'"fold":' + fold1 + b",")
    (ckpts / "fold1.ckpt").write_bytes(data)
    rc, stdout, err = invoke(capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
                             "--k", "2", "--checkpoints", str(ckpts), "--out", str(out))
    if fold1 is None:
        assert (rc, err) == (0, "")
        assert (out / "per_entity.tsv").read_bytes() == \
            (train_dir / "per_entity.tsv").read_bytes()
        return
    trained = 0 if fold1 == "copy" else json.loads(fold1)
    assert (rc, stdout) == (2, "")
    assert err == (f"error: {ckpts / 'fold1.ckpt'}: checkpoint was trained for fold "
                   f"{trained!r}, not fold 1\n")
    assert not out.exists()


@pytest.mark.parametrize("chosen", ["x", [1], float("inf"), 7.9, "7", True, -1])
def test_evaluate_rejects_a_chosen_epoch_that_is_not_an_integer(capsys, tmp_path, chosen):
    # the first three used to end in a ValueError, TypeError or OverflowError
    # traceback, the next three to be read as 7, 7 and 1
    model = TripleScorer.create(ModelConfig(embed_dim=4))
    for fold in (0, 1):
        save_checkpoint(model, tmp_path / f"fold{fold}.ckpt", meta={"k": 2, "chosen_epoch": chosen})
    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoints", str(tmp_path),
    )
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error:") and "fold0.ckpt: chosen_epoch" in err


@pytest.mark.parametrize("hostile, k", [
    (b"2.0", "2"), (b"true", "1"), (b'"2"', "2"), (b"[2]", "2"), (b"null", "2"), (b"{}", "2"),
])
def test_a_meta_k_that_is_no_json_integer_is_a_data_error(capsys, tmp_path, hostile, k):
    # 2.0 and true used to pass for --k 2 and --k 1
    model = TripleScorer.create(ModelConfig(embed_dim=4))
    for fold in (0, 1):
        ckpt = tmp_path / f"fold{fold}.ckpt"
        save_checkpoint(model, ckpt, meta={"k": 2, "chosen_epoch": 1})
        data = ckpt.read_bytes()
        assert data.count(b'"k":2') == 1
        ckpt.write_bytes(data.replace(b'"k":2', b'"k":' + hostile))
    for args in (["summarize", "--checkpoint", str(tmp_path / "fold0.ckpt"), "--entity", ARIA],
                 ["evaluate", "--checkpoints", str(tmp_path)]):
        rc, stdout, err = invoke(capsys, *args, "--manifest", MANIFEST, "--vectors", VEC,
                                 "--k", k)
        assert (rc, stdout) == (2, ""), args
        assert err.startswith(f"error: {tmp_path / 'fold0.ckpt'}: k "), err
        assert "is not an integer" in err


@pytest.mark.parametrize("hostile", [b"[]", b'"x"', b"7", b"null", None])
def test_a_meta_that_is_no_json_object_is_a_data_error(capsys, train_dir, tmp_path, hostile):
    # each used to load as {}, which skipped the --k check; a missing meta
    # still reads as {}
    for fold in (0, 1):
        data = (train_dir / f"fold{fold}.ckpt").read_bytes()
        meta = re.search(rb',"meta":\{[^{}]*\}', data).group()
        replacement = b"" if hostile is None else b',"meta":' + hostile
        (tmp_path / f"fold{fold}.ckpt").write_bytes(data.replace(meta, replacement, 1))
    rc, stdout, err = invoke(capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
                             "--k", "3", "--checkpoints", str(tmp_path))
    if hostile is None:
        assert (rc, err) == (0, ""), err
        assert stdout.startswith("model mean F1 ")
    else:
        assert (rc, stdout) == (2, "")
        assert err == f"error: {tmp_path / 'fold0.ckpt'}: meta is not a JSON object\n"


def test_evaluate_missing_checkpoint(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoints", str(tmp_path),
    )
    assert rc == 2
    assert err.startswith("error:")


def save_overflowing_checkpoints(directory):
    """fold0.ckpt and fold1.ckpt with parameters of +-1e300: finite, so they
    load, but every score overflows to nan."""
    model = TripleScorer.create(ModelConfig(
        embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8), scoring_hidden=(8, 8),
    ))
    for p in model.parameters():
        p[...] = np.where(p >= 0, 1e300, -1e300)
    for fold in (0, 1):
        save_checkpoint(model, directory / f"fold{fold}.ckpt", meta={"k": 2, "chosen_epoch": 1})


def test_nonfinite_scores_are_a_numeric_error(capsys, tmp_path):
    save_overflowing_checkpoints(tmp_path)
    for entity, args in [
        (ARIA, ["summarize", "--checkpoint", str(tmp_path / "fold0.ckpt"), "--entity", ARIA]),
        (BLUE, ["evaluate", "--checkpoints", str(tmp_path)]),  # fold 0 tests Blue River
    ]:
        rc, stdout, err = invoke(
            capsys, args[0], "--manifest", MANIFEST, "--vectors", VEC, "--k", "2", *args[1:]
        )
        assert rc == 3
        assert stdout == ""
        assert err.startswith("numeric error:")
        assert entity in err and "non-finite" in err


def test_numeric_error_prints_one_line(tmp_path):
    # in a process of its own, where numpy's warnings would reach stderr
    save_overflowing_checkpoints(tmp_path)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "entsum.cli", "summarize", "--manifest", MANIFEST,
         "--vectors", VEC, "--k", "2", "--checkpoint", str(tmp_path / "fold0.ckpt"),
         "--entity", ARIA],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == f"numeric error: {ARIA}: non-finite triple score\n"


# --------------------------------------------------------------------------
# unreadable inputs and unwritable outputs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("which", [
    "manifest", "description", "gold", "elist", "split", "compare", "checkpoint",
])
def test_non_utf8_input_is_a_data_error(capsys, tmp_path, which):
    toy = tmp_path / "toymusic"
    shutil.copytree(TOYMUSIC, toy)
    esbm = tmp_path / "esbm"
    build_esbm_tree(esbm)
    compare = tmp_path / "other.tsv"
    compare.write_text(f"fold\tentity\tf1\n0\t{ARIA}\t0.5\n", encoding="utf-8")
    ckpt = tmp_path / "fold0.ckpt"
    save_checkpoint(TripleScorer.create(ModelConfig(embed_dim=4)), ckpt, meta={"k": 2})
    manifest = ["--manifest", str(toy / "manifest.json")]
    path, args = {
        "manifest": (toy / "manifest.json", ["ingest", *manifest]),
        "description": (toy / "aria_desc.nt", ["ingest", *manifest]),
        "gold": (toy / "aria_gold_top2_0.nt", ["ingest", *manifest]),
        "elist": (esbm / "elist.txt", ["ingest", "--esbm", str(esbm)]),
        "split": (esbm / "dbpedia_split" / "Fold0" / "train.txt", ["ingest", "--esbm", str(esbm)]),
        "compare": (compare, ["evaluate", *manifest, "--k", "2", "--oracle",
                              "--compare", str(compare)]),
        "checkpoint": (ckpt, ["summarize", *manifest, "--vectors", VEC, "--k", "2",
                              "--checkpoint", str(ckpt), "--entity", ARIA]),
    }[which]
    data = path.read_bytes()
    # a text file gets the bad byte at its end; a checkpoint, whose text is
    # its first line, at the end of that line
    at = data.index(b"\n") if which == "checkpoint" else len(data)
    path.write_bytes(data[:at] + b"\xff\n" + data[at:])
    rc, _, err = invoke(capsys, *args)
    assert rc == 2
    assert err.startswith("error:")
    assert str(path) in err and "not UTF-8" in err and f"byte {at}" in err


@pytest.mark.parametrize("command", ["evaluate", "train", "filter-vectors", "manifest-dir"])
def test_unwritable_output_is_a_data_error(capsys, tmp_path, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file\n", encoding="utf-8")
    # an unwritable --out must fail before the cross-validation runs
    monkeypatch.setattr(cli, "cross_validate", lambda *args: pytest.fail("trained"))
    args, named = {
        "evaluate": (["evaluate", "--manifest", MANIFEST, "--k", "2", "--oracle",
                      "--out", str(blocker / "sub")], blocker / "sub"),
        "train": (["train", "--manifest", MANIFEST, "--vectors", VEC, "--k", "2",
                   "--out", str(blocker / "sub")], blocker / "sub"),
        "filter-vectors": (["filter-vectors", "--manifest", MANIFEST, "--vectors", VEC,
                            "--out", str(blocker / "sub.vec")], blocker),
        "manifest-dir": (["ingest", "--manifest", str(tmp_path)], tmp_path),
    }[command]
    rc, stdout, err = invoke(capsys, *args)
    assert rc == 2
    assert stdout == ""
    assert err.startswith("error:") and str(named) in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no temp file left
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


# --------------------------------------------------------------------------
# summarize
# --------------------------------------------------------------------------

def test_summarize_prints_ranked_summary(overfit_dir, capsys):
    rc, stdout, _ = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoint", str(overfit_dir / "fold0.ckpt"),
        "--entity", ARIA,
    )
    assert rc == 0
    lines = stdout.splitlines()
    assert lines[0] == f"{ARIA}: top 2 of 10 triples"
    # the overfit fold-0 model memorized Aria's unanimous gold ranking
    assert lines[1].startswith("  [0] score=")
    assert lines[2].startswith("  [5] score=")
    assert "http://toy.example/voc/Singer" in lines[1]
    assert "(attends to " in lines[1]
    attended = lines[1].rsplit("(attends to ", 1)[1].rstrip(")").split(", ")
    assert len(attended) == 3
    assert all(":" in entry for entry in attended)


def test_summarize_caps_k_at_description_size(overfit_dir, capsys, tmp_path):
    model, meta = load_checkpoint(overfit_dir / "fold0.ckpt")
    ckpt = tmp_path / "k3.ckpt"
    save_checkpoint(model, ckpt, meta={**meta, "k": 3})
    rc, stdout, _ = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "3", "--checkpoint", str(ckpt), "--entity", BLUE,
    )
    assert rc == 0
    assert stdout.splitlines()[0] == f"{BLUE}: top 3 of 7 triples"
    assert len(stdout.splitlines()) == 4


def test_summarize_mismatched_checkpoint(overfit_dir, capsys, tmp_path):
    slim = tmp_path / "slim.vec"
    slim.write_text("1 3\ntype 0.1 0.2 0.3\n", encoding="utf-8")
    ckpt = str(overfit_dir / "fold0.ckpt")
    for vectors, k, names in [(str(slim), "2", ("embed_dim 4", "3-dimensional")),
                              (VEC, "3", ("k=2", "--k 3"))]:
        rc, stdout, err = invoke(
            capsys, "summarize", "--manifest", MANIFEST, "--vectors", vectors,
            "--k", k, "--checkpoint", ckpt, "--entity", ARIA,
        )
        assert rc == 2
        assert stdout == ""
        assert all(name in err for name in names)


def test_summarize_rejects_version_1_checkpoint(overfit_dir, capsys, tmp_path):
    # version 1 stored every layer's shape, activation and weights as JSON
    model, _ = load_checkpoint(overfit_dir / "fold0.ckpt")
    header = (overfit_dir / "fold0.ckpt").read_bytes().split(b"\n", 1)[0]
    doc = json.loads(header.decode("utf-8"))
    doc["version"] = 1
    doc["mlps"] = {
        name: [{"activation": layer.activation.value, "shape": list(layer.W.shape),
                "weights": layer.W.ravel().tolist(), "bias": layer.b.tolist()}
               for layer in getattr(model, f"{name}_mlp").layers]
        for name in ("candidate", "context", "scoring")
    }
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    rc, stdout, err = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoint", str(ckpt), "--entity", ARIA,
    )
    assert rc == 2
    assert stdout == ""
    assert "checkpoint version 1" in err


def test_summarize_rejects_version_2_checkpoint(overfit_dir, capsys, tmp_path):
    # version 2 was one JSON line holding the flat parameters as base64
    header, blob = (overfit_dir / "fold0.ckpt").read_bytes().split(b"\n", 1)
    doc = json.loads(header.decode("utf-8"))
    doc.update(version=2, parameters=base64.b64encode(blob).decode("ascii"))
    ckpt = tmp_path / "v2.ckpt"
    ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    rc, stdout, err = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoint", str(ckpt), "--entity", ARIA,
    )
    assert rc == 2
    assert stdout == ""
    assert "checkpoint version 2" in err


@pytest.mark.parametrize("field, hostile", [
    ("candidate_hidden", b"[true]"),
    ("seed", b"7.9"),
    ("seed", b'"7"'),
    ("seed", b"true"),
    ("embed_dim", b"true"),
])
def test_summarize_refuses_a_config_field_that_is_no_json_integer(capsys, tmp_path, field,
                                                                 hostile):
    # [true] used to end in a TypeError traceback from the scorer's
    # constructor; the others loaded as 7, 7, 1 and 1.  Each field's stored
    # value is one that the hostile one would pass for.
    vectors = VEC
    if field == "embed_dim":  # the toy words with one component each
        vectors = tmp_path / "one.vec"
        words = [line.split(" ", 1)[0] for line in
                 (TOYMUSIC / "toy.vec").read_text(encoding="utf-8").splitlines()[1:]]
        vectors.write_text("".join(f"{word} 0.5\n" for word in words), encoding="utf-8")
    config = ModelConfig(embed_dim=1 if field == "embed_dim" else 4, candidate_hidden=(1,),
                         context_hidden=(1,), scoring_hidden=(2,),
                         seed=1 if hostile == b"true" else 7)
    ckpt = tmp_path / "fold0.ckpt"
    save_checkpoint(TripleScorer.create(config), ckpt, meta={"k": 2})
    data = ckpt.read_bytes()
    stored = json.dumps({field: getattr(config, field)}, separators=(",", ":"))[1:-1].encode()
    assert data.count(stored) == 1
    ckpt.write_bytes(data.replace(stored, f'"{field}":'.encode() + hostile))
    rc, stdout, err = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--k", "2", "--checkpoint", str(ckpt),
        "--vectors", str(vectors), "--entity", ARIA,
    )
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: {ckpt}: {field} must be "), err


def test_encoders_of_two_widths_are_a_data_error(capsys, tmp_path):
    # such a checkpoint used to load, and scoring then ended in exit 3 with
    # "numeric error: cosine over shapes (10, 3) and (10, 5)"
    config = {"embed_dim": 4, "candidate_hidden": [3], "context_hidden": [5],
              "scoring_hidden": [2], "seed": 0}
    layers = ([8, 3], [8, 5], [8, 2, 1])
    count = sum((i + 1) * o for dims in layers for i, o in zip(dims, dims[1:]))
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for fold in (0, 1):
        write_framed(ckpts / f"fold{fold}.ckpt", CHECKPOINT,
                     {"config": config, "meta": {"chosen_epoch": 1, "fold": fold, "k": 2}},
                     [np.full(count, 0.1)])
    ckpt = ckpts / "fold0.ckpt"
    for args in (["summarize", "--checkpoint", str(ckpt), "--entity", ARIA],
                 ["evaluate", "--checkpoints", str(ckpts), "--out", str(tmp_path / "out")]):
        rc, stdout, err = invoke(capsys, *args, "--manifest", MANIFEST, "--vectors", VEC,
                                 "--k", "2")
        assert (rc, stdout) == (2, ""), args[0]
        assert err == (f"error: {ckpt}: candidate_hidden and context_hidden must end in the "
                       "same width, got 3 and 5\n"), err
    assert not (tmp_path / "out").exists()


def test_summarize_rejects_surrogate_escape(overfit_dir, capsys, tmp_path):
    # a lone surrogate cannot be printed; it must not get past the parser
    path = patched_manifest(tmp_path, lambda doc: None)
    with (path.parent / "aria_desc.nt").open("a", encoding="utf-8") as fh:
        fh.write(f'<{ARIA}> <http://toy.example/voc/nick> "x\\uD800" .\n')
    model, meta = load_checkpoint(overfit_dir / "fold0.ckpt")
    ckpt = tmp_path / "k11.ckpt"
    save_checkpoint(model, ckpt, meta={**meta, "k": 11})
    rc, _, err = invoke(
        capsys, "summarize", "--manifest", str(path), "--vectors", VEC,
        "--k", "11", "--checkpoint", str(ckpt), "--entity", ARIA,
    )
    assert rc == 2
    assert "\\uD800 is not a character" in err, err


def test_summarize_unknown_entity(overfit_dir, capsys):
    rc, _, err = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoint", str(overfit_dir / "fold0.ckpt"),
        "--entity", "http://toy.example/music/Nobody",
    )
    assert rc == 2
    assert "no entity with IRI" in err


def test_summarize_missing_checkpoint(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "summarize", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoint", str(tmp_path / "absent.ckpt"),
        "--entity", ARIA,
    )
    assert rc == 2
    assert err.startswith("error:")
