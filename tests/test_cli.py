"""End-to-end command-line behavior, driven in process through cli.main."""

import json
import shutil

import numpy as np
import pytest

from entsum import cli
from entsum.errors import DegenerateVariance
from entsum.evaluation import (
    format_significance,
    paired_ttest,
    read_per_entity_tsv,
)
from entsum.embeddings import load_vec_file
from entsum.model import load_checkpoint, save_checkpoint

from conftest import ARIA, BLUE, TOYMUSIC, build_esbm_tree

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


def test_broken_fold_names_its_index(capsys, tmp_path):
    path = patched_manifest(
        tmp_path,
        lambda doc: doc["folds"][0].update(test=["http://toy.example/nobody"]),
    )
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(path))
    assert rc == 2
    assert "fold 0" in err


def test_invalid_manifest_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json", encoding="utf-8")
    rc, _, err = invoke(capsys, "ingest", "--manifest", str(bad))
    assert rc == 2
    assert err.startswith("error:")


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
    store = load_vec_file(out)
    assert len(store) == 40
    assert store.dim == 4
    assert "unused" not in store
    assert len(out.read_text(encoding="utf-8").splitlines()) == 41


def test_filter_vectors_no_overlap_writes_header_only(capsys, tmp_path):
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
    rc, stdout, _ = invoke(
        capsys, "filter-vectors", "--manifest", str(root / "m.json"),
        "--vectors", VEC, "--out", str(out),
    )
    assert rc == 0
    assert stdout.startswith("kept 0 of 2 ")
    assert out.read_text(encoding="utf-8") == "0 4\n"
    assert len(load_vec_file(out)) == 0


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
    rc, stdout, _ = invoke(
        capsys, "filter-vectors", "--manifest", str(root / "m.json"),
        "--vectors", VEC, "--out", str(out),
    )
    assert rc == 0
    assert stdout.startswith("kept 0 of 0 ")
    assert out.read_text(encoding="utf-8") == "0 4\n"


def test_filtered_store_scores_identically(capsys, tmp_path, toy_manifest, toy_store):
    from entsum.model import ModelConfig, TripleScorer

    out = tmp_path / "filtered.vec"
    rc, _, _ = invoke(
        capsys, "filter-vectors", "--manifest", MANIFEST,
        "--vectors", VEC, "--out", str(out),
    )
    assert rc == 0
    filtered = load_vec_file(out)
    model = TripleScorer.create(ModelConfig(
        embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
        scoring_hidden=(8, 8), seed=0,
    ))
    for desc in toy_manifest.entities:
        full = model.score_entity(desc, toy_store)
        trimmed = model.score_entity(desc, filtered)
        assert full.scores == trimmed.scores


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


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def test_evaluate_checkpoints(train_dir, capsys):
    rc, stdout, _ = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoints", str(train_dir),
    )
    assert rc == 0
    per_entity = read_per_entity_tsv(train_dir / "per_entity.tsv")
    mean = sum(per_entity.values()) / len(per_entity)
    assert stdout == f"model mean F1 {mean:.4f} over 2 entities\n"


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


def test_evaluate_compare_runs_significance_test(train_dir, capsys):
    model_f1 = read_per_entity_tsv(train_dir / "per_entity.tsv")
    shared = sorted(model_f1)
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
    except DegenerateVariance:
        expected = None

    rc, stdout, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--k", "2",
        "--oracle", "--compare", str(train_dir / "per_entity.tsv"),
    )
    if expected is None:
        assert rc == 2
        assert err.startswith("error:")
    else:
        assert rc == 0
        assert stdout.splitlines()[-1] == expected


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


def test_evaluate_missing_checkpoint(capsys, tmp_path):
    rc, _, err = invoke(
        capsys, "evaluate", "--manifest", MANIFEST, "--vectors", VEC,
        "--k", "2", "--checkpoints", str(tmp_path),
    )
    assert rc == 2
    assert err.startswith("error:")


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
