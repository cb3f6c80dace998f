"""Benchmark-tree adapter: layout discovery, split wiring, error paths."""

import pytest

from entsum import cli
from entsum.errors import DataError, MissingFile
from entsum.esbm import load_esbm

from conftest import build_esbm_tree


def test_load_all_collections(tmp_path):
    build_esbm_tree(tmp_path)
    manifest = load_esbm(tmp_path)
    assert manifest.name == "esbm"
    assert len(manifest.entities) == 10
    assert len(manifest.folds) == 5
    for fold in manifest.folds:
        assert len(fold.train) == 6
        assert len(fold.valid) == 2
        assert len(fold.test) == 2


def test_single_collection(tmp_path):
    build_esbm_tree(tmp_path)
    manifest = load_esbm(tmp_path, "dbpedia")
    assert manifest.name == "esbm-dbpedia"
    assert len(manifest.entities) == 5
    assert all(e.entity.raw.startswith("http://ex.org/dbpedia/") for e in manifest.entities)
    lmdb = load_esbm(tmp_path, "lmdb")
    assert lmdb.name == "esbm-lmdb"
    assert len(lmdb.entities) == 5


def test_unknown_collection_rejected(tmp_path):
    build_esbm_tree(tmp_path)
    with pytest.raises(ValueError):
        load_esbm(tmp_path, "wikidata")


def test_entity_content(tmp_path):
    build_esbm_tree(tmp_path)
    manifest = load_esbm(tmp_path, "dbpedia")
    e1 = manifest.entity("http://ex.org/dbpedia/e1")
    assert len(e1.triples) == 3  # the label statement does not touch the entity
    assert e1.triples[2].val.raw == "http://ex.org/x/1"
    assert sorted(e1.gold) == [5, 10]
    assert [sorted(g.triple_ids) for g in e1.gold[5]] == [[0, 1], [0, 2]]
    assert [g.annotator for g in e1.gold[5]] == ["0", "1"]
    # labels from the non-candidate statement are attached to values
    assert e1.triples[0].val.label == "value 1 a"


def test_six_golds_per_k(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5}, golds_per_k=6)
    manifest = load_esbm(tmp_path, "dbpedia")
    e1 = manifest.entity("http://ex.org/dbpedia/e1")
    assert len(e1.gold[5]) == 6
    assert len(e1.gold[10]) == 6


def test_full_benchmark_shape(tmp_path):
    # 125 + 50 entities, five folds, six golds per entity and size budget
    build_esbm_tree(tmp_path, counts={"dbpedia": 125, "lmdb": 50}, golds_per_k=6)
    manifest = load_esbm(tmp_path)
    assert len(manifest.entities) == 175
    assert manifest.gold_count == 175 * 12
    assert len(manifest.folds) == 5
    seen_test = []
    for fold in manifest.folds:
        assert len(fold.test) == 25 + 10
        seen_test.extend(fold.test)
    # the five test sets partition the corpus
    assert len(seen_test) == 175
    assert len(set(seen_test)) == 175


def test_split_file_fallback_name(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5}, split_suffix="set")
    manifest = load_esbm(tmp_path, "dbpedia")
    assert len(manifest.folds) == 5


def test_lowercase_fold_directories(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5}, fold_dir_prefix="fold")
    manifest = load_esbm(tmp_path, "dbpedia")
    assert len(manifest.folds) == 5


def test_elist_tolerates_header_and_extra_columns(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    # the builder writes a header line plus a third column already; also cover
    # space-separated variants
    elist = tmp_path / "elist.txt"
    text = elist.read_text(encoding="utf-8").replace("\t", "  ")
    elist.write_text(text, encoding="utf-8")
    manifest = load_esbm(tmp_path, "dbpedia")
    assert len(manifest.entities) == 5


def test_missing_elist(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    (tmp_path / "elist.txt").unlink()
    with pytest.raises(MissingFile):
        load_esbm(tmp_path, "dbpedia")


def test_missing_description_file(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    (tmp_path / "dbpedia" / "1" / "1_desc.nt").unlink()
    with pytest.raises(MissingFile) as err:
        load_esbm(tmp_path, "dbpedia")
    assert "1_desc.nt" in str(err.value)


def test_missing_split_directory(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    import shutil

    shutil.rmtree(tmp_path / "dbpedia_split")
    with pytest.raises(MissingFile):
        load_esbm(tmp_path, "dbpedia")


def test_missing_split_part_file(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    (tmp_path / "dbpedia_split" / "Fold0" / "valid.txt").unlink()
    with pytest.raises(MissingFile):
        load_esbm(tmp_path, "dbpedia")


def test_split_with_unknown_entity_id(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    test_file = tmp_path / "dbpedia_split" / "Fold0" / "test.txt"
    test_file.write_text(test_file.read_text(encoding="utf-8") + "999\n", encoding="utf-8")
    with pytest.raises(DataError, match="split references unknown entity id 999"):
        load_esbm(tmp_path, "dbpedia")


def test_entity_dir_missing_from_elist(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    elist = tmp_path / "elist.txt"
    lines = elist.read_text(encoding="utf-8").splitlines()
    elist.write_text("\n".join(ln for ln in lines if not ln.startswith("1\t")) + "\n",
                     encoding="utf-8")
    with pytest.raises(DataError, match="entity id missing from elist.txt"):
        load_esbm(tmp_path, "dbpedia")


def test_repeated_entity_iri_rejected(tmp_path):
    # entity ids 1 and 2 name the same IRI, and entity 2's files describe it
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    for path in [tmp_path / "elist.txt", *(tmp_path / "dbpedia" / "2").iterdir()]:
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("http://ex.org/dbpedia/e2", "http://ex.org/dbpedia/e1"),
                        encoding="utf-8")
    with pytest.raises(DataError, match="duplicate entity iri http://ex.org/dbpedia/e1"):
        load_esbm(tmp_path, "dbpedia")


def test_fold_count_mismatch_between_collections(tmp_path):
    build_esbm_tree(tmp_path)
    import shutil

    shutil.rmtree(tmp_path / "lmdb_split" / "Fold4")
    with pytest.raises(DataError, match="fold count differs between collections"):
        load_esbm(tmp_path)


def test_fold_after_a_gap_is_a_data_error(tmp_path, capsys):
    # Fold1 renamed away in both collections: read up to the gap, the tree
    # would train one fold and drop Fold2..Fold4 without a word
    build_esbm_tree(tmp_path)
    for coll in ("dbpedia", "lmdb"):
        split_root = tmp_path / f"{coll}_split"
        (split_root / "Fold1").rename(split_root / "held-out")
    with pytest.raises(DataError, match=r"dbpedia_split/Fold2: fold directory not read: "
                                        r"Fold1 is missing"):
        load_esbm(tmp_path)
    assert cli.main(["ingest", "--esbm", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dbpedia_split/Fold2: fold directory not read: Fold1 is missing" in err


@pytest.mark.parametrize("prefix", ["Fold", "fold"])
def test_fold_without_fold0_is_a_data_error(tmp_path, prefix):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5}, fold_dir_prefix=prefix)
    split_root = tmp_path / "dbpedia_split"
    (split_root / f"{prefix}0").rename(split_root / "spare")
    with pytest.raises(DataError, match=f"{prefix}1: fold directory not read: Fold0 is missing"):
        load_esbm(tmp_path, "dbpedia")


def test_fold_past_fold4_is_a_data_error(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5}, n_folds=6)
    with pytest.raises(DataError, match="Fold5: fold directory not read: only Fold0..Fold4"):
        load_esbm(tmp_path, "dbpedia")


def test_fold_named_files_and_empty_split_root(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    split_root = tmp_path / "dbpedia_split"
    # a file is no fold directory, so nothing is skipped
    (split_root / "Fold7").write_text("", encoding="utf-8")
    assert len(load_esbm(tmp_path, "dbpedia").folds) == 5
    for index in range(5):
        (split_root / f"Fold{index}").rename(split_root / f"kept{index}")
    with pytest.raises(DataError, match="no Fold0..Fold4 directories"):
        load_esbm(tmp_path, "dbpedia")


def test_missing_root_collections(tmp_path):
    with pytest.raises(MissingFile):
        load_esbm(tmp_path)


def test_non_ascii_digit_names_are_not_entity_ids(tmp_path, capsys):
    # "²".isdigit() is true but int("²") fails: the directory is skipped like
    # any non-numeric one, and the elist line has no entity id
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    (tmp_path / "dbpedia" / "²").mkdir()
    elist = tmp_path / "elist.txt"
    elist.write_text(elist.read_text(encoding="utf-8") + "²\thttp://ex.org/dbpedia/sq\n",
                     encoding="utf-8")
    manifest = load_esbm(tmp_path, "dbpedia")
    assert [e.entity.raw for e in manifest.entities] == [
        f"http://ex.org/dbpedia/e{i}" for i in range(1, 6)
    ]
    assert cli.main(["ingest", "--esbm", str(tmp_path)]) == 0
    assert capsys.readouterr() == ("5 entities, 15 triples, 20 golds\nfolds: 5\n", "")


def test_gold_names_take_ascii_digits_and_end_in_nt(tmp_path):
    build_esbm_tree(tmp_path, counts={"dbpedia": 5})
    want = [e.gold for e in load_esbm(tmp_path, "dbpedia").entities]
    entity_dir = tmp_path / "dbpedia" / "1"
    gold = (entity_dir / "1_gold_top5_0.nt").read_text(encoding="utf-8")
    # a trailing newline, an Arabic-Indic five and an Arabic-Indic zero; a
    # prefix before the entity id, another entity's id and a padded id
    for stray in ("1_gold_top5_0.nt\n", "1_gold_top٥_0.nt", "1_gold_top5_٠.nt",
                  "backup_gold_top5_7.nt", "2_gold_top5_8.nt", "01_gold_top5_9.nt"):
        (entity_dir / stray).write_text(gold, encoding="utf-8")
    assert [e.gold for e in load_esbm(tmp_path, "dbpedia").entities] == want


@pytest.mark.parametrize("k", ["05", "0", "00", "1000000000000000000"])
def test_a_gold_file_whose_k_is_not_spelled_as_a_gold_key_is_a_data_error(tmp_path, capsys, k):
    # top05 used to be read as a second size-5 gold (41 golds, exit 0), and
    # top0 failed as "summary by 0 has 2 triples for k=0", naming no file
    build_esbm_tree(tmp_path)
    assert cli.main(["ingest", "--esbm", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("10 entities, 30 triples, 40 golds\n")
    entity_dir = tmp_path / "dbpedia" / "1"
    copy = entity_dir / f"1_gold_top{k}_0.nt"
    copy.write_bytes((entity_dir / "1_gold_top5_0.nt").read_bytes())
    assert cli.main(["ingest", "--esbm", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {copy}: gold size {k!r} is not a positive "
                                       "integer of at most 18 ASCII digits without a leading zero\n")


@pytest.mark.parametrize("case", ["description-directory", "gold-directory", "empty-description"])
def test_an_input_file_that_does_not_read_is_a_data_error(tmp_path, capsys, case):
    # a directory opens as a file descriptor and fails only on its first
    # read; an empty description reads but mentions no entity
    build_esbm_tree(tmp_path)
    entity_dir = tmp_path / "dbpedia" / "1"
    if case == "empty-description":
        path = entity_dir / "1_desc.nt"
        path.write_bytes(b"")
        message = f"{path}: no statement mentions <http://ex.org/dbpedia/e1>"
    else:
        name = "1_desc.nt" if case == "description-directory" else "1_gold_top5_0.nt"
        path = entity_dir / name
        path.unlink()
        path.mkdir()
        message = f"{path}: cannot read (Is a directory)"
    assert cli.main(["ingest", "--esbm", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
