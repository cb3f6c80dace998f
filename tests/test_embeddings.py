"""Textual forms, tokenization, vector files, mean-of-word embeddings."""

import numpy as np
import pytest

from entsum.dataset import NodeKind, Resource
from entsum.embeddings import (
    EmbeddingStore,
    coverage_warnings,
    embed_resource,
    load_vec_file,
    manifest_vocabulary,
    resource_tokens,
    save_vec_file,
    textual_form,
    tokenize,
)
from entsum.errors import DimMismatch, ParseError

from conftest import TOYMUSIC


def iri(raw, label=None):
    return Resource(NodeKind.IRI, raw, label)


def lit(raw):
    return Resource(NodeKind.LITERAL, raw, None)


# --------------------------------------------------------------------------
# textual form
# --------------------------------------------------------------------------

def test_literal_uses_lexical_form():
    assert textual_form(lit("Tim Berners-Lee")) == "Tim Berners-Lee"


def test_iri_label_wins_over_local_name():
    assert textual_form(iri("http://ex.org/TBL", "Tim Berners-Lee")) == "Tim Berners-Lee"


def test_iri_local_name_after_hash():
    assert textual_form(iri("http://ex.org/voc#birthPlace")) == "birthPlace"


def test_iri_local_name_after_slash():
    assert textual_form(iri("http://ex.org/resource/Tim_Berners-Lee")) == "Tim_Berners-Lee"


def test_hash_preferred_over_slash():
    assert textual_form(iri("http://ex.org/voc#a/b")) == "a/b"


def test_opaque_identifier_used_whole():
    assert textual_form(iri("urn-like-opaque-id".replace("-", ""))) == "urnlikeopaqueid"


def test_blank_node_uses_label_when_present():
    assert textual_form(Resource(NodeKind.BLANK, "b0", "some node")) == "some node"


def test_labeled_literal_ignores_label_slot():
    # literals always speak for themselves
    assert textual_form(Resource(NodeKind.LITERAL, "1998", None)) == "1998"


# --------------------------------------------------------------------------
# tokenization
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text, expected",
    [
        ("birthPlace", ["birth", "place"]),
        ("Tim Berners-Lee", ["tim", "berners", "lee"]),
        ("", []),
        ("activeYears", ["active", "years"]),
        ("Golden Note Prize", ["golden", "note", "prize"]),
        ("1998", ["1998"]),
        ("a-b_c.d", ["a", "b", "c", "d"]),
        ("---", []),
        ("Tim_Berners-Lee", ["tim", "berners", "lee"]),
        ("HTTPServer", ["httpserver"]),
        ("releaseYear", ["release", "year"]),
        ("  spaced   out  ", ["spaced", "out"]),
    ],
)
def test_tokenize(text, expected):
    assert tokenize(text) == expected


def test_resource_tokens_compose_form_and_split():
    assert resource_tokens(iri("http://ex.org/voc#birthPlace")) == ["birth", "place"]
    assert resource_tokens(iri("http://ex.org/x", "Golden Note Prize")) == [
        "golden",
        "note",
        "prize",
    ]


# --------------------------------------------------------------------------
# mean-of-word embedding
# --------------------------------------------------------------------------

def make_store(dim, **vectors):
    return EmbeddingStore(dim, {w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()})


def test_mean_over_known_tokens_only():
    store = make_store(2, birth=[1.0, 0.0], place=[0.0, 1.0])
    emb = embed_resource(iri("http://ex.org/voc#birthPlace"), store)
    assert emb.vector.tolist() == [0.5, 0.5]
    assert (emb.covered, emb.total) == (2, 2)


def test_unknown_tokens_do_not_enter_denominator():
    store = make_store(2, birth=[1.0, 0.0])
    emb = embed_resource(iri("http://ex.org/voc#birthPlace"), store)
    # one covered word of two, mean over the covered one only
    assert emb.vector.tolist() == [1.0, 0.0]
    assert (emb.covered, emb.total) == (1, 2)


def test_all_unknown_embeds_to_zero():
    store = make_store(3, other=[1.0, 1.0, 1.0])
    emb = embed_resource(lit("xyzzy"), store)
    assert emb.vector.tolist() == [0.0, 0.0, 0.0]
    assert (emb.covered, emb.total) == (0, 1)


def test_empty_token_list_embeds_to_zero():
    store = make_store(2, a=[1.0, 1.0])
    emb = embed_resource(lit("---"), store)
    assert emb.vector.tolist() == [0.0, 0.0]
    assert (emb.covered, emb.total) == (0, 0)


def test_toy_store_mean_recomputed(toy_store):
    emb = embed_resource(lit("Golden Note Prize"), toy_store)
    expected = (
        toy_store.vectors["golden"] + toy_store.vectors["note"] + toy_store.vectors["prize"]
    ) / 3
    assert emb.vector.tolist() == expected.tolist()
    assert (emb.covered, emb.total) == (3, 3)


def test_accumulation_order_is_token_order():
    # fixed order makes the mean reproducible bit for bit
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(7)]
    store = EmbeddingStore(4, {w: rng.normal(size=4) for w in words})
    text = " ".join(words)
    acc = np.zeros(4)
    for w in words:
        acc += store.vectors[w]
    acc /= len(words)
    emb = embed_resource(lit(text), store)
    assert emb.vector.tolist() == acc.tolist()


# --------------------------------------------------------------------------
# vector file loading
# --------------------------------------------------------------------------

def write_vec(tmp_path, text, name="vecs.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_with_header(tmp_path):
    path = write_vec(tmp_path, "2 3\ncat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n")
    store = load_vec_file(path)
    assert store.dim == 3
    assert len(store) == 2
    assert store.vectors["cat"].tolist() == [1.0, 2.0, 3.0]


def test_load_without_header(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\ndog 3.0 4.0\n")
    store = load_vec_file(path)
    assert store.dim == 2
    assert len(store) == 2


def test_case_folded_first_occurrence_wins(tmp_path):
    path = write_vec(tmp_path, "Cat 1.0\ncat 2.0\nCAT 3.0\n")
    store = load_vec_file(path)
    assert len(store) == 1
    assert store.vectors["cat"].tolist() == [1.0]


def test_dim_mismatch_reports_line(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\ndog 3.0\n")
    with pytest.raises(DimMismatch) as err:
        load_vec_file(path)
    assert "line 2" in str(err.value)


def test_header_dim_binds_later_lines(tmp_path):
    path = write_vec(tmp_path, "1 3\ncat 1.0 2.0\n")
    with pytest.raises(DimMismatch):
        load_vec_file(path)


def test_non_numeric_component_rejected(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 oops\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_component_rejected(tmp_path, bad):
    path = write_vec(tmp_path, f"2 2\ncat 1.0 2.0\ndog 3.0 {bad}\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path)
    assert "line 3" in str(err.value)
    assert "non-finite" in str(err.value)


def test_word_without_components_rejected(tmp_path):
    path = write_vec(tmp_path, "cat 1.0\nlonely\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path)
    assert "line 2" in str(err.value)


def test_empty_file_rejected(tmp_path):
    path = write_vec(tmp_path, "")
    with pytest.raises(ParseError):
        load_vec_file(path)


def test_blank_lines_skipped(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\n\ndog 3.0 4.0\n")
    store = load_vec_file(path)
    assert len(store) == 2


def test_vocab_filter_restricts_loading(tmp_path):
    path = write_vec(tmp_path, "3 2\ncat 1.0 2.0\ndog 3.0 4.0\neel 5.0 6.0\n")
    store = load_vec_file(path, vocab={"cat", "eel"})
    assert sorted(store.vectors) == ["cat", "eel"]
    assert store.dim == 2


def test_vocab_filter_folds_case(tmp_path):
    path = write_vec(tmp_path, "Cat 1.0 2.0\ndog 3.0 4.0\n")
    store = load_vec_file(path, vocab={"cat"})
    assert sorted(store.vectors) == ["cat"]


def test_large_dim_file_loads(tmp_path):
    # realistic 300-dimensional rows
    rng = np.random.default_rng(11)
    rows = []
    for i in range(5):
        vals = " ".join(repr(float(v)) for v in rng.normal(size=300))
        rows.append(f"w{i} {vals}")
    path = write_vec(tmp_path, "5 300\n" + "\n".join(rows) + "\n")
    store = load_vec_file(path)
    assert store.dim == 300
    assert len(store) == 5


def test_toy_store_contents(toy_store):
    assert toy_store.dim == 4
    # 42 lines fold to 41 words: the duplicated one keeps its first vector
    assert len(toy_store) == 41
    assert "golden" in toy_store
    assert "unused" in toy_store
    assert toy_store.vectors["type"].tolist() == [0.45, 0.13, 0.19, 0.4]


def test_toy_duplicate_first_wins(toy_store):
    first = None
    for line in (TOYMUSIC / "toy.vec").read_text(encoding="utf-8").splitlines():
        if line.startswith("note "):
            first = [float(v) for v in line.split()[1:]]
            break
    assert toy_store.vectors["note"].tolist() == first


# --------------------------------------------------------------------------
# saving
# --------------------------------------------------------------------------

def test_save_load_round_trip_exact(tmp_path):
    store = make_store(
        3,
        a=[0.1, 1.0 / 3.0, 1e-17],
        b=[-0.0, 2.5, -1234.5678],
    )
    path = tmp_path / "out.vec"
    save_vec_file(store, path)
    back = load_vec_file(path)
    assert back.dim == 3
    assert sorted(back.vectors) == ["a", "b"]
    for w in store.vectors:
        assert back.vectors[w].tolist() == store.vectors[w].tolist()


def test_save_writes_header_and_sorted_words(tmp_path):
    store = make_store(1, b=[1.0], a=[2.0])
    path = tmp_path / "out.vec"
    save_vec_file(store, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "2 1"
    assert lines[1].startswith("a ")
    assert lines[2].startswith("b ")


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    store = EmbeddingStore(5, {f"w{i}": rng.normal(size=5) for i in range(20)})
    p1, p2 = tmp_path / "one.vec", tmp_path / "two.vec"
    save_vec_file(store, p1)
    save_vec_file(store, p2)
    assert p1.read_bytes() == p2.read_bytes()


# --------------------------------------------------------------------------
# vocabulary and coverage
# --------------------------------------------------------------------------

def test_manifest_vocabulary_exact(toy_manifest):
    assert manifest_vocabulary(toy_manifest) == {
        "1998", "2005", "active", "album", "aria", "artist", "award", "band",
        "birth", "blue", "city", "director", "drama", "english", "fest",
        "film", "genre", "golden", "harbor", "home", "instrument", "jazz",
        "kay", "label", "language", "member", "moon", "night", "note",
        "piano", "place", "prize", "release", "river", "singer", "stone",
        "storm", "town", "type", "winner", "year", "years",
    }


def test_vocabulary_excludes_non_candidate_statements(toy_manifest):
    # the label-only statements contribute labels, not vocabulary of their own
    vocab = manifest_vocabulary(toy_manifest)
    assert "unused" not in vocab


def test_coverage_warnings_toymusic(toy_manifest, toy_store):
    warnings = coverage_warnings(toy_manifest, toy_store)
    assert warnings == [
        "all tokens unknown for literal '2005' (textual form '2005')",
        "all tokens unknown for literal 'english' (textual form 'english')",
    ]


def test_coverage_warnings_empty_when_covered(toy_manifest, toy_store):
    patched = EmbeddingStore(
        toy_store.dim,
        dict(toy_store.vectors,
             **{"2005": np.zeros(4) + 0.1, "english": np.zeros(4) + 0.2}),
    )
    assert coverage_warnings(toy_manifest, patched) == []


def test_coverage_deduplicates_resources(toy_manifest):
    # empty store: every distinct resource warns exactly once
    empty = EmbeddingStore(4, {})
    warnings = coverage_warnings(toy_manifest, empty)
    assert len(warnings) == len(set(warnings))
    mentioned = [w for w in warnings if "Harbor_City" in w]
    # Harbor_City appears as the value of two different triples
    assert len(mentioned) == 1
