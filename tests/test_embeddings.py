"""Textual forms, tokenization, vector files, mean-of-word embeddings."""

import json
import os
import random
import re
import struct
import threading
import warnings

import numpy as np
import pytest

from entsum import embeddings
from entsum.dataset import (
    DatasetManifest,
    EntityDescription,
    NodeKind,
    Resource,
    Triple,
    parse_description,
)
from entsum.embeddings import (
    EmbeddingStore,
    coverage_warnings,
    embed_resource,
    load_vec_file,
    manifest_vocabulary,
    save_vec_file,
    textual_form,
    tokenize,
)
from entsum.errors import DataError, ParseError

from conftest import BRACE_TEXTS, TOYMUSIC, store_of, vectors_of


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


def reference_tokenize(s):
    """The two-pattern tokenizer that ``tokenize``'s single split replaced."""
    tokens = []
    for chunk in re.split(r"[^0-9A-Za-z]+", s):
        if not chunk:
            continue
        for part in re.split(r"(?<=[a-z])(?=[A-Z])", chunk):
            tokens.append(part.lower())
    return tokens


# ASCII letters and digits, separators, letters whose case mapping leaves
# ASCII ("\u0130" lowercases to "i" and a combining dot, the Kelvin sign to
# "k"), a titlecase letter, and a letter and digit outside ASCII
TOKEN_ALPHABET = ["a", "z", "q", "A", "Z", "Q", "0", "9", " ", "-", "_", ".", "/", "#", "\t",
                  "\n", "\u00e9", "\u00c9", "\u0130", "\u01c4", "\u01c5", "\u212a", "\u0662",
                  "\u00df", "\u3000"]


def test_tokenize_matches_the_two_pattern_reference_on_random_strings():
    rng = random.Random(2024)
    for _ in range(100_000):
        s = "".join(rng.choices(TOKEN_ALPHABET, k=rng.randrange(13)))
        assert tokenize(s) == reference_tokenize(s), s


def test_resource_tokens_compose_form_and_split():
    # the tokens embed_resource looks up
    assert tokenize(textual_form(iri("http://ex.org/voc#birthPlace"))) == ["birth", "place"]
    assert tokenize(textual_form(iri("http://ex.org/x", "Golden Note Prize"))) == [
        "golden",
        "note",
        "prize",
    ]


# --------------------------------------------------------------------------
# mean-of-word embedding
# --------------------------------------------------------------------------

def test_mean_over_known_tokens_only():
    store = store_of({"birth": [1.0, 0.0], "place": [0.0, 1.0]}, 2)
    vec = embed_resource(iri("http://ex.org/voc#birthPlace"), store)
    assert vec.tolist() == [0.5, 0.5]


def test_unknown_tokens_do_not_enter_denominator():
    store = store_of({"birth": [1.0, 0.0]}, 2)
    vec = embed_resource(iri("http://ex.org/voc#birthPlace"), store)
    # one covered word of two, mean over the covered one only
    assert vec.tolist() == [1.0, 0.0]


def test_all_unknown_embeds_to_zero():
    store = store_of({"other": [1.0, 1.0, 1.0]}, 3)
    vec = embed_resource(lit("xyzzy"), store)
    assert vec.tolist() == [0.0, 0.0, 0.0]


def test_empty_token_list_embeds_to_zero():
    store = store_of({"a": [1.0, 1.0]}, 2)
    vec = embed_resource(lit("---"), store)
    assert vec.tolist() == [0.0, 0.0]


def test_toy_store_mean_recomputed(toy_store):
    vec = embed_resource(lit("Golden Note Prize"), toy_store)
    vectors = vectors_of(toy_store)
    expected = (vectors["golden"] + vectors["note"] + vectors["prize"]) / 3
    assert vec.tolist() == expected.tolist()


def test_accumulation_order_is_token_order():
    # fixed order makes the mean reproducible bit for bit
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(7)]
    store = store_of({w: rng.normal(size=4) for w in words}, 4)
    text = " ".join(words)
    acc = np.zeros(4)
    for w in words:
        acc += store.matrix[store.index[w]]
    acc /= len(words)
    vec = embed_resource(lit(text), store)
    assert vec.tolist() == acc.tolist()


# --------------------------------------------------------------------------
# vector file loading
# --------------------------------------------------------------------------

def write_vec(tmp_path, text, name="vecs.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_with_header(tmp_path):
    path = write_vec(tmp_path, "2 3\ncat 1.0 2.0 3.0\ndog 4.0 5.0 6.0\n")
    store = load_vec_file(path, {"cat", "dog"})
    assert store.dim == 3
    assert len(store) == 2
    assert store.matrix[store.index["cat"]].tolist() == [1.0, 2.0, 3.0]


def test_load_without_header(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\ndog 3.0 4.0\n")
    store = load_vec_file(path, {"cat", "dog"})
    assert store.dim == 2
    assert len(store) == 2


def test_case_folded_first_occurrence_wins(tmp_path):
    path = write_vec(tmp_path, "Cat 1.0\ncat 2.0\nCAT 3.0\n")
    store = load_vec_file(path, {"cat"})
    assert len(store) == 1
    assert store.matrix[store.index["cat"]].tolist() == [1.0]


def test_dim_mismatch_reports_line(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\ndog 3.0\n")
    with pytest.raises(ParseError, match="expected 2 vector components, got 1") as err:
        load_vec_file(path, {"cat", "dog"})
    assert str(err.value) == f"{path}: unparseable line 2: expected 2 vector components, got 1"
    assert err.value.line_no == 2


def test_header_dim_binds_later_lines(tmp_path):
    path = write_vec(tmp_path, "1 3\ncat 1.0 2.0\n")
    with pytest.raises(ParseError, match="line 2: expected 3 vector components, got 2"):
        load_vec_file(path, {"cat"})


def test_non_numeric_component_rejected(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 oops\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path, {"cat"})
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_separator_numpy_strips_and_float_refuses_is_non_numeric(tmp_path, sep):
    # numpy's reader would read "4\x1c" as 4.0; float refuses it
    path = write_vec(tmp_path, f"2 2\ncat 1.0 2.0\ndog 3.0 4{sep}\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path, {"cat", "dog"})
    assert "line 3" in str(err.value)
    assert "non-numeric" in str(err.value)


def test_loader_lets_no_numpy_warning_escape(tmp_path):
    # numpy's reader takes a lone "\r" for an empty line and warns that the
    # block has no data; float refuses the component
    path = write_vec(tmp_path, "2 1\ncat \r\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as err:
            load_vec_file(path, {"cat"})
    assert caught == []
    assert "line 2" in str(err.value)
    assert "non-numeric" in str(err.value)


def test_block_read_into_another_shape_goes_through_float(tmp_path, monkeypatch):
    # without max_rows numpy drops a row it reads as empty and says nothing;
    # a block of the wrong shape must not shift vectors between words
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[1:])
    store = load_vec_file(write_vec(tmp_path, "cat 1.0 2.0\ndog 3.0 4.0\n"), {"cat", "dog"})
    assert {w: v.tolist() for w, v in vectors_of(store).items()} == {"cat": [1.0, 2.0], "dog": [3.0, 4.0]}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_component_rejected(tmp_path, bad):
    path = write_vec(tmp_path, f"2 2\ncat 1.0 2.0\ndog 3.0 {bad}\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path, {"cat", "dog"})
    assert "line 3" in str(err.value)
    assert "non-finite" in str(err.value)


def test_word_without_components_rejected(tmp_path):
    path = write_vec(tmp_path, "cat 1.0\nlonely\n")
    with pytest.raises(ParseError) as err:
        load_vec_file(path, {"cat", "lonely"})
    assert "line 2" in str(err.value)


def test_empty_file_rejected(tmp_path):
    path = write_vec(tmp_path, "")
    with pytest.raises(ParseError):
        load_vec_file(path, {"cat"})


def test_blank_lines_skipped(tmp_path):
    path = write_vec(tmp_path, "cat 1.0 2.0\n\n \n  \ndog 3.0 4.0\n")
    store = load_vec_file(path, {"cat", "dog"})
    assert len(store) == 2


def test_vocab_filter_restricts_loading(tmp_path):
    path = write_vec(tmp_path, "3 2\ncat 1.0 2.0\ndog 3.0 4.0\neel 5.0 6.0\n")
    store = load_vec_file(path, vocab={"cat", "eel"})
    assert sorted(store.words) == ["cat", "eel"]
    assert store.dim == 2


def test_vocab_filter_folds_case(tmp_path):
    path = write_vec(tmp_path, "Cat 1.0 2.0\ndog 3.0 4.0\n")
    store = load_vec_file(path, vocab={"cat"})
    assert sorted(store.words) == ["cat"]


def test_large_dim_file_loads(tmp_path):
    # realistic 300-dimensional rows
    rng = np.random.default_rng(11)
    rows = []
    for i in range(5):
        vals = " ".join(repr(float(v)) for v in rng.normal(size=300))
        rows.append(f"w{i} {vals}")
    path = write_vec(tmp_path, "5 300\n" + "\n".join(rows) + "\n")
    store = load_vec_file(path, {f"w{i}" for i in range(5)})
    assert store.dim == 300
    assert len(store) == 5


def test_toy_store_contents(toy_store):
    assert toy_store.dim == 4
    # 42 lines fold to 41 words, the duplicated one keeping its first vector;
    # the manifest's vocabulary keeps 40 of them and drops "unused"
    assert len(toy_store) == 40
    assert "golden" in toy_store.index
    assert "unused" not in toy_store.index
    assert toy_store.matrix[toy_store.index["type"]].tolist() == [0.45, 0.13, 0.19, 0.4]


def test_toy_duplicate_first_wins(toy_store):
    first = None
    for line in (TOYMUSIC / "toy.vec").read_text(encoding="utf-8").splitlines():
        if line.startswith("note "):
            first = [float(v) for v in line.split()[1:]]
            break
    assert toy_store.matrix[toy_store.index["note"]].tolist() == first


def reference_load_vec_file(path, vocab):
    """The loader as it was before lines were counted without splitting:
    every line is split and filtered, every kept component goes through
    ``float``.  The differential test holds ``load_vec_file`` to it."""
    vectors = {}
    dim = None
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = [p for p in line.rstrip("\n").split(" ") if p]
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    dim = int(parts[1])
                    if dim < 1:
                        raise ParseError(1, f"header dim {dim} is below 1")
                    continue
            word, values = parts[0], parts[1:]
            if not values:
                raise ParseError(line_no, "no vector components")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ParseError(line_no, f"expected {dim} vector components, got {len(values)}")
            word = word.lower()
            if word not in vocab:
                continue
            if word in vectors:
                continue
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise ParseError(line_no, "non-numeric vector component")
            if not np.isfinite(vec).all():
                raise ParseError(line_no, "non-finite vector component")
            vectors[word] = vec
    if dim is None:
        raise ParseError(1, "empty vector file")
    return store_of(vectors, dim)


VEC_WORDS = ["cat", "Cat", "CAT", "dog", "Dog", "eel", "naïve", "NAÏVE", "x_y", "1998"]
VEC_GOOD = ["1.0", "-0.5", "0.1", "2", "-0.0", "1e-400", "3.25e2", "+7", "1_0", ".5"]
VEC_ODD = ["nan", "inf", "-inf", "1e999", "oops", "1__0", "0x10", "\t2", "3\t", "\ufffd", "١٢", "5\x1f"]
VEC_NEAR_HEADERS = ["2 3", "1_0 3", "+2 3", "2 3 4", "2 x", "2", " 2  3 ", "2 3.0", "0 0", "2\t3",
                    "2 ٣"]


def random_vec_text(rng):
    """A small vector file that is mostly well formed, with headers and
    near-headers, blank and space-only lines, irregular spacing, tabs,
    CRLF endings, odd components and wrong field counts mixed in."""
    dim = rng.randint(1, 4)
    noise = rng.choice([0.0, 0.03, 0.15, 0.4])
    lines = []
    if rng.random() < 0.6:
        lines.append(rng.choice(VEC_NEAR_HEADERS) if rng.random() < noise * 2 else f"5 {dim}")
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < noise / 4:
            lines.append(rng.choice(["", " ", "   ", "\r", " \r", "\t"]))
            continue
        n = dim + rng.choice([-1, 1, -dim]) if r < noise / 2 else dim
        fields = [rng.choice(VEC_WORDS)]
        fields += [rng.choice(VEC_ODD if rng.random() < noise / 3 else VEC_GOOD)
                   for _ in range(n)]
        seps = [" "] * 6 + (["  ", "   ", "\t"] if r < noise else [])
        line = "".join(f + rng.choice(seps) for f in fields)[:-1]
        if rng.random() < noise:
            line = rng.choice([" ", "  "]) + line
        if rng.random() < noise:
            line += rng.choice([" ", "  ", "\t"])
        lines.append(line)
    ending = "\r\n" if rng.random() < noise else "\n"
    return "".join(line + ending for line in lines)


# inserted into a file as bytes: invalid UTF-8, a BOM, the Kelvin sign
# (which lowercases to "k"), U+0085, U+2028, NUL and a CRLF ending
VEC_BYTES = [b"\xff", b"\xe2\x82", b"\xef\xbb\xbf", "\u212a".encode(), "\u0085".encode(),
             "\u2028".encode(), b"\x00", b"\r\n"]


def mutate_bytes(rng, data):
    """``data`` with a few of ``VEC_BYTES`` inserted at random offsets, which
    may fall inside a multi-byte character."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(data))
        data = data[:i] + rng.choice(VEC_BYTES) + data[i:]
    return data


def load_outcome(loader, path, vocab):
    try:
        store = loader(path, vocab)
    except ParseError as exc:
        # load_vec_file's message starts with the path; the reference's does not
        return ("error", type(exc), exc.line_no, str(exc).removeprefix(f"{path}: ")), None
    items = [(w, v.dtype, v.shape, v.flags.c_contiguous, v.tobytes())
             for w, v in vectors_of(store).items()]
    return ("store", store.dim, items), store


def long_vec_text(rng, parse_block):
    """A 300-d file whose kept lines fill more than two blocks of
    ``parse_block``: a header, 4-decimal components, a ``1_0`` component
    and a CRLF line in the second block, a CRLF line in the third, a
    recased word that repeats one of the first block, and every other LF
    line ending in a space, as fastText writes them."""
    n = 2 * parse_block + 17
    values = np.round(rng.normal(size=(n, 300)), 4).astype(str)
    values[parse_block + 5, 123] = "1_0"
    lines = [f"w{i} " + " ".join(row) for i, row in enumerate(values)]
    lines[parse_block + 1] = "W3" + lines[parse_block + 1][len(f"w{parse_block + 1}"):]
    ends = [" \n", "\n"] * (n // 2) + ["\n"]
    ends[parse_block + 9] = ends[2 * parse_block + 3] = "\r\n"
    return f"{n} 300\n" + "".join(line + end for line, end in zip(lines, ends))


def test_loader_matches_reference_on_random_files(tmp_path, monkeypatch):
    # the same store bit for bit, or the same error type, line and message,
    # under every word of VEC_WORDS and under a random draw of them, at
    # several parse block and scan read sizes, the small reads splitting
    # lines; a third of the files carry bytes inserted by mutate_bytes;
    # saved stores load back the same
    rng = random.Random(20240518)
    path, out = tmp_path / "fuzz.vec", tmp_path / "out.vec"
    block_sizes = list(zip((embeddings.PARSE_BLOCK, 1, 2, 3), (embeddings.SCAN_BLOCK, 1, 3, 7)))
    seen = set()
    for _ in range(2000):
        data = random_vec_text(rng).encode("utf-8")
        path.write_bytes(mutate_bytes(rng, data) if rng.random() < 1 / 3 else data)
        folded = sorted({w.lower() for w in VEC_WORDS})
        for vocab in (set(folded), set(rng.sample(folded, rng.randint(0, len(folded))))):
            expected, _ = load_outcome(reference_load_vec_file, path, vocab)
            for parse_block, scan_block in block_sizes:
                monkeypatch.setattr(embeddings, "PARSE_BLOCK", parse_block)
                monkeypatch.setattr(embeddings, "SCAN_BLOCK", scan_block)
                got, store = load_outcome(load_vec_file, path, vocab)
                assert got == expected, (parse_block, scan_block, path.read_bytes())
            seen.add("store" if store is not None else got[3].split(": ", 1)[1])
            if store is not None:
                save_vec_file(store, out)
                assert load_outcome(load_vec_file, out, set(store.words))[0] == \
                    ("store", store.dim, sorted(got[2]))
    # every outcome the loader has occurred at least once
    assert seen >= {
        "store", "empty vector file", "no vector components",
        "non-numeric vector component", "non-finite vector component",
    }
    assert any(s.startswith("expected") for s in seen)  # a line of the wrong width
    # a realistic file of several blocks, with lines numpy refuses or reads
    # differently from a plain line
    long_rng = np.random.default_rng(20261018)
    for parse_block, scan_block in block_sizes:
        monkeypatch.setattr(embeddings, "PARSE_BLOCK", parse_block)
        monkeypatch.setattr(embeddings, "SCAN_BLOCK", scan_block)
        path.write_bytes(long_vec_text(long_rng, parse_block).encode("utf-8"))
        words = [f"w{i}" for i in range(2 * parse_block + 17)]
        for vocab in ({w for i, w in enumerate(words) if i % 3 != 1}, set(words)):
            expected, _ = load_outcome(reference_load_vec_file, path, vocab)
            got, store = load_outcome(load_vec_file, path, vocab)
            assert got == expected and len(store) > parse_block
        assert store.matrix[store.index[f"w{parse_block + 5}"], 123] == 10.0  # "1_0", every word


# lines placed after a scan block of out-of-vocabulary lines, where the scan
# settles lines from their bytes; the vocabulary to load them with; and the
# store, or the index in the lines of the line whose error is raised
FILTER_EDGES = {
    # U+212A lowercases to "k" as str but has no ASCII lowercasing as bytes
    "kelvin-sign-first": (["\u212a 1 2", "k 3 4", "cat 5 6"], {"k", "cat"},
                          {"k": [1, 2], "cat": [5, 6]}),
    "vocabulary-word-not-ascii": (["NA\u00cfVE 1 2", "na\u00efve 3 4", "cat 5 6"],
                                  {"na\u00efve", "cat"}, {"na\u00efve": [1, 2], "cat": [5, 6]}),
    "dropped-line-of-wrong-width": (["cat 1 2", "pad 1 2 3", "dog 3 4"], {"cat", "dog"}, 1),
    # as many spaces as the width, but two in a row: one component
    "dropped-line-with-doubled-space": (["cat 1 2", "pad  1", "dog 3 4"], {"cat", "dog"}, 1),
    "spaces-around-and-doubled": ([" pad 1 2", "pad  1 2", " CAT 1 2", "  dog 3 4",
                                   "eel  5 6 ", "cat 7 8"], {"cat", "dog", "eel"},
                                  {"cat": [1, 2], "dog": [3, 4], "eel": [5, 6]}),
}


def padded_vec_text(lines, scan_block):
    """A 2-d file with a header and enough out-of-vocabulary lines to fill
    the first scan block of ``scan_block`` bytes, then ``lines``."""
    pad = [f"pad{i:05d} 0.5 -0.25" for i in range(scan_block // 20 + 2)]
    return "".join(f"{line}\n" for line in [f"{len(pad) + len(lines)} 2", *pad, *lines])


@pytest.mark.parametrize("edge", sorted(FILTER_EDGES))
def test_scan_filter_edges_match_reference(tmp_path, monkeypatch, edge):
    lines, vocab, outcome = FILTER_EDGES[edge]
    path = tmp_path / "edge.vec"
    for scan_block in (1, 3, 7, embeddings.SCAN_BLOCK):
        monkeypatch.setattr(embeddings, "SCAN_BLOCK", scan_block)
        text = padded_vec_text(lines, scan_block)
        path.write_text(text, encoding="utf-8")
        expected, _ = load_outcome(reference_load_vec_file, path, vocab)
        got, store = load_outcome(load_vec_file, path, vocab)
        assert got == expected, scan_block
        if isinstance(outcome, int):
            assert got[2] == text.count("\n") - len(lines) + outcome + 1
        else:
            assert {w: v.tolist() for w, v in vectors_of(store).items()} == outcome


def test_scan_filter_is_off_under_a_zero_width_header(tmp_path, monkeypatch):
    # a header width below 1 is refused at line 1, before any later line
    # reaches the scan filter, however many spaces it holds
    path = tmp_path / "zero.vec"
    for width in ("0", "-1"):
        path.write_bytes(f"3 {width}\npad\ncat\n".encode())
        for scan_block in (1, 3, 7, embeddings.SCAN_BLOCK):
            monkeypatch.setattr(embeddings, "SCAN_BLOCK", scan_block)
            for vocab in ({"cat"}, {"cat", "pad"}):
                expected, _ = load_outcome(reference_load_vec_file, path, vocab)
                assert expected == ("error", ParseError, 1,
                                    f"unparseable line 1: header dim {width} is below 1")
                assert load_outcome(load_vec_file, path, vocab)[0] == expected, scan_block


NUMERIC_PIECES = list("0123456789.eE+-_,#x") + [
    "\t", "\r", "\x0b", "\x0c", "\x00", "\x1c", "\x1f", "\xa0", "\x85", "\u3000", "\ufeff",
    "١", "٢", "０", "inf", "nan", "infinity", "0x", "1e308", "00000000000000000001",
]


def random_numeric_field(rng):
    """A field that is often a number: a full-precision or long-digit
    value, or a few pieces from ``NUMERIC_PIECES``."""
    r = rng.random()
    if r < 0.2:
        return repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308))
    if r < 0.3:
        return rng.choice(["", "-"]) + "0." + "".join(rng.choice("0123456789") for _ in range(40))
    return "".join(rng.choice(NUMERIC_PIECES) for _ in range(rng.randint(1, 6)))


def test_numpy_reader_accepts_only_what_float_reads_the_same():
    # the premise of the block parser: whatever np.loadtxt reads as a field,
    # float reads to the same bits, except the separators the loader keeps
    # from numpy (each ASCII character is tried around a digit)
    rng = random.Random(20261018)
    fields = VEC_GOOD + VEC_ODD + [f for c in map(chr, range(128))
                                   for f in (c + "3", "3" + c, "3" + c + "5", "3." + c)]
    fields += [random_numeric_field(rng) for _ in range(4000)]
    accepted = 0
    for field in fields:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt([field], dtype=np.float64, delimiter=" ", comments=None,
                                  ndmin=2, max_rows=1)
        except (ValueError, Warning):
            continue
        if rows.shape != (1, 1) or any(c in field for c in embeddings._NUMPY_ONLY_SPACE):
            continue
        try:
            value = float(field)
        except ValueError:
            pytest.fail(f"np.loadtxt reads {field!r}, float refuses it")
        assert rows[0, 0].tobytes() == struct.pack("=d", value), field
        accepted += 1
    assert accepted > 1000


# --------------------------------------------------------------------------
# saving
# --------------------------------------------------------------------------

def test_save_load_round_trip_exact(tmp_path):
    store = store_of({"a": [0.1, 1.0 / 3.0, 1e-17], "b": [-0.0, 2.5, -1234.5678]}, 3)
    path = tmp_path / "out.vec"
    save_vec_file(store, path)
    back = load_vec_file(path, {"a", "b"})
    assert back.dim == 3
    assert sorted(back.words) == ["a", "b"]
    for w, v in vectors_of(store).items():
        assert back.matrix[back.index[w]].tolist() == v.tolist()


def test_save_writes_header_and_sorted_words(tmp_path):
    store = store_of({"b": [1.0, -0.0], "a": [2.0, 0.5]}, 2)
    path = tmp_path / "out.vec"
    save_vec_file(store, path)
    assert path.read_bytes() == (
        b'{"dim":2,"format":"entsum-vectors","version":1,"words":["a","b"]}\n'
        + struct.pack("<4d", 2.0, 0.5, 1.0, -0.0))


# float64 in the byte order this machine does not use
SWAPPED = np.dtype(np.float64).newbyteorder()


def test_a_store_refuses_every_dtype_but_float64():
    # refused by name, not converted: both loaders build float64 rows
    for matrix, dtype in [
        (np.array([[0.1, -2.5]], dtype=np.float32), "float32"),
        (np.array([[1, -2]]), "int64"),
        ([[0.1, 2, "1.5"]], "<U32"),
        (np.array([[0.1, 2]], dtype=object), "object"),
        (np.array([[1.0, 2.0]], dtype=SWAPPED), str(SWAPPED)),
        (np.array([[True, False]]), "bool"),
    ]:
        with pytest.raises(DataError) as err:
            EmbeddingStore(["a"], matrix)
        assert str(err.value) == f"vector components of dtype {dtype!r}, not float64"


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    store = store_of({f"w{i}": rng.normal(size=5) for i in range(20)}, 5)
    p1, p2 = tmp_path / "one.vec", tmp_path / "two.vec"
    save_vec_file(store, p1)
    save_vec_file(store, p2)
    assert p1.read_bytes() == p2.read_bytes()


# each case names the first bad word, or the dtype that no store takes
@pytest.mark.parametrize("build, named", [
    (lambda: store_of({"a": [1.0, 2.0], "b": [np.nan, 1.0, 2.0]}, 3), "a"),
    (lambda: store_of({"a": [1.0, 2.0, 3.0], "b": [np.nan, 1.0, 2.0]}, 3), "b"),
    (lambda: store_of({"a": [1.0, 2.0], "b": np.array([1.0, np.inf])}, 2), "b"),
    (lambda: store_of({"f32": np.array([-np.inf], dtype=np.float32)}, 1), "float32"),
    (lambda: store_of({"a": np.ones((1, 2))}, 2), "a"),
    (lambda: store_of({"a": np.float64(1.0)}, 1), "a"),
    (lambda: store_of({"a": np.zeros(0)}, 0), "a"),
    (lambda: store_of({"big": np.array([10 ** 400], dtype=object)}, 1), "object"),
    (lambda: store_of({"a": [1.0], "x": np.array(["x"], dtype=object)}, 1), "object"),
    (lambda: store_of({"": [1.0], "a": [1.0]}, 1), ""),
    (lambda: store_of({"a": [1.0], "b": [np.inf], "c d": [1.0]}, 1), "b"),
    # a matrix of a huge dim and no row for its word allocates nothing
    (lambda: EmbeddingStore(["a"], np.empty((0, 10 ** 12))), "a"),
], ids=["short", "nan", "inf", "float32-inf", "matrix", "scalar", "zero-dim",
        "overflow", "string", "empty-word", "inf-before-space-word", "huge-dim"])
def test_save_refuses_a_store_the_loader_would_reject(tmp_path, build, named):
    # the store is refused where it is built, so no file is written
    with pytest.raises(DataError) as err:
        save_vec_file(build(), tmp_path / "out.vec")
    assert repr(named) in str(err.value)
    assert list(tmp_path.iterdir()) == []  # no target and no temporary file


def test_save_refuses_a_word_the_loader_would_lowercase(tmp_path):
    # "Cat" and "cat" would load back as one word, "Dog" as "dog", and the
    # header would still say three words
    path = tmp_path / "out.vec"
    with pytest.raises(DataError, match="lowercase") as err:
        save_vec_file(store_of({"Cat": [1.0], "cat": [2.0], "Dog": [3.0]}, 1), path)
    assert repr("Cat") in str(err.value)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_a_complex_vector_is_refused_not_cast():
    with pytest.raises(DataError) as err:
        EmbeddingStore(("a",), [[1 + 1j, 2]])
    assert str(err.value) == "vector components of dtype 'complex128', not float64"


def test_a_store_matrix_is_read_only():
    given = np.array([[1.0, 2.0]])
    store = EmbeddingStore(["a"], given)
    assert store.matrix is given and not given.flags.writeable
    listed = EmbeddingStore(["a"], [[1.0, 2.0]])  # Python floats make a float64 array
    assert listed.matrix.dtype == np.float64 and not listed.matrix.flags.writeable


def test_store_keeps_words_a_text_line_could_not_hold(tmp_path):
    # the JSON header escapes a space, a newline and a lone surrogate
    store = store_of({"b c": [1.0], "b\nc": [2.0], "b\ud800": [3.0], "naïve": [4.0]}, 1)
    path = tmp_path / "out.vec"
    save_vec_file(store, path)
    back = load_vec_file(path, set(store.words))
    assert {w: v.tolist() for w, v in vectors_of(back).items()} == \
        {w: v.tolist() for w, v in vectors_of(store).items()}


STORE_WORDS = ["ant", "bee", "cat"]


def store_bytes(**fields):
    """A three-word 2-d store, with ``fields`` put over its header's."""
    header = {"dim": 2, "format": "entsum-vectors", "version": 1, "words": STORE_WORDS, **fields}
    return (json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            + np.arange(6, dtype="<f8").tobytes())


@pytest.mark.parametrize("vocab", [set(STORE_WORDS), {"cat", "ant", "dog"}, set(),
                                   {*STORE_WORDS, "dog"}])
def test_store_loads_one_matrix_and_vocabulary_rows_by_index(tmp_path, vocab):
    path = tmp_path / "store.vec"
    path.write_bytes(store_bytes())
    store = load_vec_file(path, vocab)
    kept = [i for i, w in enumerate(STORE_WORDS) if w in vocab]
    assert store.dim == 2 and store.words == tuple(STORE_WORDS[i] for i in kept)
    assert store.matrix.tolist() == [[2.0 * i, 2.0 * i + 1] for i in kept]
    assert store.matrix.dtype == np.float64 and not store.matrix.flags.writeable
    # every row kept: a view of the bytes read; some dropped: one copy of the kept
    assert store.matrix.flags.owndata == (len(kept) < len(STORE_WORDS))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_store_and_a_text_file_load_the_same_bits_through_a_pipe(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    toy = (TOYMUSIC / "toy.vec").read_bytes()
    vocab = {*STORE_WORDS, *(line.split(b" ")[0].decode().lower() for line in toy.splitlines())}
    for data in (store_bytes(), toy):
        path = tmp_path / "file.vec"
        path.write_bytes(data)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        piped = load_outcome(load_vec_file, fifo, vocab)[0]
        writer.join()
        assert piped == load_outcome(load_vec_file, path, vocab)[0]
        assert piped[0] == "store"


WORDS_RULE = "words must be distinct, non-empty lowercase strings"
BAD_STORES = {
    "version-true": (store_bytes(version=True), "vector store version True, supported 1"),
    "version-2": (store_bytes(version=2), "vector store version 2, supported 1"),
    "dim-true": (store_bytes(dim=True), "dim True is not an integer >= 1"),
    "dim-float": (store_bytes(dim=2.0), "dim 2.0 is not an integer >= 1"),
    "dim-string": (store_bytes(dim="2"), "dim '2' is not an integer >= 1"),
    "dim-zero": (store_bytes(dim=0), "dim 0 is not an integer >= 1"),
    "words-missing": (store_bytes(words=None), "words is not a JSON list"),
    "word-number": (store_bytes(words=["ant", 7, "cat"]), WORDS_RULE),
    "word-empty": (store_bytes(words=["ant", "", "cat"]), WORDS_RULE),
    "word-uppercase": (store_bytes(words=["ant", "Bee", "cat"]), WORDS_RULE),
    "word-duplicate": (store_bytes(words=["ant", "cat", "cat"]), WORDS_RULE),
    "short": (store_bytes()[:-1], "47 vector component bytes, the header needs 48"),
    "long": (store_bytes() + b"\n", "49 vector component bytes, the header needs 48"),
    "nan": (store_bytes().replace(struct.pack("<d", 3.0), struct.pack("<d", np.nan)),
            "non-finite vector component"),
}


@pytest.mark.parametrize("case", sorted(BAD_STORES))
def test_store_reader_refuses_a_bad_store(tmp_path, case):
    data, message = BAD_STORES[case]
    path = tmp_path / "store.vec"
    path.write_bytes(data)
    for vocab in (set(STORE_WORDS), {"ant"}):
        with pytest.raises(DataError) as err:
            load_vec_file(path, vocab)
        assert str(err.value).startswith(f"{path}: {message}"), str(err.value)


# a store's words, a vocabulary that drops the bad one (both copies of a
# repeated word), and the word the refusal names
DROPPED_BAD_WORDS = {
    "uppercase": (["ant", "Bee", "cat"], {"ant", "cat"}, "Bee"),
    "repeated": (["ant", "cat", "cat"], {"ant"}, "cat"),
    "empty": (["ant", "", "cat"], {"ant", "cat"}, ""),
    "number": (["ant", 7, "cat"], {"ant", "cat"}, 7),
}


@pytest.mark.parametrize("case", sorted(DROPPED_BAD_WORDS))
def test_a_store_load_checks_the_words_its_vocabulary_drops(tmp_path, case):
    words, vocab, bad = DROPPED_BAD_WORDS[case]
    path = tmp_path / "store.vec"
    path.write_bytes(store_bytes(words=words))
    with pytest.raises(DataError) as err:
        load_vec_file(path, vocab)
    assert str(err.value) == f"{path}: {WORDS_RULE}: {bad!r}"


@pytest.mark.parametrize("case", sorted(BRACE_TEXTS))
def test_a_file_whose_first_byte_is_a_brace_is_read_as_a_store(tmp_path, case):
    data, message = BRACE_TEXTS[case]
    path = tmp_path / "brace.vec"
    path.write_bytes(data)
    for vocab in (set(), {"{ab", "cd"}):
        with pytest.raises(DataError) as err:
            load_vec_file(path, vocab)
        assert not isinstance(err.value, ParseError)
        assert str(err.value).startswith(f"{path}: {message}"), str(err.value)


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
    patched = store_of(
        dict(vectors_of(toy_store), **{"2005": np.zeros(4) + 0.1, "english": np.zeros(4) + 0.2}),
        toy_store.dim,
    )
    assert coverage_warnings(toy_manifest, patched) == []


def reference_coverage_warnings(manifest, store):
    """Coverage by definition: a textual form warns when the number of its
    tokens that enter the mean vector is zero, once per distinct form, naming
    the first property or value that has it."""
    warnings, seen = [], set()
    for entity in manifest.entities:
        for t in entity.triples:
            for r in (t.prop, t.val):
                if textual_form(r) in seen:
                    continue
                seen.add(textual_form(r))
                covered = sum(tok in store.index for tok in tokenize(textual_form(r)))
                if covered == 0:
                    warnings.append(
                        f"all tokens unknown for {r.kind.value} "
                        f"{r.raw!r} (textual form {textual_form(r)!r})"
                    )
    return warnings


def test_coverage_warnings_match_mean_vector_definition(toy_manifest, toy_store):
    vectors = vectors_of(toy_store)
    thinned = store_of({w: vectors[w] for i, w in enumerate(sorted(vectors)) if i % 5},
                       toy_store.dim)
    warnings = coverage_warnings(toy_manifest, thinned)
    assert len(warnings) > len(coverage_warnings(toy_manifest, toy_store))
    assert warnings == reference_coverage_warnings(toy_manifest, thinned)


def test_coverage_deduplicates_resources(toy_manifest):
    # empty store: every distinct textual form warns exactly once
    empty = store_of({}, 4)
    warnings = coverage_warnings(toy_manifest, empty)
    assert len(warnings) == len(set(warnings))
    mentioned = [w for w in warnings if "Harbor_City" in w]
    # Harbor_City appears as the value of two different triples
    assert len(mentioned) == 1


def test_coverage_checks_an_iri_again_where_it_has_no_label():
    # <Zqxj> is labelled in A's description, so there it embeds from
    # "alice smith"; B's description has no label, so there it embeds from
    # "Zqxj", which the store lacks, and B's triple gets the zero vector
    zqxj = "http://ex.org/Zqxj"
    a, b = "http://ex.org/A", "http://ex.org/B"
    label = "http://www.w3.org/2000/01/rdf-schema#label"
    entities = [
        EntityDescription(Resource(NodeKind.IRI, iri), parse_description(text, iri).triples)
        for iri, text in [
            (a, f'<{a}> <http://ex.org/knows> <{zqxj}> .\n<{zqxj}> <{label}> "alice smith" .'),
            (b, f"<{b}> <http://ex.org/knows> <{zqxj}> ."),
        ]
    ]
    manifest = DatasetManifest("two", tuple(entities), ())
    store = store_of({"knows": [1.0, 0.0], "alice": [0.0, 1.0], "smith": [1.0, 1.0]}, 2)
    assert embed_resource(entities[1].triples[0].val, store).tolist() == [0.0, 0.0]
    assert coverage_warnings(manifest, store) == [
        f"all tokens unknown for iri {zqxj!r} (textual form 'Zqxj')"
    ]
    assert coverage_warnings(manifest, store) == reference_coverage_warnings(manifest, store)


# --------------------------------------------------------------------------
# against the code that tokenized each form per pass
# --------------------------------------------------------------------------

def reference_distinct_forms(manifest):
    resources = dict.fromkeys(r for entity in manifest.entities for t in entity.triples
                              for r in (t.predicate, t.val))
    forms = {}
    for r in resources:
        forms.setdefault(textual_form(r), r)
    return forms


def reference_manifest_vocabulary(manifest):
    vocab = set()
    for form in reference_distinct_forms(manifest):
        vocab.update(tokenize(form))
    return vocab


def reference_form_coverage_warnings(manifest, store):
    warnings = []
    for form, r in reference_distinct_forms(manifest).items():
        if store.index.keys().isdisjoint(tokenize(form)):
            warnings.append(
                f"all tokens unknown for {r.kind.value} {r.raw!r} (textual form {form!r})"
            )
    return warnings


# pieces of textual forms: camel case, digit runs, separators only, and
# characters outside ASCII that lowercase to ASCII or to two characters
FORM_PIECES = ["birthPlace", "HTMLParser", "x2Y", "1998", "--", " ", "_", "é", "İ", "K",
               "Σ", "a", "B", "node", "Harbor_City", "", "42nd", "#", "/"]


def random_resource(rng):
    text = "".join(rng.choice(FORM_PIECES) for _ in range(rng.randrange(1, 4))) or "z"
    kind = rng.choice([NodeKind.IRI, NodeKind.BLANK, NodeKind.LITERAL])
    if kind is NodeKind.LITERAL:
        return Resource(kind, text)
    raw = rng.choice([f"http://ex.org/{rng.choice('ab')}/{text}", f"urn:x#{text}", text])
    return Resource(kind, raw, rng.choice([None, None, text.upper(), "#"]))


def random_manifest(rng, entities):
    pool = [random_resource(rng) for _ in range(40)]
    descs = []
    for e in range(entities):
        subject = Resource(NodeKind.IRI, f"http://ex.org/e{e}")
        triples = tuple(Triple(i, subject, rng.choice(pool), val := rng.choice(pool), val)
                        for i in range(rng.randrange(1, 12)))
        descs.append(EntityDescription(subject, triples))
    return DatasetManifest("random", tuple(descs), ())


def test_vocabulary_and_coverage_match_the_per_form_passes_on_random_manifests():
    rng = random.Random(2501)
    for case in range(60):
        manifest = random_manifest(rng, rng.randrange(0, 6))
        vocab = reference_manifest_vocabulary(manifest)
        assert manifest_vocabulary(manifest) == vocab, case
        words = sorted(vocab)
        stores = [
            words,
            [w for i, w in enumerate(words) if i % 3],
            [],
            rng.sample(words, len(words) // 2) + ["zz"],
        ]
        for store_words in stores:
            store = store_of({w: [1.0] for w in store_words}, 1)
            assert coverage_warnings(manifest, store) == \
                reference_form_coverage_warnings(manifest, store), case


def test_forms_with_no_token_warn_under_every_store():
    entity = Resource(NodeKind.IRI, "http://ex.org/e")
    no_token = [lit("--"), lit("é"), iri("http://ex.org/p/", None), iri("urn:x#_", "İ")]
    triples = tuple(Triple(i, entity, no_token[i], no_token[-1 - i], no_token[-1 - i])
                    for i in range(4))
    manifest = DatasetManifest("none", (EntityDescription(entity, triples),), ())
    assert manifest_vocabulary(manifest) == set()
    for store in (store_of({}, 1), store_of({"p": [1.0]}, 1)):
        assert coverage_warnings(manifest, store) == \
            reference_form_coverage_warnings(manifest, store) != []


def test_a_manifest_tokenizes_its_forms_once():
    manifest = random_manifest(random.Random(11), 4)
    tokens = manifest.form_tokens
    assert manifest.form_tokens is tokens
    assert len(tokens.resources) == len(tokens.counts) == len(reference_distinct_forms(manifest))
    assert sum(tokens.counts) == len(tokens.ids)
    assert [tokens.words[i] for i in tokens.ids] == \
        [w for form in reference_distinct_forms(manifest) for w in tokenize(form)]
