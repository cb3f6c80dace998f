"""Statement parsing, description assembly, gold matching, manifest loading."""

import json
import random

import numpy as np
import pytest

from entsum.dataset import (
    DatasetManifest,
    EntityDescription,
    FoldSpec,
    NodeKind,
    Resource,
    Triple,
    _match_gold_statements,
    load_manifest,
    parse_description,
    parse_statements,
    supervision_label,
    validate_folds,
)
from entsum.errors import (
    DataError,
    EmptyDescription,
    GoldNotSubset,
    GoldTooLarge,
    InvalidFold,
    InvalidManifest,
    MalformedLine,
    MissingFile,
    NoGoldForK,
    UnknownEntity,
)

from conftest import ARIA, BLUE, DATA_DIR, synthetic_entity

E = "http://ex.org/e"


def desc_of(text: str, iri: str = E):
    return parse_description(text, iri)


# --------------------------------------------------------------------------
# statement grammar
# --------------------------------------------------------------------------

def test_parse_single_statement_literal_object():
    triples = parse_description(f'<{E}> <http://ex.org/p> "Tim" .', E).triples
    assert len(triples) == 1
    t = triples[0]
    assert t.prop.raw == "http://ex.org/p"
    assert t.val.kind is NodeKind.LITERAL
    assert t.val.raw == "Tim"


def test_entity_as_object_takes_subject_as_value():
    triples = parse_description(f"<http://ex.org/x> <http://ex.org/p> <{E}> .", E).triples
    assert len(triples) == 1
    assert triples[0].val.raw == "http://ex.org/x"
    assert triples[0].subject.raw == "http://ex.org/x"
    assert triples[0].object.raw == E


def test_self_loop_keeps_object_as_value():
    triples = parse_description(f"<{E}> <http://ex.org/p> <{E}> .", E).triples
    assert len(triples) == 1
    assert triples[0].val.raw == E


def test_blank_node_terms():
    text = f"_:b0 <http://ex.org/p> <{E}> ."
    t = parse_description(text, E).triples[0]
    assert t.subject.kind is NodeKind.BLANK
    assert t.subject.raw == "b0"
    assert t.val.raw == "b0"


def test_language_tag_and_datatype_are_stripped_from_raw():
    text = "\n".join([
        f'<{E}> <http://ex.org/p> "hello"@en .',
        f'<{E}> <http://ex.org/q> "1998"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
    ])
    triples = parse_description(text, E).triples
    assert triples[0].val.raw == "hello"
    assert triples[1].val.raw == "1998"


def test_comments_and_blank_lines_are_skipped():
    text = "\n".join([
        "# leading comment",
        "",
        f'<{E}> <http://ex.org/p> "x" .',
        "   ",
        "# trailing comment",
    ])
    assert len(parse_statements(text)) == 1


def test_escape_sequences_in_literals():
    text = f'<{E}> <http://ex.org/p> "a\\nb\\t\\"c\\"\\\\d\\u0041" .'
    t = parse_description(text, E).triples[0]
    assert t.val.raw == 'a\nb\t"c"\\dA'


@pytest.mark.parametrize(
    "line,fragment",
    [
        (f'<{E}> <http://ex.org/p> "x"', "missing terminating"),
        (f'"lit" <http://ex.org/p> "x" .', "literal in subject"),
        (f'<{E}> _:b "x" .', "predicate must be an IRI"),
        (f'<{E}> <http://ex.org/p> "x" . extra', "trailing content"),
        (f'<{E}> <http://ex.org/p> "" .', "empty literal"),
        (f'<{E}> <http://ex.org/p> "x\\q" .', "unknown escape"),
        (f'<{E}> <http://ex.org/p> "x\\u00" .', "truncated unicode"),
        (f'<{E}> <http://ex.org/p> .', "unexpected character"),
        (f'<{E}>', "statement ended early"),
    ],
)
def test_malformed_statements(line, fragment):
    with pytest.raises(MalformedLine) as err:
        parse_statements(line)
    assert fragment in str(err.value)


def test_malformed_line_number_is_reported():
    text = "\n".join([f'<{E}> <http://ex.org/p> "ok" .', "<broken"])
    with pytest.raises(MalformedLine) as err:
        parse_statements(text)
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def escape_literal(value: str) -> str:
    """N-Triples escaping of a lexical form, the inverse of the parser's."""
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")


def test_literal_escape_round_trip_property():
    rng = np.random.default_rng(42)
    pool = list('ab "\\\n\r\té世') + ["x"]
    for _ in range(60):
        n = int(rng.integers(1, 12))
        s = "".join(pool[int(i)] for i in rng.integers(0, len(pool), size=n))
        line = f'<{E}> <http://ex.org/p> "{escape_literal(s)}" .'
        t = parse_description(line, E).triples[0]
        assert t.val.raw == s


# every character the grammar gives a meaning to, plus a few that it does not
NT_ALPHABET = '<>"\\_:@^.#- \t\n\rabeuUxE09/é'
VALID_LINES = [
    f'<{E}> <http://ex.org/p> "a\\u0041\\tb"@en .',
    f"_:b0 <http://ex.org/p> <{E}> .",
    f'<{E}> <http://ex.org/q> "1998"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
]


def fuzz_inputs(rng: random.Random, count: int):
    """Random strings over the N-Triples alphabet, alternating with valid
    lines under one to four character inserts, deletes or replacements."""
    for i in range(count):
        if i % 2:
            yield "".join(rng.choice(NT_ALPHABET) for _ in range(rng.randint(0, 40)))
            continue
        chars = list(rng.choice(VALID_LINES))
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            edit = rng.randrange(3)
            if edit == 0:
                chars.insert(pos, rng.choice(NT_ALPHABET))
            elif edit == 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice(NT_ALPHABET)
        yield "".join(chars)


def test_parser_fuzz_raises_only_data_errors():
    rng = random.Random(4)
    for text in fuzz_inputs(rng, 20000):
        for parse in (parse_statements, lambda doc: parse_description(doc, E)):
            try:
                parse(text)
            except DataError:
                pass
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__} on {text!r}: {exc}")


# --------------------------------------------------------------------------
# description assembly
# --------------------------------------------------------------------------

def test_mixed_document_keeps_only_touching_statements():
    band = "http://toy.example/music/Night_Band"
    text = (DATA_DIR / "mixed_statements.nt").read_text(encoding="utf-8")
    assert len(parse_statements(text)) == 10
    triples = parse_description(text, band).triples
    assert [t.id for t in triples] == [0, 1, 2, 3, 4, 5, 6]
    # object-position statements flip the value to the subject side
    by_prop = {t.prop.raw.rsplit("/", 1)[1]: t for t in triples}
    assert by_prop["memberOf"].val.raw == "http://toy.example/music/Aria_Stone"
    assert by_prop["artist"].val.raw == "http://toy.example/music/Storm_Album"


def test_labels_are_collected_from_non_candidate_statements():
    band = "http://toy.example/music/Night_Band"
    text = (DATA_DIR / "mixed_statements.nt").read_text(encoding="utf-8")
    triples = parse_description(text, band).triples
    genre = next(t for t in triples if t.prop.raw.endswith("genre"))
    assert genre.val.label == "jazz"
    assert triples[0].subject.label == "Night Band"


def test_first_label_in_document_order_wins():
    text = "\n".join([
        f'<{E}> <http://www.w3.org/2000/01/rdf-schema#label> "first" .',
        f'<{E}> <http://www.w3.org/2000/01/rdf-schema#label> "second" .',
    ])
    triples = parse_description(text, E).triples
    assert triples[0].subject.label == "first"
    assert triples[1].subject.label == "first"


def test_empty_description_raises():
    with pytest.raises(EmptyDescription):
        parse_description('<http://ex.org/a> <http://ex.org/p> "x" .', E)


def test_duplicate_statements_get_distinct_ids_and_gold_takes_earliest():
    line = f'<{E}> <http://ex.org/p> "x" .'
    parsed = desc_of("\n".join([line, line]))
    assert [t.id for t in parsed.triples] == [0, 1]
    (key,) = parsed.first_id
    assert parsed.first_id[key] == 0
    ids = _match_gold_statements(parsed, line, E, "gold")
    assert ids == frozenset({0})


def test_gold_matching_is_whitespace_insensitive():
    parsed = desc_of(f'<{E}> <http://ex.org/p> "x y" .')
    ids = _match_gold_statements(parsed, f'<{E}>\t<http://ex.org/p>   "x y"  .', E, "gold")
    assert ids == frozenset({0})
    # identity is the parsed terms: a plain, a language-tagged and a typed
    # literal, an IRI and a blank node with the same text are all different
    objects = ['"x"', '"x"@en', '"x"^^<http://www.w3.org/2001/XMLSchema#string>', "<x>", "_:x"]
    lines = [f"<{E}> <http://ex.org/p> {obj} ." for obj in objects]
    parsed = desc_of("\n".join(lines))
    for tid, line in enumerate(lines):
        assert _match_gold_statements(parsed, line, E, "gold") == frozenset({tid})
    # and escapes compare after unescaping
    parsed = desc_of(f'<{E}> <http://ex.org/p> "a\\u0041" .')
    ids = _match_gold_statements(parsed, f'<{E}> <http://ex.org/p> "aA" .', E, "gold")
    assert ids == frozenset({0})


def test_gold_statement_missing_from_description_raises():
    parsed = desc_of(f'<{E}> <http://ex.org/p> "x" .')
    with pytest.raises(GoldNotSubset):
        _match_gold_statements(parsed, f'<{E}> <http://ex.org/p> "other" .', E, "gold")


# --------------------------------------------------------------------------
# dataclass invariants
# --------------------------------------------------------------------------

def test_resource_rejects_empty_raw_and_labeled_literal():
    with pytest.raises(ValueError):
        Resource(NodeKind.IRI, "")
    with pytest.raises(ValueError):
        Resource(NodeKind.LITERAL, "x", label="nope")


def test_triple_ids_must_be_contiguous():
    ent = Resource(NodeKind.IRI, E)
    p = Resource(NodeKind.IRI, "http://ex.org/p")
    v = Resource(NodeKind.LITERAL, "x")
    with pytest.raises(ValueError):
        EntityDescription(ent, (Triple(1, ent, p, v, v),))


def test_gold_referencing_unknown_ids_raises():
    with pytest.raises(GoldNotSubset):
        synthetic_entity(3, gold={2: [[0, 7]]})


def test_gold_larger_than_k_raises():
    with pytest.raises(GoldTooLarge):
        synthetic_entity(5, gold={2: [[0, 1, 2]]})


def test_manifest_entity_lookup():
    desc = synthetic_entity(2)
    manifest = DatasetManifest("t", (desc,), ())
    assert manifest.entity(desc.entity.raw) is desc
    with pytest.raises(UnknownEntity):
        manifest.entity("http://ex.org/absent")


# --------------------------------------------------------------------------
# fold validation
# --------------------------------------------------------------------------

def two_entities():
    return ["http://ex.org/e1", "http://ex.org/e2"]


def test_train_valid_overlap_is_allowed():
    e1, e2 = two_entities()
    validate_folds([FoldSpec(0, (e1,), (e1,), (e2,))], [e1, e2])


@pytest.mark.parametrize(
    "fold,fragment",
    [
        (lambda e1, e2: FoldSpec(0, (e1,), (), (e1,)), "test entity also in train"),
        (lambda e1, e2: FoldSpec(0, (), (e1,), (e2,)), "empty train"),
        (lambda e1, e2: FoldSpec(0, (e1,), (e2,), ()), "empty test"),
        (lambda e1, e2: FoldSpec(0, (e1,), (), (e2,)), None),  # e2 covered, fine
        (lambda e1, e2: FoldSpec(0, (e1,), (e1,), (e1,)), "test entity also in train"),
        (lambda e1, e2: FoldSpec(0, (e1, e1), (), (e2,)), "duplicate entity in train"),
        (lambda e1, e2: FoldSpec(0, ("http://ex.org/zz",), (), (e2,)), "unknown entity"),
        (lambda e1, e2: FoldSpec(3, (e1,), (), (e1,)), "fold 3"),
    ],
)
def test_fold_validation(fold, fragment):
    e1, e2 = two_entities()
    spec = fold(e1, e2)
    if fragment is None:
        validate_folds([spec], [e1, e2])
        return
    with pytest.raises(InvalidFold) as err:
        validate_folds([spec], [e1, e2])
    assert fragment in str(err.value)


def test_uncovered_entity_rejected():
    e1, e2 = two_entities()
    with pytest.raises(InvalidFold) as err:
        validate_folds(
            [FoldSpec(0, (e1,), (), ("http://ex.org/e3",))],
            [e1, e2, "http://ex.org/e3"],
        )
    assert "not assigned" in str(err.value)


# --------------------------------------------------------------------------
# manifest loading
# --------------------------------------------------------------------------

def test_toymusic_manifest_counts(toy_manifest):
    assert toy_manifest.name == "toymusic"
    assert len(toy_manifest.entities) == 2
    assert toy_manifest.triple_count == 17
    assert toy_manifest.gold_count == 12
    assert len(toy_manifest.folds) == 2


def test_toymusic_gold_ids(toy_manifest):
    aria = toy_manifest.entity(ARIA)
    blue = toy_manifest.entity(BLUE)
    assert len(aria.triples) == 10
    assert len(blue.triples) == 7
    assert [sorted(g.triple_ids) for g in aria.gold[2]] == [[0, 5], [0, 3], [0, 5]]
    assert [sorted(g.triple_ids) for g in aria.gold[3]] == [[0, 2, 5], [0, 2, 3], [0, 5, 9]]
    assert [sorted(g.triple_ids) for g in blue.gold[2]] == [[0, 2], [2, 3], [0, 3]]
    assert [sorted(g.triple_ids) for g in blue.gold[3]] == [[0, 2, 5], [2, 3, 5], [0, 2, 6]]
    assert [g.annotator for g in aria.gold[2]] == ["a0", "a1", "a2"]


def test_toymusic_fold_specs(toy_manifest):
    f0, f1 = toy_manifest.folds
    assert f0.index == 0 and f0.train == (ARIA,) and f0.valid == (ARIA,) and f0.test == (BLUE,)
    assert f1.index == 1 and f1.train == (BLUE,) and f1.test == (ARIA,)


def write_corpus(tmp, doc, files):
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    path = tmp / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINI_DESC = "\n".join([
    f'<{E}1> <http://ex.org/p> "a" .',
    f'<{E}1> <http://ex.org/q> "b" .',
])
MINI_DESC2 = f'<{E}2> <http://ex.org/p> "c" .'


def mini_doc(**overrides):
    doc = {
        "name": "mini",
        "entities": [
            {"iri": f"{E}1", "desc_file": "e1.nt",
             "gold": {"1": [{"annotator": "a", "file": "g1.nt"}]}},
            {"iri": f"{E}2", "desc_file": "e2.nt",
             "gold": {"1": [{"annotator": "a", "file": "g2.nt"}]}},
        ],
        "folds": [
            {"index": 0, "train": [f"{E}1"], "valid": [f"{E}1"], "test": [f"{E}2"]},
        ],
    }
    doc.update(overrides)
    return doc


def mini_files():
    return {
        "e1.nt": MINI_DESC,
        "e2.nt": MINI_DESC2,
        "g1.nt": f'<{E}1> <http://ex.org/p> "a" .',
        "g2.nt": MINI_DESC2,
    }


def test_minimal_manifest_loads(tmp_path):
    manifest = load_manifest(write_corpus(tmp_path, mini_doc(), mini_files()))
    assert len(manifest.entities) == 2
    assert manifest.entity(f"{E}1").gold[1][0].triple_ids == frozenset({0})


def test_manifest_missing_file(tmp_path):
    files = mini_files()
    del files["e2.nt"]
    with pytest.raises(MissingFile) as err:
        load_manifest(write_corpus(tmp_path, mini_doc(), files))
    assert "e2.nt" in str(err.value)


def test_manifest_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidManifest):
        load_manifest(path)


def test_manifest_is_missing_entirely(tmp_path):
    with pytest.raises(MissingFile):
        load_manifest(tmp_path / "nope.json")


@pytest.mark.parametrize("drop", ["name", "entities", "folds"])
def test_manifest_missing_top_level_field(tmp_path, drop):
    doc = mini_doc()
    del doc[drop]
    with pytest.raises(InvalidManifest) as err:
        load_manifest(write_corpus(tmp_path, doc, mini_files()))
    assert drop in str(err.value)


def test_manifest_gold_key_must_be_positive_int(tmp_path):
    doc = mini_doc()
    doc["entities"][0]["gold"] = {"zero": [{"annotator": "a", "file": "g1.nt"}]}
    with pytest.raises(InvalidManifest):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))
    doc["entities"][0]["gold"] = {"0": [{"annotator": "a", "file": "g1.nt"}]}
    with pytest.raises(InvalidManifest):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))


def test_manifest_gold_not_subset(tmp_path):
    files = mini_files()
    files["g1.nt"] = f'<{E}1> <http://ex.org/p> "absent" .'
    with pytest.raises(GoldNotSubset):
        load_manifest(write_corpus(tmp_path, mini_doc(), files))


def test_manifest_gold_too_large(tmp_path):
    files = mini_files()
    files["g1.nt"] = MINI_DESC  # two statements against k=1
    with pytest.raises(GoldTooLarge):
        load_manifest(write_corpus(tmp_path, mini_doc(), files))


def test_manifest_duplicate_entity(tmp_path):
    doc = mini_doc()
    doc["entities"].append(dict(doc["entities"][0]))
    with pytest.raises(InvalidManifest) as err:
        load_manifest(write_corpus(tmp_path, doc, mini_files()))
    assert "duplicate" in str(err.value)


def test_manifest_fold_partition_violation(tmp_path):
    doc = mini_doc(folds=[
        {"index": 0, "train": [f"{E}1", f"{E}2"], "valid": [], "test": [f"{E}2"]},
    ])
    with pytest.raises(InvalidFold):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))


# --------------------------------------------------------------------------
# supervision targets
# --------------------------------------------------------------------------

def six_gold_entity():
    # triple 0 in all six golds, triple 1 in three, triple 2 in none
    golds = [[0, 1], [0, 1], [0, 1], [0], [0], [0]]
    return synthetic_entity(3, gold={2: golds})


def test_supervision_frequency_fractions():
    desc = six_gold_entity()
    t0, t1, t2 = desc.triples
    assert supervision_label(desc, t0, 2) == 1.0
    assert supervision_label(desc, t1, 2) == 0.5
    assert supervision_label(desc, t2, 2) == 0.0


def test_supervision_missing_k():
    desc = six_gold_entity()
    with pytest.raises(NoGoldForK):
        supervision_label(desc, desc.triples[0], 9)


def test_toymusic_supervision_values(toy_manifest):
    aria = toy_manifest.entity(ARIA)
    labels = {t.id: supervision_label(aria, t, 2) for t in aria.triples}
    assert labels[0] == 1.0
    assert labels[5] == pytest.approx(2 / 3, abs=1e-15)
    assert labels[3] == pytest.approx(1 / 3, abs=1e-15)
    assert all(labels[i] == 0.0 for i in (1, 2, 4, 6, 7, 8, 9))
