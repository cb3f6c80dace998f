"""Statement parsing, description assembly, gold matching, manifest loading."""

import itertools
import json
import random
import re

import numpy as np
import pytest

from entsum.dataset import (
    _BNODE_RE,
    _IRI_RE,
    _LITERAL_RE,
    _STATEMENT_RE,
    RDFS_LABEL,
    DatasetManifest,
    EntityDescription,
    FoldSpec,
    NodeKind,
    Resource,
    Triple,
    _collect_labels,
    _match_gold_statements,
    _Statement,
    _Term,
    _unescape_literal,
    load_manifest,
    parse_description,
    parse_statements,
    validate_folds,
)
from entsum.errors import DataError, MalformedLine, MissingFile
from entsum.esbm import load_esbm
from entsum.training import TrainConfig, _prepare

from conftest import ARIA, BLUE, DATA_DIR, build_esbm_tree, synthetic_entity

E = "http://ex.org/e"


def desc_of(text: str, iri: str = E):
    return parse_description(text, iri)


def parse_lines(text: str):
    """``parse_statements`` of a whole document."""
    return parse_statements(text.splitlines())


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
    assert len(parse_lines(text)) == 1


def test_escape_sequences_in_literals():
    # \u and \U at the edges of the surrogate block and of Unicode
    boundaries = "\\u004a\\uD7FF\\uE000\\U0010FFFF\\U0001f600\\u00e9"
    text = f'<{E}> <http://ex.org/p> "a\\nb\\t\\"c\\"\\\\d\\u0041{boundaries}" .'
    t = parse_description(text, E).triples[0]
    assert t.val.raw == 'a\nb\t"c"\\dAJ\ud7ff\ue000\U0010ffff\U0001f600é'


@pytest.mark.parametrize(
    "line,fragment",
    [
        (f'<{E}> <http://ex.org/p> "x"', "missing terminating"),
        (f"<{E}> <http://ex.org/p> _:b0.", "missing terminating"),  # the id is b0.
        (f'"lit" <http://ex.org/p> "x" .', "literal in subject"),
        (f'<{E}> _:b "x" .', "predicate must be an IRI"),
        (f'<{E}> <http://ex.org/p> "x" . extra', "trailing content"),
        (f'<{E}> <http://ex.org/p> "" .', "empty literal"),
        # an empty term and a labelled literal subject are refused here, so
        # no Resource is empty and no literal carries a label
        (f'<{E}> <http://ex.org/p> ""@en .', "empty literal"),
        (f'<{E}> <http://ex.org/p> ""^^<http://ex.org/t> .', "empty literal"),
        (f'<> <http://ex.org/p> "x" .', "bad IRI"),
        (f'<{E}> <> "x" .', "bad IRI"),
        (f"<{E}> <http://ex.org/p> <> .", "bad IRI"),
        (f'_: <http://ex.org/p> "x" .', "bad blank node"),
        (f"<{E}> <http://ex.org/p> _: .", "bad blank node"),
        (f'"x" <{RDFS_LABEL}> "label" .', "literal in subject"),
        (f'<{E}> <http://ex.org/p> "x\\q" .', "unknown escape"),
        (f'<{E}> <http://ex.org/p> "x\\u00" .', "truncated unicode"),
        (f'<{E}> <http://ex.org/p> .', "unexpected character"),
        (f'<{E}>', "statement ended early"),
        (f'<{E}> <http://ex.org/p> "x\\u 041" .', "bad unicode escape"),
        (f'<{E}> <http://ex.org/p> "x\\u+041" .', "bad unicode escape"),
        (f'<{E}> <http://ex.org/p> "x\\u0_41" .', "bad unicode escape"),
        (f'<{E}> <http://ex.org/p> "x\\U0000_041" .', "bad unicode escape"),
        (f'<{E}> <http://ex.org/p> "x\\u٠٠٤١" .', "bad unicode escape"),  # Arabic-Indic digits
        (f'<{E}> <http://ex.org/p> "x\\uD800" .', "is not a character"),
        (f'<{E}> <http://ex.org/p> "x\\uDFFF" .', "is not a character"),
        (f'<{E}> <http://ex.org/p> "x\\U0000DC00" .', "is not a character"),
        (f'<{E}> <http://ex.org/p> "x\\U00110000" .', "is not a character"),
        (f'<{E}> <http://ex.org/p> "x\\UFFFFFFFF" .', "is not a character"),
    ],
)
def test_malformed_statements(line, fragment):
    with pytest.raises(MalformedLine) as err:
        parse_statements([line])
    assert fragment in str(err.value)


def test_malformed_line_number_is_reported():
    text = "\n".join([f'<{E}> <http://ex.org/p> "ok" .', "<broken"])
    with pytest.raises(MalformedLine) as err:
        parse_lines(text)
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
        for parse in (parse_lines, lambda doc: parse_description(doc, E)):
            try:
                parse(text)
            except DataError:
                pass
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__} on {text!r}: {exc}")


# --------------------------------------------------------------------------
# differential test of the whole-line pattern against the term-by-term parser
# --------------------------------------------------------------------------

# ``parse_statements``, ``_parse_term`` and ``_skip_ws`` as they were before a
# statement line was matched by one pattern, renamed; the reference for the
# pattern's path, which must give the same statements and the same errors


def reference_parse_term(line: str, pos: int, line_no: int) -> tuple[_Term, int]:
    if pos >= len(line):
        raise MalformedLine(line_no, "statement ended early")
    ch = line[pos]
    if ch == "<":
        m = _IRI_RE.match(line, pos)
        if not m:
            raise MalformedLine(line_no, f"bad IRI at column {pos + 1}")
        return _Term(NodeKind.IRI, m.group(1)), m.end()
    if ch == "_":
        m = _BNODE_RE.match(line, pos)
        if not m:
            raise MalformedLine(line_no, f"bad blank node at column {pos + 1}")
        return _Term(NodeKind.BLANK, m.group(1)), m.end()
    if ch == '"':
        m = _LITERAL_RE.match(line, pos)
        if not m:
            raise MalformedLine(line_no, f"bad literal at column {pos + 1}")
        value = _unescape_literal(m.group(1), line_no)
        if not value:
            raise MalformedLine(line_no, "empty literal")
        return _Term(NodeKind.LITERAL, value, lang=m.group(2), datatype=m.group(3)), m.end()
    raise MalformedLine(line_no, f"unexpected character {ch!r} at column {pos + 1}")


def reference_skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def reference_parse_statements(text: str) -> list[_Statement]:
    """Parse all statements of a document; blank lines and ``#`` comments skip."""
    statements = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        pos = reference_skip_ws(line, 0)
        subject, pos = reference_parse_term(line, pos, line_no)
        if subject.kind is NodeKind.LITERAL:
            raise MalformedLine(line_no, "literal in subject position")
        pos = reference_skip_ws(line, pos)
        predicate, pos = reference_parse_term(line, pos, line_no)
        if predicate.kind is not NodeKind.IRI:
            raise MalformedLine(line_no, "predicate must be an IRI")
        pos = reference_skip_ws(line, pos)
        obj, pos = reference_parse_term(line, pos, line_no)
        pos = reference_skip_ws(line, pos)
        if pos >= len(line) or line[pos] != ".":
            raise MalformedLine(line_no, "missing terminating '.'")
        if line[pos + 1:].strip():
            raise MalformedLine(line_no, "trailing content after '.'")
        statements.append(_Statement(line_no, subject, predicate, obj))
    return statements


# str.splitlines ends a line at each of these
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
# lines the pattern takes, and lines it must leave to the term-by-term parser
STATEMENT_LINES = [
    f'<{E}> <http://ex.org/p> "Tim" .',
    f'\t<{E}>\t<http://ex.org/p>\t"a b"@en-GB\t.\t',
    f'<{E}> <http://ex.org/q> "1998"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
    f"_:b0 <http://ex.org/p> <{E}> .",
    f"<{E}> <http://ex.org/p> _:b-1.x .",
    f"<{E}><http://ex.org/p><http://ex.org/o>.",
    f'<{E}> <http://ex.org/p> "x"@en.',
    f'<{E}> <http://ex.org/p> "a\\tb\\u0041\\"c\\\\" .',
    f'<{E}> <http://ex.org/p> "x\\q" .',
    f'<{E}> <http://ex.org/p> "" .',
    f"<{E}> <http://ex.org/p> _:b0.",
    f'<{E}> <http://ex.org/p> "x" .\xa0',
    f'\xa0<{E}> <http://ex.org/p> "x" .',
    f'<{E}> <http://ex.org/p> "x"',
    f'<{E}> <http://ex.org/p> "x" . <{E}>',
    f'"x" <http://ex.org/p> <{E}> .',
    f'<{E}> _:b0 "x" .',
    "# a comment",
    "  # an indented comment",
    "",
    " \t ",
]
# every character the pattern or the parser gives a meaning to, each line
# end of ``LINE_ENDS`` and other whitespace that ``str.strip`` removes
MUTATION_ALPHABET = list('<>"\\_:@^.#- \tabuUxE09é\xa0\x1f') + LINE_ENDS


def mutated_document(rng: random.Random) -> str:
    """One to six lines of ``STATEMENT_LINES``, most with zero to three
    character inserts, deletes or replacements, joined by random line ends."""
    lines = []
    for _ in range(rng.randint(1, 6)):
        chars = list(rng.choice(STATEMENT_LINES))
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            pos = rng.randrange(len(chars) + 1)
            edit = rng.randrange(3) if chars else 0
            if edit == 0:
                chars.insert(pos, rng.choice(MUTATION_ALPHABET))
            elif edit == 1:
                del chars[min(pos, len(chars) - 1)]
            else:
                chars[min(pos, len(chars) - 1)] = rng.choice(MUTATION_ALPHABET)
        lines.append("".join(chars))
    text = "".join(line + rng.choice(LINE_ENDS) for line in lines)
    return text[:-1] if rng.random() < 0.3 else text  # cut the last line end


def test_statement_pattern_matches_reference_parser_on_mutated_lines():
    rng = random.Random(15)
    matched = unmatched = 0
    reasons = set()
    documents = (mutated_document(rng) for _ in range(6000))
    for text in itertools.chain(STATEMENT_LINES, documents):
        want = outcome(reference_parse_statements, text)
        assert outcome(parse_lines, text) == want, text
        if isinstance(want, tuple):
            reasons.add(want[1].split(": ", 1)[1])
        for line in text.splitlines():
            if _STATEMENT_RE.fullmatch(line) is None:
                unmatched += 1
            else:
                matched += 1
    # both paths ran often, and the errors of every step were compared
    assert matched > 3000 and unmatched > 3000
    for reason in ("bad IRI", "bad blank node", "bad literal", "unknown escape",
                   "empty literal", "literal in subject position", "predicate must be an IRI",
                   "statement ended early", "missing terminating '.'",
                   "trailing content after '.'", "unexpected character"):
        assert any(r.startswith(reason) for r in reasons), reason


# --------------------------------------------------------------------------
# description assembly
# --------------------------------------------------------------------------

def test_mixed_document_keeps_only_touching_statements():
    band = "http://toy.example/music/Night_Band"
    text = (DATA_DIR / "mixed_statements.nt").read_text(encoding="utf-8")
    assert len(parse_lines(text)) == 10
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
    with pytest.raises(DataError, match="no statement mentions"):
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
    with pytest.raises(DataError, match="does not occur in the description"):
        _match_gold_statements(parsed, f'<{E}> <http://ex.org/p> "other" .', E, "gold")


# --------------------------------------------------------------------------
# differential test of gold matching against the statement-by-statement form
# --------------------------------------------------------------------------

def reference_to_resource(term: _Term, labels) -> Resource:
    """A term's ``Resource`` as the parser built it before the memo in
    ``parse_description`` took this in."""
    if term.kind is NodeKind.LITERAL:
        return Resource(NodeKind.LITERAL, term.value)
    return Resource(term.kind, term.value, label=labels.get((term.kind, term.value)))


def reference_parse_description(text: str, entity_iri: str):
    """``parse_description`` as it was before gold lines were matched by
    their text: the triples and the statement-identity index."""
    statements = parse_lines(text)
    labels = _collect_labels(statements)

    triples: list[Triple] = []
    first_id = {}
    for st in statements:
        subject_is_entity = st.subject.kind is NodeKind.IRI and st.subject.value == entity_iri
        object_is_entity = st.object.kind is NodeKind.IRI and st.object.value == entity_iri
        if not (subject_is_entity or object_is_entity):
            continue
        subject = reference_to_resource(st.subject, labels)
        predicate = reference_to_resource(st.predicate, labels)
        obj = reference_to_resource(st.object, labels)
        # a self-referential statement keeps the object side as its value
        val = obj if subject_is_entity else subject
        tid = len(triples)
        triples.append(Triple(tid, subject, predicate, obj, val))
        first_id.setdefault(st.key(), tid)

    if not triples:
        raise DataError(f"no statement mentions <{entity_iri}>")
    return tuple(triples), first_id


def reference_match_gold(first_id, gold_text: str, entity_iri: str, source: str):
    """``_match_gold_statements`` as it was: parse every gold line, then
    look each statement's terms up in the description."""
    ids = set()
    for st in parse_lines(gold_text):
        tid = first_id.get(st.key())
        if tid is None:
            raise DataError(
                f"{source}: statement on line {st.line_no} does not occur in the "
                f"description of <{entity_iri}>"
            )
        ids.add(tid)
    return frozenset(ids)


OTHER = "http://ex.org/other"
PROPS = ["http://ex.org/p", "http://ex.org/q", "http://www.w3.org/2000/01/rdf-schema#label"]
# statements as term texts; a literal is (plain, escaped) spellings of one value
SUBJECTS = [f"<{E}>", f"<{OTHER}>", "_:b1"]
OBJECTS = [f"<{E}>", f"<{OTHER}>", "_:b1", ('"aA"', '"a\\u0041"'), ('"x y"', '"x\\u0020y"'),
           ('"1"@en', '"\\u0031"@en'), ('"z"^^<http://ex.org/t>', '"\\u007A"^^<http://ex.org/t>')]
MALFORMED = ["<broken", f'<{E}> <http://ex.org/p> "x', f"<{E}> <http://ex.org/p>",
             f'<{E}> <http://ex.org/p> "x" . extra', f'"lit" <http://ex.org/p> <{E}> .']
BREAKS = ["\n", "\n", "\n", "\r\n", "\x0c", "\x85"]


def random_statement(rng: random.Random) -> tuple[str, str, object]:
    return rng.choice(SUBJECTS), rng.choice(PROPS), rng.choice(OBJECTS)


def render(rng: random.Random, statement) -> str:
    """One spelling of a statement: separators of spaces and tabs, optional
    leading and trailing blanks, a plain or escaped literal."""
    subject, prop, obj = statement
    if isinstance(obj, tuple):
        obj = rng.choice(obj)
    gaps = [rng.choice([" ", " ", "  ", "\t", " \t"]) for _ in range(3)]
    lead, trail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\t "])
    return f"{lead}{subject}{gaps[0]}<{prop}>{gaps[1]}{obj}{gaps[2]}.{trail}"


def join_lines(rng: random.Random, lines: list[str]) -> str:
    return "".join(line + rng.choice(BREAKS) for line in lines)


def random_description(rng: random.Random) -> tuple[str, list, list[str]]:
    statements = [random_statement(rng) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.9:  # mostly not empty
        statements.append((f"<{E}>", PROPS[0], rng.choice(OBJECTS)))
    lines = [render(rng, st) for st in statements]
    lines += [lines[rng.randrange(len(lines))] for _ in range(rng.randint(0, 2))]
    lines += ["", "# a comment", "   "][: rng.randint(0, 3)]
    if rng.random() < 0.05:
        lines.append(rng.choice(MALFORMED))
    rng.shuffle(lines)
    return join_lines(rng, lines), statements, lines


def random_gold(rng: random.Random, statements, desc_lines: list[str]) -> str:
    lines = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.5:
            lines.append(rng.choice(desc_lines))              # verbatim copy
        elif roll < 0.75:
            lines.append(render(rng, rng.choice(statements)))  # equal by terms
        elif roll < 0.85:
            lines.append(render(rng, random_statement(rng)))   # maybe absent
        elif roll < 0.95:
            lines.append(rng.choice(["", "# note", "\t"]))
        else:
            lines.append(rng.choice(MALFORMED))
    if lines and rng.random() < 0.3:
        lines.append(rng.choice(lines))
    return join_lines(rng, lines)


def outcome(fn, *args):
    """A result, or the exception's type, message and line number."""
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


FAILURES = ("malformed statement", "does not occur in the description", "no statement mentions")


def failure_kind(result) -> str:
    """Which of ``FAILURES`` an ``outcome`` tuple's message reports."""
    return next(kind for kind in FAILURES if kind in result[1])


def test_gold_matching_matches_reference_on_random_files():
    rng = random.Random(11)
    kinds = set()
    for _ in range(2000):
        text, statements, desc_lines = random_description(rng)
        expected = outcome(reference_parse_description, text, E)
        got = outcome(parse_description, text, E)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected, text
            kinds.add(failure_kind(expected))
            continue
        triples, first_id = expected
        assert got.triples == triples and got.first_id == first_id, text
        for _ in range(4):
            gold = random_gold(rng, statements, desc_lines)
            want = outcome(reference_match_gold, first_id, gold, E, "g.nt")
            assert outcome(_match_gold_statements, got, gold, E, "g.nt") == want, (text, gold)
            kinds.add(want if isinstance(want, frozenset) else failure_kind(want))
    # every kind of outcome was reached: gold ids, a malformed line, an
    # unmatched gold statement and a description without the entity
    assert set(FAILURES) <= kinds
    assert sum(isinstance(k, frozenset) and len(k) > 1 for k in kinds) > 10


@pytest.mark.parametrize("gold, error, message", [
    # line 1 is unknown and line 2 malformed: the whole file parses first
    (f'<{E}> <http://ex.org/p> "other" .\n<broken\n', MalformedLine,
     "malformed statement on line 2: bad IRI at column 1"),
    # a verbatim description line that does not mention the entity
    (f'\n<{OTHER}> <http://ex.org/p> "x" .\n', DataError,
     f"g.nt: statement on line 2 does not occur in the description of <{E}>"),
    # a verbatim line after a \x85 break, then an unknown one
    (f'<{E}> <http://ex.org/p> "aA" .\x85<{E}> <http://ex.org/q> "aA" .', DataError,
     f"g.nt: statement on line 2 does not occur in the description of <{E}>"),
])
def test_gold_matching_matches_reference_on_fixed_files(gold, error, message):
    text = f'<{E}> <http://ex.org/p> "a\\u0041" .\n<{OTHER}> <http://ex.org/p> "x" .'
    _, first_id = reference_parse_description(text, E)
    want = outcome(reference_match_gold, first_id, gold, E, "g.nt")
    assert want[:2] == (error, message)
    assert outcome(_match_gold_statements, parse_description(text, E), gold, E, "g.nt") == want


# --------------------------------------------------------------------------
# record invariants
# --------------------------------------------------------------------------

def test_manifest_with_empty_entity_iri_is_refused(tmp_path):
    # no statement can mention <>, so load_entity never builds that Resource
    (tmp_path / "d.nt").write_text('<http://ex.org/a> <http://ex.org/p> "x" .\n',
                                   encoding="utf-8")
    manifest = {"name": "m", "entities": [{"iri": "", "desc_file": "d.nt"}],
                "folds": [{"index": 0, "train": [""], "test": [""]}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(DataError, match="no statement mentions <>"):
        load_manifest(tmp_path / "m.json")


def assert_terms_hold(triples):
    """Every term is non-empty and no literal carries a label."""
    for t in triples:
        for r in (t.subject, t.predicate, t.object, t.val):
            assert r.raw, t
            assert r.kind is not NodeKind.LITERAL or r.label is None, t


def test_loaded_terms_are_non_empty_and_literals_unlabelled(toy_manifest, tmp_path):
    build_esbm_tree(tmp_path)
    for manifest in (toy_manifest, load_esbm(tmp_path)):
        for desc in manifest.entities:
            assert desc.entity.raw
            assert_terms_hold(desc.triples)
    accepted = 0
    for text in fuzz_inputs(random.Random(4), 20000):
        try:
            parsed = parse_description(text, E)
        except DataError:
            continue
        accepted += 1
        assert_terms_hold(parsed.triples)
    assert accepted > 1000


def test_triple_ids_must_be_contiguous():
    ent = Resource(NodeKind.IRI, E)
    p = Resource(NodeKind.IRI, "http://ex.org/p")
    v = Resource(NodeKind.LITERAL, "x")
    with pytest.raises(ValueError):
        EntityDescription(ent, (Triple(1, ent, p, v, v),))


def test_gold_referencing_unknown_ids_raises():
    with pytest.raises(DataError, match=r"references unknown triple ids \[7\]"):
        synthetic_entity(3, gold={2: [[0, 7]]})


def test_gold_larger_than_k_raises():
    with pytest.raises(DataError, match="has 3 triples for k=2"):
        synthetic_entity(5, gold={2: [[0, 1, 2]]})


def test_manifest_entity_lookup():
    desc = synthetic_entity(2)
    manifest = DatasetManifest("t", (desc,), ())
    assert manifest.entity(desc.entity.raw) is desc
    with pytest.raises(DataError, match="no entity with IRI http://ex.org/absent"):
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
    with pytest.raises(DataError, match=re.escape(fragment)):
        validate_folds([spec], [e1, e2])


def test_uncovered_entity_rejected():
    e1, e2 = two_entities()
    with pytest.raises(DataError, match="fold 0: entity not assigned"):
        validate_folds(
            [FoldSpec(0, (e1,), (), ("http://ex.org/e3",))],
            [e1, e2, "http://ex.org/e3"],
        )


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
    with pytest.raises(DataError, match="not valid JSON"):
        load_manifest(path)


@pytest.mark.parametrize("value", ["[" * 100000 + "]" * 100000, "9" * 5000],
                         ids=["deep-nesting", "long-integer"])
def test_manifest_json_past_the_decoder_limits_is_a_data_error(tmp_path, value):
    # nesting past the recursion limit, an integer past int()'s digit limit
    path = write_corpus(tmp_path, mini_doc(), mini_files())
    text = path.read_text(encoding="utf-8").replace('"index": 0', f'"index": {value}', 1)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match="not valid JSON"):
        load_manifest(path)


def test_manifest_is_missing_entirely(tmp_path):
    with pytest.raises(MissingFile):
        load_manifest(tmp_path / "nope.json")


@pytest.mark.parametrize("drop", ["name", "entities", "folds"])
def test_manifest_missing_top_level_field(tmp_path, drop):
    doc = mini_doc()
    del doc[drop]
    with pytest.raises(DataError, match=f"missing field '{drop}'"):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))


def test_manifest_gold_key_must_be_positive_int(tmp_path):
    # int() reads "\u0662", " 2 ", "0_2", "02" and "+2" as 2, so "02" beside
    # "2" would merge two gold lists under k=2; 5,000 digits pass its limit
    for key in ["zero", "0", "-1", "\u0662", " 2 ", "0_2", "02", "+2", "2.0", "9" * 5000]:
        doc = mini_doc()
        doc["entities"][0]["gold"] = {"2": [{"annotator": "a", "file": "g1.nt"}],
                                      key: [{"annotator": "b", "file": "g1.nt"}]}
        with pytest.raises(DataError, match=re.escape(f"gold key {key!r} is not a positive integer")):
            load_manifest(write_corpus(tmp_path, doc, mini_files()))
    doc["entities"][0]["gold"] = {"1" + "0" * 17: [{"annotator": "a", "file": "g1.nt"}]}
    assert load_manifest(write_corpus(tmp_path, doc, mini_files())).gold_count == 2


def test_manifest_gold_not_subset(tmp_path):
    files = mini_files()
    files["g1.nt"] = f'<{E}1> <http://ex.org/p> "absent" .'
    with pytest.raises(DataError, match="does not occur in the description"):
        load_manifest(write_corpus(tmp_path, mini_doc(), files))


def test_manifest_gold_too_large(tmp_path):
    files = mini_files()
    files["g1.nt"] = MINI_DESC  # two statements against k=1
    with pytest.raises(DataError, match="summary by a has 2 triples for k=1"):
        load_manifest(write_corpus(tmp_path, mini_doc(), files))


def test_manifest_duplicate_entity(tmp_path):
    doc = mini_doc()
    doc["entities"].append(dict(doc["entities"][0]))
    with pytest.raises(DataError, match="duplicate entity iri"):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))


def test_manifest_fold_partition_violation(tmp_path):
    doc = mini_doc(folds=[
        {"index": 0, "train": [f"{E}1", f"{E}2"], "valid": [], "test": [f"{E}2"]},
    ])
    with pytest.raises(DataError, match="fold 0: test entity also in train/valid"):
        load_manifest(write_corpus(tmp_path, doc, mini_files()))


# --------------------------------------------------------------------------
# supervision targets
# --------------------------------------------------------------------------

def six_gold_entity():
    # triple 0 in all six golds, triple 1 in three, triple 2 in none
    golds = [[0, 1], [0, 1], [0, 1], [0], [0], [0]]
    return synthetic_entity(3, gold={2: golds})


def targets(desc, k):
    """The regression targets training builds for ``desc`` at budget k."""
    manifest = DatasetManifest("t", (desc,), ())
    iri = desc.entity.raw
    (prepared,) = _prepare(manifest, [iri], {iri: []}, TrainConfig(k=k))
    return prepared.targets


def test_supervision_frequency_fractions():
    assert targets(six_gold_entity(), 2) == {0: 1.0, 1: 0.5, 2: 0.0}


def test_supervision_missing_k():
    with pytest.raises(DataError, match="no ground-truth summaries for k=9"):
        targets(six_gold_entity(), 9)


def test_toymusic_supervision_values(toy_manifest):
    labels = targets(toy_manifest.entity(ARIA), 2)
    assert labels[0] == 1.0
    assert labels[5] == 2 / 3
    assert labels[3] == 1 / 3
    assert all(labels[i] == 0.0 for i in (1, 2, 4, 6, 7, 8, 9))
