"""Entity descriptions, ground-truth summaries and benchmark manifests.

The on-disk inputs are deliberately small UTF-8 text files:

* description files hold one ``<subj> <pred> <obj> .`` statement per line
  (an N-Triples compatible subset, no prefixes, no multi-line literals),
* gold-summary files use the same grammar and must repeat statements of
  the description file; a statement matches when its parsed terms are equal,
* a JSON manifest (``load_manifest``) or an ESBM tree (``esbm.load_esbm``)
  names the entities, gold files and folds.  Both read through
  ``read_text``, build entities with ``load_entity`` and end in
  ``build_manifest``, so they differ only in how they name their files.

Everything is immutable after ingestion and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
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

RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


class NodeKind(Enum):
    IRI = "iri"
    BLANK = "blank"
    LITERAL = "literal"


@dataclass(frozen=True)
class Resource:
    """One RDF term: an IRI, a blank node, or a literal.

    ``raw`` holds the full IRI, the blank-node id, or the literal's lexical
    form (language tag and datatype already stripped).  ``label`` carries the
    object of an ``rdfs:label`` statement about this resource when the input
    document provided one; literals never carry labels.
    """

    kind: NodeKind
    raw: str
    label: str | None = None

    def __post_init__(self):
        if not self.raw:
            raise ValueError("resource with empty raw form")
        if self.kind is NodeKind.LITERAL and self.label is not None:
            raise ValueError("literal resources cannot carry a label")


@dataclass(frozen=True)
class Triple:
    """One statement of an entity description.

    ``val`` is the subject or object that is not the described entity.  Ids
    are assigned in document order starting at 0 and are stable for the
    lifetime of the description.
    """

    id: int
    subject: Resource
    predicate: Resource
    object: Resource
    val: Resource

    @property
    def prop(self) -> Resource:
        return self.predicate


@dataclass(frozen=True)
class GoldSummary:
    annotator: str
    triple_ids: frozenset[int]


@dataclass(frozen=True)
class EntityDescription:
    """All candidate triples of one entity plus its ground-truth summaries.

    ``gold`` maps a size budget k to the human summaries recorded for that
    budget.  Every summary references triples by id and holds at most k ids.
    """

    entity: Resource
    triples: tuple[Triple, ...]
    gold: Mapping[int, tuple[GoldSummary, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for i, t in enumerate(self.triples):
            if t.id != i:
                raise ValueError(f"triple ids must be contiguous from 0, got {t.id} at {i}")
        n = len(self.triples)
        for k, summaries in self.gold.items():
            for g in summaries:
                if len(g.triple_ids) > k:
                    raise GoldTooLarge(
                        f"{self.entity.raw}: summary by {g.annotator} has "
                        f"{len(g.triple_ids)} triples for k={k}"
                    )
                unknown = [i for i in g.triple_ids if not (0 <= i < n)]
                if unknown:
                    raise GoldNotSubset(
                        f"{self.entity.raw}: summary by {g.annotator} references "
                        f"unknown triple ids {sorted(unknown)}"
                    )


@dataclass(frozen=True)
class FoldSpec:
    index: int
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entities: tuple[EntityDescription, ...]
    folds: tuple[FoldSpec, ...]

    def entity(self, iri: str) -> EntityDescription:
        for e in self.entities:
            if e.entity.raw == iri:
                return e
        raise UnknownEntity(iri)

    @property
    def triple_count(self) -> int:
        return sum(len(e.triples) for e in self.entities)

    @property
    def gold_count(self) -> int:
        return sum(len(gs) for e in self.entities for gs in e.gold.values())


# --------------------------------------------------------------------------
# statement-level parsing
# --------------------------------------------------------------------------

class _Term(NamedTuple):
    """A parsed term; two statements are the same when their terms are equal."""

    kind: NodeKind
    value: str            # IRI string, blank-node id, or unescaped lexical form
    lang: str | None = None
    datatype: str | None = None


@dataclass(frozen=True)
class _Statement:
    line_no: int
    subject: _Term
    predicate: _Term
    object: _Term

    def key(self) -> tuple[_Term, _Term, _Term]:
        return (self.subject, self.predicate, self.object)


_IRI_RE = re.compile(r'<([^<>"\s]+)>')
_BNODE_RE = re.compile(r'_:([A-Za-z0-9_][A-Za-z0-9._\-]*)')
_LITERAL_RE = re.compile(
    r'"((?:[^"\\\n]|\\.)*)"(?:@([A-Za-z][A-Za-z0-9\-]*)|\^\^<([^<>"\s]+)>)?'
)

# int(s, 16) would also take spaces, a sign, underscores and non-ASCII digits
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")

_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_literal(body: str, line_no: int) -> str:
    if "\\" not in body:
        return body
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(body):
            raise MalformedLine(line_no, "dangling escape in literal")
        nxt = body[i + 1]
        if nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        elif nxt == "u" or nxt == "U":
            width = 4 if nxt == "u" else 8
            hexpart = body[i + 2: i + 2 + width]
            if len(hexpart) != width:
                raise MalformedLine(line_no, "truncated unicode escape")
            if not _HEX_RE.fullmatch(hexpart):
                raise MalformedLine(line_no, f"bad unicode escape \\{nxt}{hexpart}")
            code = int(hexpart, 16)
            if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
                raise MalformedLine(
                    line_no, f"unicode escape \\{nxt}{hexpart} is not a character"
                )
            out.append(chr(code))
            i += 2 + width
        else:
            raise MalformedLine(line_no, f"unknown escape \\{nxt}")
    return "".join(out)


def _parse_term(line: str, pos: int, line_no: int) -> tuple[_Term, int]:
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


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def parse_statements(text: str) -> list[_Statement]:
    """Parse all statements of a document; blank lines and ``#`` comments skip."""
    statements = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        pos = _skip_ws(line, 0)
        subject, pos = _parse_term(line, pos, line_no)
        if subject.kind is NodeKind.LITERAL:
            raise MalformedLine(line_no, "literal in subject position")
        pos = _skip_ws(line, pos)
        predicate, pos = _parse_term(line, pos, line_no)
        if predicate.kind is not NodeKind.IRI:
            raise MalformedLine(line_no, "predicate must be an IRI")
        pos = _skip_ws(line, pos)
        obj, pos = _parse_term(line, pos, line_no)
        pos = _skip_ws(line, pos)
        if pos >= len(line) or line[pos] != ".":
            raise MalformedLine(line_no, "missing terminating '.'")
        if line[pos + 1:].strip():
            raise MalformedLine(line_no, "trailing content after '.'")
        statements.append(_Statement(line_no, subject, predicate, obj))
    return statements


def _collect_labels(statements: Iterable[_Statement]) -> dict[tuple[NodeKind, str], str]:
    # first label in document order wins
    labels: dict[tuple[NodeKind, str], str] = {}
    for st in statements:
        if st.predicate.value == RDFS_LABEL and st.object.kind is NodeKind.LITERAL:
            key = (st.subject.kind, st.subject.value)
            labels.setdefault(key, st.object.value)
    return labels


def _to_resource(term: _Term, labels: Mapping[tuple[NodeKind, str], str]) -> Resource:
    if term.kind is NodeKind.LITERAL:
        return Resource(NodeKind.LITERAL, term.value)
    return Resource(term.kind, term.value, label=labels.get((term.kind, term.value)))


@dataclass(frozen=True)
class ParsedDescription:
    """Candidate triples plus the statement-identity index used for gold
    matching: each statement's terms map to the earliest triple id that
    carries them, since duplicated description statements share them.
    ``line_ids`` maps the exact text of each statement line to the same id,
    or to None when the statement does not mention the entity, so a gold
    line that repeats a description line needs no second parse."""

    triples: tuple[Triple, ...]
    first_id: Mapping[tuple[_Term, _Term, _Term], int]
    line_ids: Mapping[str, int | None]


def parse_description(text: str, entity_iri: str) -> ParsedDescription:
    statements = parse_statements(text)
    labels = _collect_labels(statements)

    # one Resource per distinct term; Resource is frozen, so sharing is safe
    resources: dict[_Term, Resource] = {}

    def resource(term: _Term) -> Resource:
        r = resources.get(term)
        if r is None:
            r = resources[term] = _to_resource(term, labels)
        return r

    triples: list[Triple] = []
    first_id: dict[tuple[_Term, _Term, _Term], int] = {}
    line_ids: dict[str, int | None] = {}
    lines = text.splitlines()
    for st in statements:
        subject_is_entity = st.subject.kind is NodeKind.IRI and st.subject.value == entity_iri
        object_is_entity = st.object.kind is NodeKind.IRI and st.object.value == entity_iri
        if not (subject_is_entity or object_is_entity):
            line_ids[lines[st.line_no - 1]] = None
            continue
        subject = resource(st.subject)
        predicate = resource(st.predicate)
        obj = resource(st.object)
        # a self-referential statement keeps the object side as its value
        val = obj if subject_is_entity else subject
        tid = len(triples)
        triples.append(Triple(tid, subject, predicate, obj, val))
        line_ids[lines[st.line_no - 1]] = first_id.setdefault(st.key(), tid)

    if not triples:
        raise EmptyDescription(f"no statement mentions <{entity_iri}>")
    return ParsedDescription(tuple(triples), first_id, line_ids)


# --------------------------------------------------------------------------
# input files to a manifest
# --------------------------------------------------------------------------

def read_bytes(path: str | Path) -> bytes:
    """The content of an input file.  A missing file raises ``MissingFile``;
    any other failure to read it raises a ``DataError`` naming the path."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise MissingFile(path) from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


def decode_text(data: bytes, path: str | Path) -> str:
    """``data`` read from ``path`` as strict UTF-8; bytes that are not UTF-8
    raise a ``DataError`` naming the path and the offending byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_text(path: str | Path) -> str:
    """The content of an input text file, which must be UTF-8: ``read_bytes``
    then ``decode_text``."""
    return decode_text(read_bytes(path), path)


def _match_gold_statements(
    parsed: ParsedDescription, gold_text: str, entity_iri: str, source: str
) -> frozenset[int]:
    """The triple ids of a gold file's statements.  A line whose text is a
    description line takes that line's id; the other lines are parsed in
    full, keeping their line numbers, before any line is matched, so a
    malformed line is reported ahead of an unmatched one."""
    lines = gold_text.splitlines()
    ids: dict[int, int | None] = {}
    for line_no, line in enumerate(lines, start=1):
        if line in parsed.line_ids:
            ids[line_no] = parsed.line_ids[line]
            lines[line_no - 1] = ""
    for st in parse_statements("\n".join(lines)):
        ids[st.line_no] = parsed.first_id.get(st.key())
    found = set()
    for line_no in sorted(ids):
        if ids[line_no] is None:
            raise GoldNotSubset(
                f"{source}: statement on line {line_no} does not occur in the "
                f"description of <{entity_iri}>"
            )
        found.add(ids[line_no])
    return frozenset(found)


def load_entity(
    iri: str, desc_file: Path, golds: Iterable[tuple[int, str, Path]]
) -> EntityDescription:
    """One entity from its description file and its ``(k, annotator,
    gold_file)`` summaries, kept in that order within each k; every gold
    statement must occur in the description.  A malformed statement, or a
    description that never mentions the entity, is a ``DataError`` naming
    the file."""
    try:
        parsed = parse_description(read_text(desc_file), iri)
    except (MalformedLine, EmptyDescription) as exc:
        raise DataError(f"{desc_file}: {exc}") from exc
    gold: dict[int, list[GoldSummary]] = {}
    for k, annotator, gold_file in golds:
        try:
            ids = _match_gold_statements(parsed, read_text(gold_file), iri, str(gold_file))
        except MalformedLine as exc:
            raise DataError(f"{gold_file}: {exc}") from exc
        gold.setdefault(k, []).append(GoldSummary(annotator, ids))
    frozen = {k: tuple(gold[k]) for k in sorted(gold)}
    return EntityDescription(Resource(NodeKind.IRI, iri), parsed.triples, frozen)


def validate_folds(folds: Iterable[FoldSpec], entity_iris: Iterable[str]) -> None:
    """Check fold assignments against the manifest's entity set.

    The test list must be disjoint from both train and valid, train and test
    must be non-empty, every listed IRI must be a known entity, and the three
    lists together must cover every entity.  Train and valid may overlap so
    that tiny corpora can reuse training entities for validation.
    """
    known = set(entity_iris)
    for fold in folds:
        for name, part in (("train", fold.train), ("valid", fold.valid), ("test", fold.test)):
            if len(set(part)) != len(part):
                raise InvalidFold(fold.index, f"duplicate entity in {name} list")
            unknown = [iri for iri in part if iri not in known]
            if unknown:
                raise InvalidFold(fold.index, f"unknown entity in {name} list: {unknown[0]}")
        if not fold.train:
            raise InvalidFold(fold.index, "empty train list")
        if not fold.test:
            raise InvalidFold(fold.index, "empty test list")
        leaked = set(fold.test) & (set(fold.train) | set(fold.valid))
        if leaked:
            raise InvalidFold(fold.index, f"test entity also in train/valid: {sorted(leaked)[0]}")
        uncovered = known - set(fold.train) - set(fold.valid) - set(fold.test)
        if uncovered:
            raise InvalidFold(fold.index, f"entity not assigned: {sorted(uncovered)[0]}")


def build_manifest(
    name: str,
    entities: Sequence[EntityDescription],
    folds: Sequence[FoldSpec],
    source: str | Path,
) -> DatasetManifest:
    """The manifest of ``entities`` and ``folds`` once no entity IRI repeats
    and the folds pass ``validate_folds``; ``source`` names the input in
    errors."""
    iris = [e.entity.raw for e in entities]
    repeated = sorted(iri for iri, count in Counter(iris).items() if count > 1)
    if repeated:
        raise InvalidManifest(f"{source}: duplicate entity iri {repeated[0]}")
    validate_folds(folds, iris)
    return DatasetManifest(name, tuple(entities), tuple(folds))


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_ABSENT = object()


def _check(value, kind: type, context: str):
    """``value`` when it has the JSON type ``kind``; ``true`` is no integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InvalidManifest(f"{context} must be {_JSON_TYPES[kind]}")
    return value


def _field(mapping: Mapping, key: str, context: str, kind: type = object, default=_ABSENT):
    """``mapping[key]`` of JSON type ``kind``, or ``default`` when absent."""
    value = mapping.get(key, default)
    if value is _ABSENT:
        raise InvalidManifest(f"{context}: missing field {key!r}")
    return _check(value, kind, f"{context}: field {key!r}")


def _iris(fold: Mapping, key: str, context: str, default=_ABSENT) -> tuple[str, ...]:
    iris = _field(fold, key, context, list, default)
    for iri in iris:
        _check(iri, str, f"{context}: every entry of {key!r}")
    return tuple(iris)


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and fully validate a JSON manifest and all files it references."""
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidManifest(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InvalidManifest(f"{path}: top-level value must be an object")

    base = path.parent
    name = _field(doc, "name", str(path))
    entity_docs = _field(doc, "entities", str(path), list)
    fold_docs = _field(doc, "folds", str(path), list)

    entities = []
    for i, ent in enumerate(entity_docs):
        _check(ent, dict, f"{path}: entity {i}")
        iri = _field(ent, "iri", f"{path} entity {i}", str)
        golds = []
        for k_str, summaries in _field(ent, "gold", iri, dict, {}).items():
            try:
                k = int(k_str)
            except ValueError:
                raise InvalidManifest(f"{iri}: gold key {k_str!r} is not an integer")
            if k < 1:
                raise InvalidManifest(f"{iri}: gold key {k} must be positive")
            _check(summaries, list, f"{iri}: gold k={k}")
            if not summaries:
                raise InvalidManifest(f"{iri}: empty gold list for k={k}")
            for g in summaries:
                context = f"{iri} gold k={k}"
                _check(g, dict, f"{context}: every entry")
                annotator = _field(g, "annotator", context)
                golds.append((k, str(annotator), base / _field(g, "file", context, str)))
        entities.append(load_entity(iri, base / _field(ent, "desc_file", iri, str), golds))

    folds = []
    for i, f in enumerate(fold_docs):
        context = f"{path} fold {i}"
        _check(f, dict, context)
        folds.append(FoldSpec(
            index=_field(f, "index", context, int),
            train=_iris(f, "train", context),
            valid=_iris(f, "valid", context, []),
            test=_iris(f, "test", context),
        ))
    return build_manifest(str(name), entities, folds, path)


# --------------------------------------------------------------------------
# supervision targets
# --------------------------------------------------------------------------

def supervision_label(desc: EntityDescription, t: Triple, k: int) -> float:
    """Regression target for one triple under size budget k: the fraction of
    ground-truth summaries that contain it."""
    if k not in desc.gold:
        raise NoGoldForK(k)
    summaries = desc.gold[k]
    return sum(1 for g in summaries if t.id in g.triple_ids) / len(summaries)
