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

Terms (``Resource``) and triples (``Triple``) are immutable tuples; the
parser guarantees their invariants, so building one checks nothing.
Everything is immutable after ingestion and safe to share across threads.
A resource's words come from ``tokenize(textual_form(r))``, and a manifest
tokenizes the textual forms of its candidate triples once
(``DatasetManifest.form_tokens``).
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import count
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError, MalformedLine, MissingFile

RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


class NodeKind(Enum):
    IRI = "iri"
    BLANK = "blank"
    LITERAL = "literal"

    # members are singletons, so identity is equality; Enum's own hash is a
    # Python-level call each time a term or a label key is hashed
    __hash__ = object.__hash__


class Resource(NamedTuple):
    """One RDF term: an IRI, a blank node, or a literal.

    ``raw`` holds the full IRI, the blank-node id, or the literal's lexical
    form (language tag and datatype already stripped).  ``label`` carries the
    object of an ``rdfs:label`` statement about this resource when the input
    document provided one; literals never carry labels.  The parser makes
    both hold: it refuses an empty term, and it never labels a literal.
    """

    kind: NodeKind
    raw: str
    label: str | None = None


class Triple(NamedTuple):
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
                    raise DataError(
                        f"{self.entity.raw}: summary by {g.annotator} has "
                        f"{len(g.triple_ids)} triples for k={k}"
                    )
                unknown = [i for i in g.triple_ids if not (0 <= i < n)]
                if unknown:
                    raise DataError(
                        f"{self.entity.raw}: summary by {g.annotator} references "
                        f"unknown triple ids {sorted(unknown)}"
                    )


@dataclass(frozen=True)
class FoldSpec:
    index: int
    train: tuple[str, ...]
    valid: tuple[str, ...]
    test: tuple[str, ...]


def textual_form(r: Resource) -> str:
    """Human-readable string of a resource.

    Literals use their lexical form.  IRIs and blank nodes use their label
    when one was found in the input data, otherwise the local name: the part
    after the last '#', else after the last '/', else the whole raw string.
    """
    if r.kind is NodeKind.LITERAL:
        return r.raw
    if r.label is not None:
        return r.label
    if "#" in r.raw:
        return r.raw.rsplit("#", 1)[1]
    if "/" in r.raw:
        return r.raw.rsplit("/", 1)[1]
    return r.raw


# a run of characters outside ASCII letters and digits, or a camel-case
# boundary between a lowercase and an uppercase ASCII letter
_TOKEN_BREAK = re.compile(r"[^0-9A-Za-z]+|(?<=[a-z])(?=[A-Z])")


def tokenize(s: str) -> list[str]:
    """Split on non-alphanumeric runs and camel-case boundaries, lowercased.

    Numeric tokens survive as-is; empty chunks are dropped.  The chunks hold
    ASCII letters and digits only, so they are lowercased and freed of the
    empty ones together, by one ``lower`` and ``split`` of their join.
    """
    return " ".join(_TOKEN_BREAK.split(s)).lower().split()


class FormTokens(NamedTuple):
    """The distinct textual forms of a manifest's candidate properties and
    values, each tokenized once.  Per form, in manifest order: the first
    resource that has it (``resources``) and its number of tokens
    (``counts``).  ``ids`` holds the forms' tokens one form after another,
    as indices into ``words``, which lists each distinct token once."""

    words: list[str]
    resources: list[Resource]
    counts: array
    ids: array


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entities: tuple[EntityDescription, ...]
    folds: tuple[FoldSpec, ...]

    @cached_property
    def form_tokens(self) -> FormTokens:
        """The manifest's ``FormTokens``, built on first use and kept with
        the manifest.  Each distinct resource is formed once."""
        resources = dict.fromkeys(r for entity in self.entities for t in entity.triples
                                  for r in (t.predicate, t.val))
        forms: dict[str, Resource] = {}
        for r in resources:
            forms.setdefault(textual_form(r), r)
        # 512 forms at a time go through tokenize's steps together: each
        # form's chunks joined on spaces as one line, the lines lowercased
        # and split at once.  A new token takes the next id.  Tokenizing
        # every form before taking ids raised the peak RSS by 2 MB
        index: defaultdict[str, int] = defaultdict(count().__next__)
        counts, ids = array("i"), array("i")
        split, names = _TOKEN_BREAK.split, list(forms)
        for start in range(0, len(names), 512):
            text = "\n".join([" ".join(split(form)) for form in names[start:start + 512]]).lower()
            counts.extend(map(len, map(str.split, text.split("\n"))))
            ids.extend(map(index.__getitem__, text.split()))
        return FormTokens(list(index), list(forms.values()), counts, ids)

    def entity(self, iri: str) -> EntityDescription:
        for e in self.entities:
            if e.entity.raw == iri:
                return e
        raise DataError(f"no entity with IRI {iri}")

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


class _Statement(NamedTuple):
    line_no: int
    subject: _Term
    predicate: _Term
    object: _Term

    def key(self) -> tuple[_Term, _Term, _Term]:
        return (self.subject, self.predicate, self.object)


_IRI_RE = re.compile(r'<([^<>"\s]+)>')
_BNODE_RE = re.compile(r'_:([A-Za-z0-9_][A-Za-z0-9._\-]*)')
# the body unrolled as runs of plain characters between escapes, which the
# regex engine takes in fewer steps than one alternation per character
_LITERAL_RE = re.compile(
    r'"([^"\\\n]*(?:\\.[^"\\\n]*)*)"(?:@([A-Za-z][A-Za-z0-9\-]*)|\^\^<([^<>"\s]+)>)?'
)

# int(s, 16) would also take spaces, a sign, underscores and non-ASCII digits
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")

_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}
# one escape: \u and \U with up to their 4 or 8 characters, else the one
# character after the backslash, none when it ends the body
_ESCAPE_RE = re.compile(r"\\(?:u(.{0,4})|U(.{0,8})|(.?))")


def _unescape_literal(body: str, line_no: int) -> str:
    if "\\" not in body:
        return body

    def unescape(m: re.Match) -> str:
        hex4, hex8, ch = m.groups()
        if ch is not None:
            if not ch:
                raise MalformedLine(line_no, "dangling escape in literal")
            if ch not in _ESCAPES:
                raise MalformedLine(line_no, f"unknown escape {m.group()}")
            return _ESCAPES[ch]
        hexpart, width = (hex4, 4) if hex8 is None else (hex8, 8)
        if len(hexpart) != width:
            raise MalformedLine(line_no, "truncated unicode escape")
        if not _HEX_RE.fullmatch(hexpart):
            raise MalformedLine(line_no, f"bad unicode escape {m.group()}")
        code = int(hexpart, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            raise MalformedLine(line_no, f"unicode escape {m.group()} is not a character")
        return chr(code)

    return _ESCAPE_RE.sub(unescape, body)


_SPACES_RE = re.compile(r"[ \t]*")


def _parse_term(line: str, pos: int, line_no: int) -> tuple[_Term, int]:
    """The term after the spaces and tabs at ``pos``, and where it ends."""
    pos = _SPACES_RE.match(line, pos).end()
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


def _parse_line(line: str, line_no: int) -> _Statement | None:
    """The statement on one line, term by term, or None for a blank line or
    a ``#`` comment; every ``MalformedLine`` comes from here."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    subject, pos = _parse_term(line, 0, line_no)
    if subject.kind is NodeKind.LITERAL:
        raise MalformedLine(line_no, "literal in subject position")
    predicate, pos = _parse_term(line, pos, line_no)
    if predicate.kind is not NodeKind.IRI:
        raise MalformedLine(line_no, "predicate must be an IRI")
    obj, pos = _parse_term(line, pos, line_no)
    rest = line[pos:].lstrip(" \t")
    if not rest.startswith("."):
        raise MalformedLine(line_no, "missing terminating '.'")
    if rest[1:].strip():
        raise MalformedLine(line_no, "trailing content after '.'")
    return _Statement(line_no, subject, predicate, obj)


# The tuple constructor itself: a NamedTuple's own ``__new__`` is a Python
# function, called for every term of every statement and every resource and
# triple of a description
_new_term = partial(tuple.__new__, _Term)
_new_statement = partial(tuple.__new__, _Statement)
_new_resource = partial(tuple.__new__, Resource)
_new_triple = partial(tuple.__new__, Triple)

# A blank node as ``_parse_term`` reads it: its id runs as far as it can, so
# ``_:b0.`` is the id ``b0.`` with no terminating '.'.  An IRI or a literal
# has only one way to match at a given column.
_WHOLE_BNODE = _BNODE_RE.pattern + r"(?![A-Za-z0-9._\-])"

# A whole statement line, spaced as ``_parse_term`` allows.  Groups: subject
# IRI or blank node; predicate IRI; object IRI, blank node, or literal body,
# language tag and datatype.
_STATEMENT_RE = re.compile(
    rf"[ \t]*(?:{_IRI_RE.pattern}|{_WHOLE_BNODE})"
    rf"[ \t]*{_IRI_RE.pattern}"
    rf"[ \t]*(?:{_IRI_RE.pattern}|{_WHOLE_BNODE}|{_LITERAL_RE.pattern})"
    r"[ \t]*\.[ \t]*"
)


def parse_statements(lines: Sequence[str]) -> list[_Statement]:
    """Parse all statements of a document given as its lines; blank lines
    and ``#`` comments skip.  A line takes one pattern match when it can;
    every other line goes term by term, so the errors are the term-by-term
    parser's.  A matched line's literal gets the same escape and emptiness
    checks as ``_parse_term`` gives it."""
    statements = []
    append, fullmatch = statements.append, _STATEMENT_RE.fullmatch
    new_term, new_statement = _new_term, _new_statement
    iri, blank, literal = NodeKind.IRI, NodeKind.BLANK, NodeKind.LITERAL
    for line_no, line in enumerate(lines, start=1):
        m = fullmatch(line)
        if m is None:
            st = _parse_line(line, line_no)
            if st is not None:
                append(st)
            continue
        s_iri, s_blank, p_iri, o_iri, o_blank, body, lang, datatype = m.groups()
        if o_iri is not None:
            obj = new_term((iri, o_iri, None, None))
        elif o_blank is not None:
            obj = new_term((blank, o_blank, None, None))
        else:
            body = _unescape_literal(body, line_no)
            if not body:
                raise MalformedLine(line_no, "empty literal")
            obj = new_term((literal, body, lang, datatype))
        if s_blank is None:
            subject = new_term((iri, s_iri, None, None))
        else:
            subject = new_term((blank, s_blank, None, None))
        append(new_statement((line_no, subject, new_term((iri, p_iri, None, None)), obj)))
    return statements


def _collect_labels(statements: Iterable[_Statement]) -> dict[tuple[NodeKind, str], str]:
    # first label in document order wins
    labels: dict[tuple[NodeKind, str], str] = {}
    for st in statements:
        if st.predicate.value == RDFS_LABEL and st.object.kind is NodeKind.LITERAL:
            key = (st.subject.kind, st.subject.value)
            labels.setdefault(key, st.object.value)
    return labels


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
    lines = text.splitlines()
    statements = parse_statements(lines)
    labels = _collect_labels(statements)

    # one Resource per distinct term; Resource is immutable, so sharing is
    # safe.  Labels are keyed by subjects, which are never literals, so no
    # literal gets a label.
    resources: dict[_Term, Resource] = {}
    get, new_resource, new_triple = resources.get, _new_resource, _new_triple
    entity = _new_term((NodeKind.IRI, entity_iri, None, None))
    triples: list[Triple] = []
    first_id: dict[tuple[_Term, _Term, _Term], int] = {}
    line_ids: dict[str, int | None] = {}
    for line_no, s, p, o in statements:
        line = lines[line_no - 1]
        subject_is_entity = s == entity
        if not (subject_is_entity or o == entity):
            line_ids[line] = None
            continue
        subject = get(s)
        if subject is None:
            subject = resources[s] = new_resource((s.kind, s.value, labels.get(s[:2])))
        predicate = get(p)
        if predicate is None:
            predicate = resources[p] = new_resource((p.kind, p.value, labels.get(p[:2])))
        obj = get(o)
        if obj is None:
            obj = resources[o] = new_resource((o.kind, o.value, labels.get(o[:2])))
        # a self-referential statement keeps the object side as its value
        val = obj if subject_is_entity else subject
        tid = len(triples)
        triples.append(new_triple((tid, subject, predicate, obj, val)))
        line_ids[line] = first_id.setdefault((s, p, o), tid)

    if not triples:
        raise DataError(f"no statement mentions <{entity_iri}>")
    return ParsedDescription(tuple(triples), first_id, line_ids)


# --------------------------------------------------------------------------
# input files to a manifest
# --------------------------------------------------------------------------

def _unreadable(path: str | Path, exc: OSError | ValueError) -> DataError:
    """The error for an input that cannot be opened or read: ``MissingFile``
    when it does not exist, else a ``DataError`` naming the path, also for a
    name the OS cannot take (a NUL or a lone surrogate in it)."""
    if isinstance(exc, FileNotFoundError):
        return MissingFile(path)
    reason = exc.strerror if isinstance(exc, OSError) else exc
    return DataError(f"{path}: cannot read ({reason})")


def open_input(path: str | Path) -> BinaryIO:
    """An input file opened for binary reading; ``_unreadable`` errors."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None


def read_bytes(path: str | Path) -> bytes:
    """The whole content of an input file; ``_unreadable`` errors, also for
    a directory.  No buffered file object: one descriptor, read to EOF."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
            while chunks[-1]:
                chunks.append(os.read(fd, 8192))
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None
    # without the empty last read, one chunk joins as itself, not a copy
    return b"".join(chunks[:-1])


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
    description line takes that line's id, and a file of only such lines
    is done with one lookup per line.  Otherwise the other lines are parsed
    in full, keeping their line numbers, before any line is matched, so a
    malformed line is reported ahead of an unmatched one."""
    lines = gold_text.splitlines()
    quick = list(map(parsed.line_ids.get, lines))
    if None not in quick:
        # through a set, as below: a frozenset of a list of five ids keeps a
        # table twice the size, 0.25 MB more over a tree's 1,000 such golds
        return frozenset(set(quick))
    ids: dict[int, int | None] = {}
    for line_no, line in enumerate(lines, start=1):
        if line in parsed.line_ids:
            ids[line_no] = parsed.line_ids[line]
            lines[line_no - 1] = ""
    if any(lines):
        for st in parse_statements(lines):
            ids[st.line_no] = parsed.first_id.get(st.key())
    found = set()
    for line_no in sorted(ids):
        if ids[line_no] is None:
            raise DataError(
                f"{source}: statement on line {line_no} does not occur in the "
                f"description of <{entity_iri}>"
            )
        found.add(ids[line_no])
    return frozenset(found)


def load_entity(
    iri: str, desc_file: str | Path, golds: Iterable[tuple[int, str, str | Path]]
) -> EntityDescription:
    """One entity from its description file and its ``(k, annotator,
    gold_file)`` summaries, kept in that order within each k; every gold
    statement must occur in the description.  A malformed statement, or a
    description that never mentions the entity, is a ``DataError`` naming
    the file."""
    text = read_text(desc_file)
    try:
        parsed = parse_description(text, iri)
    except DataError as exc:
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

    No two folds share an index, since a fold's checkpoint is named by it.
    The test list must be disjoint from both train and valid, train and test
    must be non-empty, every listed IRI must be a known entity, and the three
    lists together must cover every entity.  No entity is tested in two
    folds, so that each has one F1 in a run's reports.  Train and valid may
    overlap so that tiny corpora can reuse training entities for validation.
    """
    known = set(entity_iris)
    indices: set[int] = set()
    tested_in: dict[str, int] = {}
    for fold in folds:
        if fold.index in indices:
            raise DataError(f"fold {fold.index}: index used by an earlier fold")
        indices.add(fold.index)
        for name, part in (("train", fold.train), ("valid", fold.valid), ("test", fold.test)):
            if len(set(part)) != len(part):
                raise DataError(f"fold {fold.index}: duplicate entity in {name} list")
            unknown = [iri for iri in part if iri not in known]
            if unknown:
                raise DataError(f"fold {fold.index}: unknown entity in {name} list: {unknown[0]}")
        if not fold.train:
            raise DataError(f"fold {fold.index}: empty train list")
        if not fold.test:
            raise DataError(f"fold {fold.index}: empty test list")
        leaked = set(fold.test) & (set(fold.train) | set(fold.valid))
        if leaked:
            raise DataError(
                f"fold {fold.index}: test entity also in train/valid: {sorted(leaked)[0]}"
            )
        uncovered = known - set(fold.train) - set(fold.valid) - set(fold.test)
        if uncovered:
            raise DataError(f"fold {fold.index}: entity not assigned: {sorted(uncovered)[0]}")
        for iri in fold.test:
            if iri in tested_in:
                raise DataError(
                    f"fold {fold.index}: test entity also tested in fold {tested_in[iri]}: {iri}"
                )
            tested_in[iri] = fold.index


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
        raise DataError(f"{source}: duplicate entity iri {repeated[0]}")
    validate_folds(folds, iris)
    return DatasetManifest(name, tuple(entities), tuple(folds))


# one spelling per k, so that "02" and "2" cannot merge two gold lists; 18
# digits keep int() far from its digit limit
_GOLD_KEY_RE = re.compile(r"[1-9][0-9]{0,17}")


def gold_size(text: str, context: str) -> int:
    """The summary size k that ``text`` spells, or a ``DataError`` that
    starts with ``context`` when it is not k's one spelling."""
    if not _GOLD_KEY_RE.fullmatch(text):
        raise DataError(f"{context} {text!r} is not a positive integer "
                        "of at most 18 ASCII digits without a leading zero")
    return int(text)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}
_ABSENT = object()


def _check(value, kind: type, context: str):
    """``value`` when it has the JSON type ``kind``; ``true`` is no integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DataError(f"{context} must be {_JSON_TYPES[kind]}")
    return value


def _field(mapping: Mapping, key: str, context: str, kind: type = object, default=_ABSENT):
    """``mapping[key]`` of JSON type ``kind``, or ``default`` when absent."""
    value = mapping.get(key, default)
    if value is _ABSENT:
        raise DataError(f"{context}: missing field {key!r}")
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
    except (ValueError, RecursionError) as exc:  # also a too-long integer, deep nesting
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: top-level value must be an object")

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
            k = gold_size(k_str, f"{iri}: gold key")
            _check(summaries, list, f"{iri}: gold k={k}")
            if not summaries:
                raise DataError(f"{iri}: empty gold list for k={k}")
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

