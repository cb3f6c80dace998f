"""Textual forms of RDF resources and their mean-of-word-vector embeddings.

A resource embeds as the arithmetic mean of the pre-trained vectors of the
words in its textual form.  Words missing from the store are skipped and do
not enter the denominator; a resource whose words are all unknown embeds to
the zero vector.  Case is folded to lowercase on both sides for coverage.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_writer
from .dataset import DatasetManifest, NodeKind, Resource
from .errors import DataError, ParseError


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


_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")
_CAMEL = re.compile(r"(?<=[a-z])(?=[A-Z])")


def tokenize(s: str) -> list[str]:
    """Split on non-alphanumeric runs and camel-case boundaries, lowercased.

    Numeric tokens survive as-is; empty chunks are dropped.
    """
    tokens = []
    for chunk in _NON_ALNUM.split(s):
        if not chunk:
            continue
        for part in _CAMEL.split(chunk):
            tokens.append(part.lower())
    return tokens


def resource_tokens(r: Resource) -> list[str]:
    return tokenize(textual_form(r))


@dataclass
class EmbeddingStore:
    """Word to vector map with a fixed dimensionality; words stored lowercase."""

    dim: int
    vectors: dict[str, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def embed_resource(r: Resource, store: EmbeddingStore) -> np.ndarray:
    """Mean of the store vectors of the resource's known tokens.

    The mean divides by the number of tokens actually found, so coverage does
    not shrink magnitudes.  Accumulation runs in token order to keep results
    reproducible bit for bit.
    """
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for tok in resource_tokens(r):
        vec = store.vectors.get(tok)
        if vec is not None:
            acc += vec
            covered += 1
    if covered > 0:
        acc /= covered
    return acc


# kept lines parsed per np.loadtxt call by load_vec_file
PARSE_BLOCK = 256
# ASCII separators that numpy's reader strips from around a number, as
# Unicode whitespace, and that ``float`` refuses
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_line(line_no: int, rest: str, dim: int) -> np.ndarray:
    """The components of one kept line, each parsed by ``float``."""
    try:
        vec = np.fromiter(map(float, rest.split(" ")), dtype=np.float64, count=dim)
    except ValueError:
        raise ParseError(line_no, "non-numeric vector component")
    if not np.isfinite(vec).all():
        raise ParseError(line_no, "non-finite vector component")
    return vec


def _parse_block(block: list, dim: int, vectors: dict[str, np.ndarray]) -> None:
    """Parse queued ``(line_no, word, rest)`` lines into ``vectors``.

    numpy's text reader parses each field with the same C function as
    ``float``, so a block it accepts gets ``float``'s values.  A block it
    refuses (``1_0``, non-ASCII digits), warns about, or reads into another
    shape is parsed line by line with ``float``, which also finds its first
    bad line.  So is a block with one of ``_NUMPY_ONLY_SPACE``, the only
    characters numpy reads where ``float`` does not.
    """
    rests = [rest for _, _, rest in block]
    rows = None
    if not any(c in rest for rest in rests for c in _NUMPY_ONLY_SPACE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # max_rows lets numpy allocate the rows once instead of growing them
                rows = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None,
                                  ndmin=2, max_rows=len(rests))
        except (ValueError, Warning):
            pass
    if rows is None or rows.shape != (len(block), dim):
        for line_no, word, rest in block:
            vectors[word] = _parse_line(line_no, rest, dim)
        return
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ParseError(block[int(finite.argmin())][0], "non-finite vector component")
    vectors.update(zip((word for _, word, _ in block), rows))


# bytes read per block by load_vec_file's line scan; a line longer than
# one read is joined, never split.  Smaller reads give numpy too few lines
# per call; larger ones cost memory, 4 bytes per byte while spaces are
# counted, for no speed
SCAN_BLOCK = 65536


def _line_blocks(fh):
    """``(buf, size)`` for each block of whole lines of a binary file:
    ``buf[:size]`` holds them, each ending in ``\\n``."""
    pieces = []
    while data := fh.read(SCAN_BLOCK):
        pieces.append(data)
        cut = data.rfind(b"\n") + 1
        if cut:
            buf = b"".join(pieces)
            size = len(buf) - len(data) + cut
            yield buf, size
            pieces = [buf[size:]]
    tail = b"".join(pieces)
    if tail:
        yield tail + b"\n", len(tail) + 1


def _scan_lines(fh, words, width):
    """``(line_no, word, n_values, rest, folded)`` for each line of a binary
    vector file that holds more than spaces, after stripping its spaces and
    collapsing their runs.  ``rest``, the bytes after the first space, is
    not decoded.

    numpy counts the spaces of a block's lines and strips one space from
    either end.  A line with no two spaces in a row then has its fields
    separated by single spaces, so only its word is decoded here; one with
    two in a row is collapsed first.  Splitting on bytes is exact: ``\\n``
    and spaces never occur inside a multi-byte UTF-8 sequence, and decoding
    with ``errors="replace"`` never folds an ASCII byte into a replacement
    character.

    ``words`` maps the ASCII words of a vocabulary, as bytes, to themselves,
    or is None; ``width()`` is the number of values every line must have, or
    0 while it is unknown, and is asked once per block.  Given both, a line
    of that many values with no two spaces in a row and an ASCII word is
    settled from its bytes, since ``bytes.lower`` folds ASCII as
    ``str.lower`` does: it is left out unless its lowercased word is in
    ``words``, and then comes with that word as a ``str``, ``folded``.
    Every other line comes with its word decoded as it is.
    """
    line_no = 0
    for buf, size in _line_blocks(fh):
        a = np.frombuffer(buf, dtype=np.uint8, count=size)
        ends = np.flatnonzero(a == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))
        sp = a == 32
        doubled = np.zeros(len(ends), dtype=bool)
        doubled[np.searchsorted(ends, np.flatnonzero(sp[1:] & sp[:-1]))] = True
        # ends - 1 of an empty first line is -1, the block's last newline;
        # a line of one space is left with its start past its end
        lead, trail = sp[starts], sp[ends - 1]
        # counted in 4 bytes a byte, unless a count could reach 2**32
        counts = np.add.reduceat(sp.view(np.uint8), starts,
                                 dtype=np.uint32 if size < 2**32 else np.intp)
        n_spaces = counts.astype(np.intp) - lead - trail
        settle = np.zeros_like(doubled)
        if words is not None and width() > 0:
            settle = ~doubled & (n_spaces == width())
        for s, e, n, odd, settled in zip((starts + lead).tolist(), (ends - trail).tolist(),
                                         n_spaces.tolist(), doubled.tolist(), settle.tolist()):
            line_no += 1
            if settled:
                i = buf.find(b" ", s, e)
                word = words.get(buf[s:i].lower())
                if word is not None:
                    yield line_no, word, n, buf[i + 1:e], True
                    continue
                if buf[s:i].isascii():
                    continue
            line = buf
            if odd:
                line = b" ".join(p for p in buf[s:e].split(b" ") if p)
                s, e, n = 0, len(line), line.count(b" ")
            if s >= e:
                continue
            i = line.find(b" ", s, e) if n else e
            yield line_no, line[s:i].decode("utf-8", "replace"), n, line[i + 1:e], False


def load_vec_file(path: str | Path, vocab: set[str] | None = None) -> EmbeddingStore:
    """Read a text-format vector file: optional ``count dim`` header, then
    ``word v1 ... v_dim`` per line.  A loaded vector must be finite.

    Fields are separated by spaces; a run of spaces counts as one.  Words are
    lowercased; the first occurrence of a folded word wins, which for
    frequency-ordered files keeps the most frequent casing.  ``vocab``
    restricts loading to the given (lowercase) words.  The file is read as
    UTF-8, an undecodable byte reading as U+FFFD, and only ``\\n`` ends a
    line.  It is scanned as bytes, in blocks of ``SCAN_BLOCK``: every line's
    field count is checked, but only the kept lines and the words of lines
    that get the full per-line work are decoded, and only kept lines have
    their components parsed.

    With ``vocab``, from the first block after the width is known (from the
    header or the first line) and if it is not 0, a line of that width with
    no two spaces in a row and an ASCII word is kept or dropped on its
    word's ASCII lowercasing as bytes; a dropped one is not decoded and gets
    no other per-line work.  Blank lines, the header, lines of another width
    (errors), lines with two spaces in a row and lines whose word is not
    ASCII (the Kelvin sign lowercases to ``k``) get the full per-line work.
    Kept lines are parsed in blocks of ``PARSE_BLOCK`` by numpy's text
    reader; every value is the one ``float`` gives, and a component only
    ``float`` reads, such as ``1_0`` (10.0), still loads.  Errors are
    reported for the first bad line of the file.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    pending: list[tuple[int, str, str]] = []
    dim: int | None = None
    words = None if vocab is None else {w.encode(): w for w in vocab if w.isascii()}
    with path.open("rb") as fh:
        for line_no, word, n_values, rest, folded in _scan_lines(fh, words, lambda: dim or 0):
            if line_no == 1 and n_values == 1:
                try:
                    int(word)
                    header_dim = int(rest.decode("utf-8", "replace"))
                except ValueError:
                    pass
                else:
                    dim = header_dim
                    continue
            if dim is None and n_values:
                dim = n_values
            if not n_values or n_values != dim:
                if pending:  # an earlier kept line's error is reported first
                    _parse_block(pending, dim, vectors)
                if not n_values:
                    raise ParseError(line_no, "no vector components")
                raise ParseError(line_no, f"expected {dim} vector components, got {n_values}")
            if not folded:
                word = word.lower()
                if vocab is not None and word not in vocab:
                    continue
            if word in vectors:
                continue
            vectors[word] = None  # queued: later casings of the word are dropped
            pending.append((line_no, word, rest.decode("utf-8", "replace")))
            if len(pending) >= PARSE_BLOCK:
                _parse_block(pending, dim, vectors)
                pending = []
    if pending:
        _parse_block(pending, dim, vectors)
    if dim is None:
        raise ParseError(1, "empty vector file")
    return EmbeddingStore(dim, vectors)


# components formatted per block by save_vec_file: enough for a block of a
# 4-decimal file to repeat most of its values, few enough that a save adds
# under 2 MB to the peak memory
SAVE_BLOCK = 16384


def _component_texts(block: np.ndarray, carried: tuple) -> tuple[list, tuple]:
    """Per row of a float64 block, the ``repr`` of each component in order,
    and the block's table to carry into the next call: its distinct bit
    patterns, sorted, and their texts.

    Each distinct bit pattern is formatted once, and not at all when it is
    in ``carried``, the previous block's table; so ``0.0`` and ``-0.0`` are
    told apart.
    """
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    known_bits, known_texts = carried
    at = np.searchsorted(known_bits, bits)
    hit = at < len(known_bits)
    hit[hit] = known_bits[at[hit]] == bits[hit]
    texts = np.empty(len(bits), dtype=object)
    texts[hit] = known_texts[at[hit]]
    miss = ~hit
    texts[miss] = list(map(repr, bits[miss].view(np.float64).tolist()))
    return texts[inverse.reshape(block.shape)].tolist(), (bits, texts)


def _cannot_save(word: str, problem: str) -> DataError:
    return DataError(f"cannot save {word!r}: {problem}")


def _savable_row(word: str, vec, dim: int) -> np.ndarray:
    """``vec`` converted to float64, or ``DataError`` if ``save_vec_file``
    cannot write the word and vector so that the loader reads them back.
    Finiteness is left to ``_refuse_non_finite``, once per block."""
    if not word or " " in word or "\n" in word:
        raise _cannot_save(word, "a word must be non-empty and hold no space or newline")
    if word.lower() != word:
        raise _cannot_save(word, "the loader lowercases words, so a word must be lowercase")
    try:
        word.encode("utf-8")
    except UnicodeEncodeError:
        raise _cannot_save(word, "word not encodable as UTF-8") from None
    try:
        row = np.asarray(vec, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _cannot_save(word, f"component not convertible to float64 ({exc})") from None
    if row.shape != (dim,) or not dim:
        raise _cannot_save(word, f"vector of shape {row.shape} in a store of dim {dim}")
    return row


def _refuse_non_finite(chunk: list[str], block: np.ndarray) -> None:
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise _cannot_save(chunk[int(finite.argmin())], "non-finite vector component")


def save_vec_file(store: EmbeddingStore, path: str | Path) -> None:
    """Write a store in the text format ``load_vec_file`` reads.

    Words are sorted for byte-stable output.  Components are converted to
    float64 and written as their ``repr``, so a round trip reproduces the
    exact doubles.  Rows are converted, checked and formatted in blocks of
    about ``SAVE_BLOCK`` components.  Each distinct value of a block is
    formatted once, and a value the previous block also held is not
    formatted again; the bytes are the same as formatting every component.

    A word that is empty, holds a space or a newline, is not lowercase
    (``word.lower() != word``, which the loader would fold into another
    word), or does not encode as UTF-8, and a vector with a component that
    does not convert to float64, whose shape is not ``(dim,)``, that has a
    non-finite component, or that has no components at all raise
    ``DataError`` naming the first such word in sorted order; the target is
    then left as it was, and no temporary file is left behind.
    """
    words = sorted(store.vectors)
    per_block = max(1, SAVE_BLOCK // max(store.dim, 1))
    carried = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=object))
    with atomic_writer(path) as fh:
        fh.write(f"{len(words)} {store.dim}\n")
        for start in range(0, len(words), per_block):
            chunk = words[start:start + per_block]
            block = np.empty((len(chunk), max(store.dim, 0)), dtype=np.float64)
            for i, word in enumerate(chunk):
                try:
                    block[i] = _savable_row(word, store.vectors[word], store.dim)
                except DataError:
                    _refuse_non_finite(chunk[:i], block[:i])  # an earlier word comes first
                    raise
            _refuse_non_finite(chunk, block)
            texts, carried = _component_texts(block, carried)
            fh.write("".join(f"{word} {' '.join(row)}\n" for word, row in zip(chunk, texts)))


def _distinct_forms(manifest: DatasetManifest) -> dict[str, Resource]:
    """Each distinct textual form of a candidate triple's property or value,
    mapped to the first resource that has it, in manifest order.  Each
    distinct resource is formed once."""
    resources = dict.fromkeys(r for entity in manifest.entities for t in entity.triples
                              for r in (t.predicate, t.val))
    forms: dict[str, Resource] = {}
    for r in resources:
        forms.setdefault(textual_form(r), r)
    return forms


def manifest_vocabulary(manifest: DatasetManifest) -> set[str]:
    """Every token the scorer could ask the store for: property and value
    tokens of every candidate triple."""
    vocab: set[str] = set()
    for form in _distinct_forms(manifest):
        vocab.update(tokenize(form))
    return vocab


def coverage_warnings(manifest: DatasetManifest, store: EmbeddingStore) -> list[str]:
    """Textual forms that embed to the zero vector under the given store,
    one warning per distinct form, naming the first resource that has it."""
    warnings = []
    for form, r in _distinct_forms(manifest).items():
        if store.vectors.keys().isdisjoint(tokenize(form)):
            warnings.append(
                f"all tokens unknown for {r.kind.value} {r.raw!r} (textual form {form!r})"
            )
    return warnings
