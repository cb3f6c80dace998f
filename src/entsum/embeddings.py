"""Mean-of-word-vector embeddings of RDF resources, and vector files.

A resource embeds as the arithmetic mean of the pre-trained vectors of the
words in its textual form (``textual_form`` and ``tokenize``, defined in
``dataset``).  Words missing from the store are skipped and do not enter the
denominator; a resource whose words are all unknown embeds to the zero
vector.  Case is folded to lowercase on both sides for coverage.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .dataset import DatasetManifest, Resource, open_input, textual_form, tokenize
from .errors import DataError, ParseError
from .framing import Framing, read_framed, write_framed


class EmbeddingStore:
    """Words and their vectors, checked when built, whoever builds them:
    ``words`` distinct, non-empty and lowercase (the loader folds case),
    ``index`` each word's row of ``matrix``, a float64 ``len(words) x dim``
    array, made read-only, ``dim >= 1``, every component finite.  A matrix of
    another dtype is refused, not converted.  A failure is a ``DataError``
    naming the first bad word, or the dtype."""

    __slots__ = ("words", "index", "matrix", "dim")

    def __init__(self, words, matrix) -> None:
        self.words = words = tuple(words)
        self.index = _word_index(words)
        self.matrix = _store_matrix(words, matrix)
        self.dim = self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)


def _word_index(words: tuple) -> dict:
    """Each of ``words`` and its position, refusing the first word that is
    no distinct, non-empty lowercase string."""
    index = {}
    for i, word in enumerate(words):
        if (type(word) is not str or not word or word.lower() != word
                or index.setdefault(word, i) != i):
            raise DataError(f"words must be distinct, non-empty lowercase strings: {word!r}")
    return index


def _store_matrix(words: tuple, matrix) -> np.ndarray:
    """``matrix`` checked as the float64 matrix of ``words`` and made read-only."""
    def refuse(i: int, problem: str) -> DataError:
        named = f"vector of {words[i]!r} (row {i})" if i < len(words) else f"vector row {i}"
        return DataError(f"{named}: {problem}")

    try:  # rows of different lengths, or not two axes
        m = np.asarray(matrix)
        rows, dim = m.shape
    except ValueError:
        raise refuse(0, "the vectors do not form a matrix") from None
    if rows != len(words) or dim < 1:
        raise refuse(0 if dim < 1 else min(rows, len(words)),
                     f"{rows} vectors of dim {dim} for {len(words)} words")
    if m.dtype != np.float64:
        raise DataError(f"vector components of dtype {str(m.dtype)!r}, not float64")
    m.flags.writeable = False
    finite = np.isfinite(m).all(axis=1)
    if not finite.all():
        raise refuse(int(finite.argmin()), "non-finite vector component")
    return m


def embed_resource(r: Resource, store: EmbeddingStore) -> np.ndarray:
    """Mean of the store vectors of the resource's known tokens.

    The mean divides by the number of tokens actually found, so coverage does
    not shrink magnitudes.  Accumulation runs in token order to keep results
    reproducible bit for bit.
    """
    index, matrix = store.index, store.matrix
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for tok in tokenize(textual_form(r)):
        i = index.get(tok)
        if i is not None:
            acc += matrix[i]
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


def _parse_block(block: list, dim: int) -> np.ndarray:
    """The rows of queued ``(line_no, word, rest)`` lines, one per line.

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
        return np.array([_parse_line(line_no, rest, dim) for line_no, _, rest in block])
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ParseError(block[int(finite.argmin())][0], "non-finite vector component")
    return rows


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


VECTOR_STORE = Framing(marker="entsum-vectors", version=1, name="vector store",
                       kind="vector store", unit="vector component", sized_by="header")


def _read_store(path: Path, data: bytes, vocab: set[str]) -> EmbeddingStore:
    """Store ``path``, whose content is ``data``, as one matrix of the rows
    ``vocab`` keeps: a view of ``data`` when it keeps them all.  Every word
    of the file is checked, also those ``vocab`` drops."""
    def parse(doc: dict) -> tuple[tuple[int, list[str]], int]:
        words, dim = doc.get("words"), doc.get("dim")
        if type(words) is not list:
            raise DataError(f"{path}: words is not a JSON list")
        if type(dim) is not int or dim < 1:
            raise DataError(f"{path}: dim {dim!r} is not an integer >= 1")
        return (dim, words), len(words) * dim

    (dim, words), values = read_framed(path, data, VECTOR_STORE, parse)
    matrix = values.reshape(len(words), dim).astype(np.float64, copy=False)
    # a word that is no string is never kept, so the check below names it
    kept = [i for i, word in enumerate(words) if type(word) is str and word in vocab]
    try:
        if len(kept) < len(words):
            _word_index(words)
            words, matrix = [words[i] for i in kept], matrix[kept]
        return EmbeddingStore(words, matrix)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_vec_file(path: str | Path, vocab: set[str]) -> EmbeddingStore:
    """The vectors of the words of ``vocab`` in a vector store that
    ``save_vec_file`` wrote, or in a text file: an optional ``count dim``
    header, then ``word v1 ... v_dim`` per line.  A loaded vector must be
    finite.

    The file opens as ``dataset.open_input`` opens any input.  One whose
    first byte is ``{`` is a store, read by ``framing.read_framed`` from one
    copy of its bytes unless it cannot seek: its matrix is a view of them
    when ``vocab`` keeps every word, else one copy of the rows it keeps; a
    store that does not read is a ``DataError`` naming the file.  Every
    other file is text (``_read_text``): fields are separated by spaces, a
    run counting as one; words are lowercased, the first occurrence of a
    folded word winning, which for frequency-ordered files keeps the most
    frequent casing.  It is read as UTF-8, an undecodable byte reading as
    U+FFFD, and only ``\\n`` ends a line.  The first bad line of the file is
    a ``ParseError`` that names the file and the line.
    """
    path = Path(path)
    with open_input(path) as fh:
        if fh.peek(1)[:1] == b"{":
            if fh.seekable():  # one unbuffered read from the start: one copy
                fh.raw.seek(0)
                data = fh.raw.readall()
            else:  # a pipe: what the peek buffered, then the rest
                data = fh.read()
            return _read_store(path, data, vocab)
        try:
            return _read_text(fh, vocab)
        except ParseError as exc:
            exc.args = (f"{path}: {exc}",)  # still a ParseError with its line_no
            raise


def _read_text(fh, vocab: set[str]) -> EmbeddingStore:
    """The store of the text vector file open as ``fh``.

    Text is scanned as bytes, in blocks of whole lines from ``_line_blocks``.
    numpy counts the spaces of a block's lines and strips one space from
    either end.  A line with no two spaces in a row then has its fields
    separated by single spaces, so only its word is decoded; one with two in
    a row is collapsed first.  Splitting on bytes is exact: ``\\n`` and
    spaces never occur inside a multi-byte UTF-8 sequence, and decoding with
    ``errors="replace"`` never folds an ASCII byte into a replacement
    character.  Once the width is known, a block's lines of that width with
    no two spaces in a row and an ASCII word are settled from their bytes,
    since ``bytes.lower`` folds ASCII as ``str.lower`` does: kept if the
    lowercased word is in ``vocab``, dropped otherwise.
    Kept lines are parsed in blocks of ``PARSE_BLOCK`` by numpy's text
    reader (``_parse_block``); every value is the one ``float`` gives, and
    ``1_0``, which only ``float`` reads, still loads as 10.0.
    """
    kept: dict[str, None] = {}  # words queued or parsed, in file order
    pending: list[tuple[int, str, str]] = []
    matrix = None  # row i holds the vector of the i-th word kept once it is parsed
    dim: int | None = None

    def put(rows: np.ndarray) -> None:  # the rows of the last words queued
        nonlocal matrix
        if matrix is None:  # the vocabulary bounds the kept words
            matrix = np.empty((len(vocab), dim))
        matrix[len(kept) - len(rows):len(kept)] = rows

    words = {w.encode(): w for w in vocab if w.isascii()}
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
        settle = ~doubled & (n_spaces == dim) if dim else np.zeros_like(doubled)
        for s, e, n, odd, settled in zip((starts + lead).tolist(), (ends - trail).tolist(),
                                         n_spaces.tolist(), doubled.tolist(), settle.tolist()):
            line_no += 1
            line, word = buf, None
            if settled:
                i = buf.find(b" ", s, e)
                word = words.get(buf[s:i].lower())
                if word is None and buf[s:i].isascii():
                    continue
            if word is None:
                if odd:
                    line = b" ".join(p for p in buf[s:e].split(b" ") if p)
                    s, e, n = 0, len(line), line.count(b" ")
                if s >= e:
                    continue
                i = line.find(b" ", s, e) if n else e
                word = line[s:i].decode("utf-8", "replace")
                if line_no == 1 and n == 1:
                    try:
                        int(word)
                        header_dim = int(line[i + 1:e].decode("utf-8", "replace"))
                    except ValueError:
                        pass
                    else:
                        if header_dim < 1:
                            raise ParseError(1, f"header dim {header_dim} is below 1")
                        dim = header_dim
                        continue
                if dim is None and n:
                    dim = n
                if not n or n != dim:
                    if pending:  # an earlier kept line's error is reported first
                        _parse_block(pending, dim)
                    if not n:
                        raise ParseError(line_no, "no vector components")
                    raise ParseError(line_no, f"expected {dim} vector components, got {n}")
                word = word.lower()
                if word not in vocab:
                    continue
            if word in kept:  # a later casing of a word already kept
                continue
            kept[word] = None
            pending.append((line_no, word, line[i + 1:e].decode("utf-8", "replace")))
            if len(pending) >= PARSE_BLOCK:
                put(_parse_block(pending, dim))
                pending = []
    if pending:
        put(_parse_block(pending, dim))
    if dim is None:
        raise ParseError(1, "empty vector file")
    return EmbeddingStore(kept, np.empty((0, dim)) if matrix is None else matrix[:len(kept)])


def save_vec_file(store: EmbeddingStore, path: str | Path) -> None:
    """Write a vector store: a header of ``dim`` and the sorted words, then
    their rows in that order, which ``load_vec_file`` reads back to the same
    bits under a vocabulary of those words."""
    words = sorted(store.words)
    write_framed(path, VECTOR_STORE, {"dim": store.dim, "words": words},
                 map(store.matrix.__getitem__, map(store.index.__getitem__, words)))


def manifest_vocabulary(manifest: DatasetManifest) -> set[str]:
    """Every token the scorer could ask the store for: property and value
    tokens of every candidate triple."""
    return set(manifest.form_tokens.words)


def coverage_warnings(manifest: DatasetManifest, store: EmbeddingStore) -> list[str]:
    """Textual forms that embed to the zero vector under the given store,
    one warning per distinct form, naming the first resource that has it.
    Each distinct token is looked up in the store once, and numpy counts
    each form's known tokens."""
    words, resources, counts, ids = manifest.form_tokens
    known = np.fromiter(map(store.index.__contains__, words), dtype=bool, count=len(words))
    # known tokens among the forms' tokens up to each one, and up to each form
    seen = np.zeros(len(ids) + 1, dtype=np.intp)
    np.cumsum(known[np.asarray(ids)], out=seen[1:])
    counts = np.asarray(counts)
    ends = np.cumsum(counts)
    warnings = []
    for i in np.flatnonzero(seen[ends] == seen[ends - counts]).tolist():
        r = resources[i]
        warnings.append(
            f"all tokens unknown for {r.kind.value} {r.raw!r} (textual form {textual_form(r)!r})"
        )
    return warnings
