"""Textual forms of RDF resources and their mean-of-word-vector embeddings.

A resource embeds as the arithmetic mean of the pre-trained vectors of the
words in its textual form.  Words missing from the store are skipped and do
not enter the denominator; a resource whose words are all unknown embeds to
the zero vector.  Case is folded to lowercase on both sides for coverage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import DatasetManifest, NodeKind, Resource
from .errors import DimMismatch, ParseError


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


@dataclass(frozen=True)
class ResourceEmbedding:
    vector: np.ndarray
    covered: int
    total: int


def embed_resource(r: Resource, store: EmbeddingStore) -> ResourceEmbedding:
    """Mean of the store vectors of the resource's known tokens.

    The mean divides by the number of tokens actually found, so coverage does
    not shrink magnitudes.  Accumulation runs in token order to keep results
    reproducible bit for bit.
    """
    tokens = resource_tokens(r)
    acc = np.zeros(store.dim, dtype=np.float64)
    covered = 0
    for tok in tokens:
        vec = store.vectors.get(tok)
        if vec is not None:
            acc += vec
            covered += 1
    if covered > 0:
        acc /= covered
    return ResourceEmbedding(acc, covered, len(tokens))


def load_vec_file(path: str | Path, vocab: set[str] | None = None) -> EmbeddingStore:
    """Read a text-format vector file: optional ``count dim`` header, then
    ``word v1 ... v_dim`` per line.  A loaded vector must be finite.

    Words are lowercased; the first occurrence of a folded word wins, which
    for frequency-ordered files keeps the most frequent casing.  ``vocab``
    restricts loading to the given (lowercase) words.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open("r", encoding="utf-8", errors="replace", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    pass
                else:
                    dim = int(parts[1])
                    continue
            word, values = parts[0], parts[1:]
            if not values:
                raise ParseError(line_no, "no vector components")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DimMismatch(line_no, dim, len(values))
            word = word.lower()
            if vocab is not None and word not in vocab:
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
    return EmbeddingStore(dim, vectors)


def save_vec_file(store: EmbeddingStore, path: str | Path) -> None:
    """Write a store in the text format ``load_vec_file`` reads.

    Floats are serialized with ``repr`` so a round trip reproduces the exact
    doubles; words are sorted for byte-stable output.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(store.vectors)} {store.dim}\n")
        for word in sorted(store.vectors):
            values = " ".join(repr(float(v)) for v in store.vectors[word])
            fh.write(f"{word} {values}\n")


def manifest_vocabulary(manifest: DatasetManifest) -> set[str]:
    """Every token the scorer could ask the store for: property and value
    tokens of every candidate triple."""
    vocab: set[str] = set()
    for entity in manifest.entities:
        for t in entity.triples:
            vocab.update(resource_tokens(t.prop))
            vocab.update(resource_tokens(t.val))
    return vocab


def load_word_list(path: str | Path) -> set[str]:
    """One word per line, lowercased; used as a vocabulary filter."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word:
            words.add(word)
    return words


def coverage_warnings(manifest: DatasetManifest, store: EmbeddingStore) -> list[str]:
    """Resources that embed to the zero vector under the given store."""
    warnings = []
    seen: set[tuple[NodeKind, str]] = set()
    for entity in manifest.entities:
        for t in entity.triples:
            for r in (t.prop, t.val):
                key = (r.kind, r.raw)
                if key in seen:
                    continue
                seen.add(key)
                emb = embed_resource(r, store)
                if emb.covered == 0:
                    warnings.append(
                        f"all tokens unknown for {r.kind.value} "
                        f"{r.raw!r} (textual form {textual_form(r)!r})"
                    )
    return warnings
