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

from .atomic import atomic_writer
from .dataset import DatasetManifest, NodeKind, Resource
from .errors import DataError, DimMismatch, ParseError


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


def load_vec_file(path: str | Path, vocab: set[str] | None = None) -> EmbeddingStore:
    """Read a text-format vector file: optional ``count dim`` header, then
    ``word v1 ... v_dim`` per line.  A loaded vector must be finite.

    Fields are separated by spaces; a run of spaces counts as one.  Words are
    lowercased; the first occurrence of a folded word wins, which for
    frequency-ordered files keeps the most frequent casing.  ``vocab``
    restricts loading to the given (lowercase) words.  Every line's field
    count is checked, but only the lines that are kept have their components
    parsed, each as a Python ``float``.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with path.open("r", encoding="utf-8", errors="replace", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").strip(" ")
            if "  " in line:
                line = " ".join(p for p in line.split(" ") if p)
            if not line:
                continue
            # fields are now separated by single spaces, so they can be
            # counted without splitting the lines that are not kept
            word, _, rest = line.partition(" ")
            n_values = rest.count(" ") + 1 if rest else 0
            if line_no == 1 and n_values == 1:
                try:
                    int(word), int(rest)
                except ValueError:
                    pass
                else:
                    dim = int(rest)
                    continue
            if not n_values:
                raise ParseError(line_no, "no vector components")
            if dim is None:
                dim = n_values
            elif n_values != dim:
                raise DimMismatch(line_no, dim, n_values)
            word = word.lower()
            if vocab is not None and word not in vocab:
                continue
            if word in vectors:
                continue
            try:
                vec = np.fromiter(map(float, rest.split(" ")), dtype=np.float64, count=n_values)
            except ValueError:
                raise ParseError(line_no, "non-numeric vector component")
            if not np.isfinite(vec).all():
                raise ParseError(line_no, "non-finite vector component")
            vectors[word] = vec
    if dim is None:
        raise ParseError(1, "empty vector file")
    return EmbeddingStore(dim, vectors)


# components formatted per block by save_vec_file: enough for a block of a
# 4-decimal file to repeat most of its values, few enough that a save adds
# under 2 MB to the peak memory
SAVE_BLOCK = 16384


def _component_texts(block: np.ndarray) -> list:
    """Per row of a float64 block, the ``repr`` of each component in order.

    Each distinct bit pattern is formatted once, so ``0.0`` and ``-0.0``
    are told apart.
    """
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    distinct = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return distinct[inverse.reshape(block.shape)].tolist()


def save_vec_file(store: EmbeddingStore, path: str | Path) -> None:
    """Write a store in the text format ``load_vec_file`` reads.

    Words are sorted for byte-stable output.  Components are converted to
    float64 and written as their ``repr``, so a round trip reproduces the
    exact doubles.  Rows are formatted in blocks of about ``SAVE_BLOCK``
    components, and each distinct value in a block is formatted once; the
    bytes are the same as formatting every component.

    A vector whose shape is not ``(dim,)``, that has a non-finite
    component, or that has no components at all raises ``DataError`` naming
    its word before anything is written.
    """
    words = sorted(store.vectors)
    for word in words:
        vec = np.asarray(store.vectors[word], dtype=np.float64)
        if vec.shape != (store.dim,) or not store.dim:
            problem = f"vector of shape {vec.shape} in a store of dim {store.dim}"
        elif not np.isfinite(vec).all():
            problem = "non-finite vector component"
        else:
            continue
        raise DataError(f"cannot save {word!r}: {problem}")
    per_block = max(1, SAVE_BLOCK // max(store.dim, 1))
    with atomic_writer(path) as fh:
        fh.write(f"{len(words)} {store.dim}\n")
        for start in range(0, len(words), per_block):
            chunk = words[start:start + per_block]
            block = np.stack([np.asarray(store.vectors[w], dtype=np.float64) for w in chunk])
            for word, texts in zip(chunk, _component_texts(block)):
                fh.write(f"{word} {' '.join(texts)}\n")


def _distinct_forms(manifest: DatasetManifest) -> dict[str, Resource]:
    """Each distinct textual form of a candidate triple's property or value,
    mapped to the first resource that has it, in manifest order."""
    forms: dict[str, Resource] = {}
    for entity in manifest.entities:
        for t in entity.triples:
            forms.setdefault(textual_form(t.prop), t.prop)
            forms.setdefault(textual_form(t.val), t.val)
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
        if not any(tok in store for tok in tokenize(form)):
            warnings.append(
                f"all tokens unknown for {r.kind.value} {r.raw!r} (textual form {form!r})"
            )
    return warnings
