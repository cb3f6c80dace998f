"""Context-aware triple scorer.

Each candidate triple is encoded from the textual embeddings of its property
and value.  The whole description is condensed into one vector by attention
pooling: every triple gets a context representation, the candidate's encoding
is compared to each of them by cosine similarity, the similarities are
softmax-normalized, and the weighted context representations are summed.
Candidate encoding and pooled description vector are concatenated and mapped
to a scalar salience score.

A description is scored in one batched pass: the three MLPs run on n x dim
matrices, the n x n attention is ``softmax(cosine(C, G))`` and the pooled
vectors are ``A @ G``; training runs the matching matrix chain rule backward.
The rows are in ascending triple-id order no matter how the input list is
ordered, which makes the scores bit-exactly invariant under permutations of
the input.

``ModelConfig`` is the only description of the architecture: every layer's
shape follows from the embedding width and the hidden sizes, the encoders end
in ReLU and the scoring head in one linear unit.  Every weight matrix and bias
is a view into one float64 vector, ``TripleScorer.flat``, in ``parameters()``
order.  A checkpoint is therefore one JSON header line holding the config
and a meta mapping, followed by ``flat`` as raw little-endian float64 bytes.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import ItemsView, Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .atomic import atomic_writer
from .dataset import EntityDescription, Resource, Triple, decode_text, read_bytes
from .embeddings import EmbeddingStore, embed_resource
from .errors import CorruptCheckpoint, NumericError, ShapeMismatch, VersionMismatch
from .nn import (
    Activation,
    Mlp,
    cosine,
    cosine_backward,
    mse_loss,
    softmax,
    softmax_backward,
)

# a triple's initial representation: property embedding then value embedding
TripleVector = np.ndarray

CHECKPOINT_FORMAT = "entsum-scorer"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 300
    candidate_hidden: tuple[int, ...] = (64, 64)
    context_hidden: tuple[int, ...] = (64, 64)
    scoring_hidden: tuple[int, ...] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        for name in ("candidate_hidden", "context_hidden", "scoring_hidden"):
            dims = getattr(self, name)
            if not dims or any(not isinstance(d, int) or d < 1 for d in dims):
                raise ValueError(f"{name} must be non-empty positive dims, got {dims}")
        if not isinstance(self.embed_dim, int) or self.embed_dim < 1:
            raise ValueError("embed_dim must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def triple_dim(self) -> int:
        return 2 * self.embed_dim

    @property
    def scoring_input_dim(self) -> int:
        return self.candidate_hidden[-1] + self.context_hidden[-1]

    def mlp_dims(self) -> tuple[list[int], list[int], list[int]]:
        """Layer widths of the candidate encoder, context encoder and scoring head."""
        return (
            [self.triple_dim, *self.candidate_hidden],
            [self.triple_dim, *self.context_hidden],
            [self.scoring_input_dim, *self.scoring_hidden, 1],
        )

    @property
    def parameter_count(self) -> int:
        return sum(
            (d_in + 1) * d_out
            for dims in self.mlp_dims()
            for d_in, d_out in zip(dims, dims[1:])
        )


class AttentionView(Mapping):
    """Read-only ``(candidate_id, context_id) -> weight`` view over the n x n
    attention matrix, whose rows and columns follow ``ids``.

    It holds the matrix, not n² Python tuples.  Keys iterate as
    ``itertools.product(ids, ids)`` and each weight is the Python float of
    its matrix entry, so it equals the dict ``dict(zip(product(ids, ids),
    A.ravel().tolist()))``.  A key that is not a pair of ids is a
    ``KeyError``.
    """

    __slots__ = ("_ids", "_A", "_index")

    def __init__(self, ids: Sequence[int], A: np.ndarray):
        self._ids = tuple(ids)
        self._A = A.view()
        self._A.flags.writeable = False
        self._index = {tid: i for i, tid in enumerate(self._ids)}

    @property
    def matrix(self) -> np.ndarray:
        """The n x n weights, read-only; row i is candidate ``ids[i]``."""
        return self._A

    def __getitem__(self, key) -> float:
        if type(key) is not tuple or len(key) != 2:
            raise KeyError(key)
        try:
            return float(self._A[self._index[key[0]], self._index[key[1]]])
        except (KeyError, TypeError):  # an unknown or unhashable id
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return itertools.product(self._ids, self._ids)

    def __len__(self) -> int:
        return len(self._ids) ** 2

    def items(self) -> ItemsView:
        return _AttentionItems(self)

    def row(self, candidate_id: int) -> dict[int, float]:
        """The weights one candidate put on each context id."""
        return dict(zip(self._ids, self._A[self._index[candidate_id]].tolist()))


class _AttentionItems(ItemsView):
    """Iterates as one zip over the keys and the matrix's floats, not one
    lookup per key."""

    def __iter__(self):
        view = self._mapping
        return zip(iter(view), view.matrix.ravel().tolist())


@dataclass(frozen=True)
class ScoredDescription:
    """Scores per triple id plus the attention weights behind them.

    ``attention[(candidate_id, context_id)]`` is the weight the candidate
    put on the context triple; weights over all context ids sum to one.
    ``score_description`` fills it with an ``AttentionView``.
    """

    entity: Resource
    scores: Mapping[int, float]
    attention: Mapping[tuple[int, int], float] = field(default_factory=dict)


def encode_triple(t: Triple, store: EmbeddingStore) -> TripleVector:
    """Concatenate the property embedding and the value embedding."""
    return np.concatenate([embed_resource(t.prop, store), embed_resource(t.val, store)])


def encode_description(
    desc: EntityDescription, store: EmbeddingStore
) -> list[tuple[int, TripleVector]]:
    """``encode_triple`` of every triple, embedding each distinct resource
    once."""
    embedded: dict[Resource, np.ndarray] = {}

    def embed(r: Resource) -> np.ndarray:
        vec = embedded.get(r)
        if vec is None:
            vec = embedded[r] = embed_resource(r, store)
        return vec

    return [(t.id, np.concatenate([embed(t.prop), embed(t.val)])) for t in desc.triples]


class TripleScorer:
    """The three-MLP scorer: candidate encoder, context encoder, scoring head.

    The MLPs' parameters are copied into ``flat``, and each layer's ``W`` and
    ``b`` become views of their slice of it, so writing ``flat`` sets every
    parameter and writing a parameter in place changes ``flat``.
    """

    def __init__(self, config: ModelConfig, candidate_mlp: Mlp, context_mlp: Mlp,
                 scoring_mlp: Mlp):
        self.config = config
        self.candidate_mlp = candidate_mlp
        self.context_mlp = context_mlp
        self.scoring_mlp = scoring_mlp
        self.flat = np.concatenate([p.ravel() for p in self.parameters()])
        offset = 0
        for layer in (*candidate_mlp.layers, *context_mlp.layers, *scoring_mlp.layers):
            layer.W = self.flat[offset:offset + layer.W.size].reshape(layer.W.shape)
            offset += layer.W.size
            layer.b = self.flat[offset:offset + layer.b.size]
            offset += layer.b.size

    @classmethod
    def create(cls, config: ModelConfig) -> "TripleScorer":
        """Seeded initialization; the three MLPs draw from one generator in a
        fixed order, so equal seeds give bit-identical parameters."""
        rng = np.random.default_rng(config.seed)
        candidate, context, scoring = config.mlp_dims()
        return cls(
            config,
            Mlp.create(candidate, Activation.RELU, rng),
            Mlp.create(context, Activation.RELU, rng),
            Mlp.create(scoring, Activation.LINEAR, rng),
        )

    def parameters(self) -> list[np.ndarray]:
        return (
            self.candidate_mlp.parameters()
            + self.context_mlp.parameters()
            + self.scoring_mlp.parameters()
        )

    # -- forward ----------------------------------------------------------

    def _sorted_vectors(
        self, vectors: Sequence[tuple[int, TripleVector]]
    ) -> tuple[list[int], np.ndarray]:
        """Triple ids in ascending order and the n x 2d matrix of their vectors."""
        if not vectors:
            raise ShapeMismatch("cannot score an empty description")
        pairs = sorted(vectors, key=lambda pair: pair[0])
        ids = [tid for tid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise ShapeMismatch("duplicate triple id in description vectors")
        dim = self.config.triple_dim
        for tid, vec in pairs:
            if np.shape(vec) != (dim,):
                raise ShapeMismatch(
                    f"triple {tid}: vector length {np.shape(vec)} does not match "
                    f"2*embed_dim = {dim}"
                )
        return ids, np.array([vec for _, vec in pairs], dtype=np.float64)

    def _forward(self, X: np.ndarray):
        """Scores for the rows of X plus what the backward pass needs:
        attention ``A = softmax(cosine(C, G))`` of the candidate encodings C
        over the context encodings G, pooled ``P = A @ G``, and the scoring
        head on ``[C | P]``."""
        C, cand_cache = self.candidate_mlp.forward(X)
        G, ctx_cache = self.context_mlp.forward(X)
        A = softmax(cosine(C, G))
        out, score_cache = self.scoring_mlp.forward(np.hstack([C, A @ G]))
        return out[:, 0], (C, G, A, cand_cache, ctx_cache, score_cache)

    def score_description(
        self, entity: Resource, vectors: Sequence[tuple[int, TripleVector]]
    ) -> ScoredDescription:
        """Score every candidate in the context of the full description; a
        non-finite score is a ``NumericError``."""
        ids, X = self._sorted_vectors(vectors)
        scores, (_, _, A, *_) = self._forward(X)
        if not np.isfinite(scores).all():
            raise NumericError(f"{entity.raw}: non-finite triple score")
        return ScoredDescription(
            entity, dict(zip(ids, scores.tolist())), AttentionView(ids, A)
        )

    def score_entity(
        self, desc: EntityDescription, store: EmbeddingStore
    ) -> ScoredDescription:
        return self.score_description(desc.entity, encode_description(desc, store))

    # -- training ---------------------------------------------------------

    def loss_and_gradients(
        self,
        vectors: Sequence[tuple[int, TripleVector]],
        targets: Mapping[int, float],
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error over all candidates and exact parameter
        gradients, ordered like ``parameters()``."""
        ids, X = self._sorted_vectors(vectors)
        missing = [tid for tid in ids if tid not in targets]
        if missing:
            raise ShapeMismatch(f"no supervision target for triple ids {missing}")
        scores, (C, G, A, cand_cache, ctx_cache, score_cache) = self._forward(X)
        target_vec = np.array([targets[tid] for tid in ids], dtype=np.float64)
        loss, dscores = mse_loss(scores, target_vec)

        dJ, grads_s = self.scoring_mlp.backward(score_cache, dscores[:, None])
        dC, dP = np.hsplit(dJ, [C.shape[1]])
        dC_cos, dG_cos = cosine_backward(C, G, softmax_backward(A, dP @ G.T))
        _, grads_c = self.candidate_mlp.backward(cand_cache, dC + dC_cos)
        _, grads_d = self.context_mlp.backward(ctx_cache, A.T @ dP + dG_cos)
        return loss, grads_c + grads_d + grads_s


def select_summary(scored: ScoredDescription, k: int) -> list[int]:
    """The min(k, n) highest-scoring triple ids, descending score, ties to
    the lower id."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ranked = sorted(scored.scores.items(), key=lambda item: (-item[1], item[0]))
    return [tid for tid, _ in ranked[:k]]


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def save_checkpoint(
    model: TripleScorer, path: str | Path, meta: Mapping[str, object] | None = None
) -> None:
    """Write a header line, then every parameter as raw bytes.

    The header is compact sorted-key JSON of ``format``, ``version``,
    ``config`` and ``meta``, ended by a newline.  Exactly
    ``8 * config.parameter_count`` bytes follow: ``model.flat`` as
    little-endian float64.  Equal models give byte-equal files."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "meta": dict(meta or {}),
    }
    with atomic_writer(path) as fh:
        fh.buffer.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.buffer.write(model.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[TripleScorer, dict]:
    """Rebuild a scorer from ``save_checkpoint`` output; returns the model and
    the stored meta mapping.

    The header is the bytes before the first newline, read as strict UTF-8
    JSON.  Its format marker, version and config are checked in that order,
    then the length of the bytes after it against the config, before any
    parameter array is allocated, and last that every value is finite.  A
    version 1 or 2 file, which is one JSON line, is refused by version."""
    data = read_bytes(path)
    cut = data.find(b"\n")
    if cut < 0:
        raise CorruptCheckpoint(f"{path}: no header line")
    try:
        doc = json.loads(decode_text(data[:cut], path))
    except (ValueError, RecursionError) as exc:  # also a too-long integer, deep nesting
        raise CorruptCheckpoint(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: not a scorer checkpoint")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"{path}: checkpoint version {version!r}, supported {CHECKPOINT_VERSION}"
        )
    try:
        cfg_doc = doc["config"]
        config = ModelConfig(
            embed_dim=cfg_doc["embed_dim"],
            candidate_hidden=tuple(cfg_doc["candidate_hidden"]),
            context_hidden=tuple(cfg_doc["context_hidden"]),
            scoring_hidden=tuple(cfg_doc["scoring_hidden"]),
            seed=int(cfg_doc["seed"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
    size = len(data) - cut - 1
    if size != 8 * config.parameter_count:
        raise CorruptCheckpoint(
            f"{path}: {size} parameter bytes, the config needs "
            f"{8 * config.parameter_count}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=cut + 1)
    if not np.isfinite(values).all():
        raise CorruptCheckpoint(f"{path}: non-finite parameter")
    model = TripleScorer.create(config)
    model.flat[...] = values
    meta = doc.get("meta", {})
    return model, meta if isinstance(meta, dict) else {}
