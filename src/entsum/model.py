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
the input.  ``encode_description`` builds that matrix once per entity, as an
``EncodedDescription`` the scorer takes as it is; a plain list of pairs is
sorted, checked and stacked on every call.

``ModelConfig`` is the only description of the architecture: every layer's
shape follows from the embedding width and the hidden sizes, the encoders end
in ReLU and the scoring head in one linear unit.  Every weight matrix and bias
is a view into one float64 vector, ``TripleScorer.flat``, in ``parameters()``
order.  A checkpoint is therefore one JSON header line holding the config
and a meta mapping, followed by ``flat`` as raw little-endian float64 bytes.
"""

from __future__ import annotations

import itertools
from collections.abc import ItemsView, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import EntityDescription, Resource, read_bytes
from .embeddings import EmbeddingStore, embed_resource
from .errors import DataError, NumericError
from .framing import Framing, read_framed, write_framed
from .nn import (
    IGNORE_FLOAT_ERRORS,
    Activation,
    DenseLayer,
    Mlp,
    cosine_backward,
    cosine_with_units,
    glorot_uniform,
    mse_loss,
    softmax,
    softmax_backward,
)

CHECKPOINT = Framing(marker="entsum-scorer", version=3, name="scorer checkpoint",
                     kind="checkpoint", unit="parameter", sized_by="config")


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 300
    candidate_hidden: tuple[int, ...] = (64, 64)
    context_hidden: tuple[int, ...] = (64, 64)
    scoring_hidden: tuple[int, ...] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        # ``type(x) is int`` refuses a checkpoint header's ``true``, not
        # only its ``7.5`` or ``"7"``; nothing is coerced
        for name in ("candidate_hidden", "context_hidden", "scoring_hidden"):
            dims = getattr(self, name)
            if not dims or any(type(d) is not int or d < 1 for d in dims):
                raise ValueError(f"{name} must be non-empty positive dims, got {dims}")
        # the attention takes cosines between the two encoders' outputs
        if self.candidate_hidden[-1] != self.context_hidden[-1]:
            raise ValueError(f"candidate_hidden and context_hidden must end in the same width, "
                             f"got {self.candidate_hidden[-1]} and {self.context_hidden[-1]}")
        if type(self.embed_dim) is not int or self.embed_dim < 1:
            raise ValueError("embed_dim must be a positive integer")
        if type(self.seed) is not int or self.seed < 0:
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


class EncodedDescription:
    """A description's triple ids in ascending order and the read-only
    n x 2d float64 matrix whose row i is the vector of ``ids[i]``.

    It has a length and iterates as ``(id, row)`` pairs, as a list of pairs
    does; the scorer uses ``ids`` and ``matrix`` as they are."""

    __slots__ = ("ids", "matrix")

    def __init__(self, ids: Sequence[int], matrix: np.ndarray):
        ids = tuple(ids)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise NumericError("encoded triple ids must be strictly ascending")
        if matrix.dtype != np.float64 or matrix.ndim != 2 or len(matrix) != len(ids):
            raise NumericError(f"{matrix.dtype} matrix of shape {matrix.shape} "
                               f"for {len(ids)} triple ids")
        self.ids = ids
        self.matrix = matrix.view()
        self.matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        return zip(self.ids, self.matrix)


def encode_description(desc: EntityDescription, store: EmbeddingStore) -> EncodedDescription:
    """Each triple's initial representation, its property embedding then its
    value embedding, as one row per triple id; each distinct resource is
    embedded once.  ``EntityDescription`` keeps its triples in id order."""
    embedded: dict[Resource, np.ndarray] = {}

    def embed(r: Resource) -> np.ndarray:
        vec = embedded.get(r)
        if vec is None:
            vec = embedded[r] = embed_resource(r, store)
        return vec

    d = store.dim
    X = np.empty((len(desc.triples), 2 * d))
    for row, t in zip(X, desc.triples):
        row[:d] = embed(t.prop)
        row[d:] = embed(t.val)
    return EncodedDescription([t.id for t in desc.triples], X)


class TripleScorer:
    """The three-MLP scorer: candidate encoder, context encoder, scoring head.

    Each layer's ``W`` and ``b`` is a view of its slice of ``flat``, in
    ``parameters()`` order, so writing ``flat`` sets every parameter and
    writing a parameter in place changes ``flat``.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        """Carve the layers of ``config`` out of ``flat``, a writable float64
        vector of ``config.parameter_count`` values, without copying it."""
        self.config = config
        self.flat = flat
        mlps, offset = [], 0
        for dims in config.mlp_dims():
            layers = []
            for d_in, d_out in zip(dims, dims[1:]):
                W = flat[offset:offset + d_out * d_in].reshape(d_out, d_in)
                offset += W.size
                layers.append(DenseLayer(W, flat[offset:offset + d_out], Activation.RELU))
                offset += d_out
            mlps.append(Mlp(layers))
        self.candidate_mlp, self.context_mlp, self.scoring_mlp = mlps
        # the encoders end in ReLU, the scoring head in one linear unit
        self.scoring_mlp.layers[-1].activation = Activation.LINEAR

    def __reduce__(self):
        # pickled as its config and ``flat``, so that the unpickled layers
        # are views of the unpickled ``flat`` again, not copies of their own
        return type(self), (self.config, self.flat)

    @classmethod
    def create(cls, config: ModelConfig) -> "TripleScorer":
        """Seeded initialization: every weight matrix, in ``parameters()``
        order, is a Glorot-uniform draw from one generator and every bias is
        zero, so equal seeds give bit-identical parameters."""
        model = cls(config, np.zeros(config.parameter_count))
        rng = np.random.default_rng(config.seed)
        for W in model.parameters()[::2]:  # W and b alternate
            W[...] = glorot_uniform(rng, *W.shape)
        return model

    def parameters(self) -> list[np.ndarray]:
        return (
            self.candidate_mlp.parameters()
            + self.context_mlp.parameters()
            + self.scoring_mlp.parameters()
        )

    # -- forward ----------------------------------------------------------

    def _sorted_vectors(
        self, vectors: Sequence[tuple[int, np.ndarray]]
    ) -> tuple[Sequence[int], np.ndarray]:
        """Triple ids in ascending order and the n x 2d matrix of their
        vectors: an ``EncodedDescription``'s own, else sorted and stacked."""
        if not vectors:
            raise NumericError("cannot score an empty description")
        dim = self.config.triple_dim
        if isinstance(vectors, EncodedDescription):
            if vectors.matrix.shape[1] != dim:
                raise self._width_error(vectors.ids[0], vectors.matrix[0])
            return vectors.ids, vectors.matrix
        pairs = sorted(vectors, key=lambda pair: pair[0])
        ids = [tid for tid, _ in pairs]
        if len(set(ids)) != len(ids):
            raise NumericError("duplicate triple id in description vectors")
        for tid, vec in pairs:
            if np.shape(vec) != (dim,):
                raise self._width_error(tid, vec)
        return ids, np.array([vec for _, vec in pairs], dtype=np.float64)

    def _width_error(self, tid: int, vec) -> NumericError:
        return NumericError(
            f"triple {tid}: vector length {np.shape(vec)} does not match "
            f"2*embed_dim = {self.config.triple_dim}"
        )

    def _forward(self, X: np.ndarray):
        """Scores for the rows of X plus what the backward pass needs:
        attention ``A = softmax(cosine(C, G))`` of the candidate encodings C
        over the context encodings G, pooled ``P = A @ G``, and the scoring
        head on ``[C | P]``; the cache keeps the unit rows of C and G that
        ``cosine_backward`` takes."""
        C, cand_cache = self.candidate_mlp.forward(X)
        G, ctx_cache = self.context_mlp.forward(X)
        S, units = cosine_with_units(C, G)
        A = softmax(S)
        del S  # n x n, so a long description's peak memory holds no second one
        out, score_cache = self.scoring_mlp.forward(np.hstack([C, A @ G]))
        return out[:, 0], (C, G, A, units, cand_cache, ctx_cache, score_cache)

    @np.errstate(**IGNORE_FLOAT_ERRORS)
    def score_description(
        self, entity: Resource, vectors: Sequence[tuple[int, np.ndarray]]
    ) -> ScoredDescription:
        """Score every candidate in the context of the full description; a
        non-finite score is a ``NumericError``.  ``scores`` iterates in
        ascending id order."""
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

    @np.errstate(**IGNORE_FLOAT_ERRORS)
    def loss_and_gradients(
        self,
        vectors: Sequence[tuple[int, np.ndarray]],
        targets: Mapping[int, float],
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error over all candidates and exact parameter
        gradients, ordered like ``parameters()``."""
        ids, X = self._sorted_vectors(vectors)
        missing = [tid for tid in ids if tid not in targets]
        if missing:
            raise NumericError(f"no supervision target for triple ids {missing}")
        scores, (C, G, A, units, cand_cache, ctx_cache, score_cache) = self._forward(X)
        target_vec = np.array([targets[tid] for tid in ids], dtype=np.float64)
        loss, dscores = mse_loss(scores, target_vec)

        dJ, grads_s = self.scoring_mlp.backward(score_cache, dscores[:, None])
        dC, dP = np.hsplit(dJ, [C.shape[1]])
        dC_cos, dG_cos = cosine_backward(units, softmax_backward(A, dP @ G.T))
        # the encoders' input X is data, so their backward stops at the weights
        _, grads_c = self.candidate_mlp.backward(cand_cache, dC + dC_cos, input_grad=False)
        _, grads_d = self.context_mlp.backward(ctx_cache, A.T @ dP + dG_cos, input_grad=False)
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

def save_checkpoint(model: TripleScorer, path: str | Path,
                    meta: Mapping[str, object] | None = None) -> None:
    """Write a framed file whose header holds ``config`` and ``meta``, and
    whose values are ``model.flat``.  Equal models give byte-equal files."""
    write_framed(path, CHECKPOINT, {"config": asdict(model.config), "meta": dict(meta or {})},
                 [model.flat])


def load_checkpoint(path: str | Path) -> tuple[TripleScorer, dict]:
    """Rebuild a scorer from ``save_checkpoint`` output; returns the model and
    the stored meta mapping, ``{}`` when the header has none.  Past the
    checks of ``framing.read_framed``, a ``meta`` must be a JSON object.  A
    version 1 or 2 file, which is one JSON line, is refused by version."""
    def parse(doc: dict) -> tuple[tuple[ModelConfig, dict], int]:
        try:
            cfg_doc = doc["config"]
            config = ModelConfig(
                embed_dim=cfg_doc["embed_dim"],
                candidate_hidden=tuple(cfg_doc["candidate_hidden"]),
                context_hidden=tuple(cfg_doc["context_hidden"]),
                scoring_hidden=tuple(cfg_doc["scoring_hidden"]),
                seed=cfg_doc["seed"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: {exc}") from exc
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise DataError(f"{path}: meta is not a JSON object")
        return (config, meta), config.parameter_count

    (config, meta), values = read_framed(path, read_bytes(path), CHECKPOINT, parse)
    return TripleScorer(config, values.astype(np.float64)), meta
