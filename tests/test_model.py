"""Triple encoding, the three-MLP scorer, summary selection, checkpoints."""

import base64
import itertools
import json
import pickle
import random
import re
import struct

import numpy as np
import pytest

import entsum.model
from entsum.dataset import EntityDescription, NodeKind, Resource, Triple, parse_description
from entsum.embeddings import EmbeddingStore, embed_resource
from entsum.errors import DataError, MissingFile, NumericError
from entsum.model import (
    AttentionView,
    EncodedDescription,
    ModelConfig,
    TripleScorer,
    encode_description,
    load_checkpoint,
    save_checkpoint,
    select_summary,
)
from entsum.nn import (
    Activation,
    AdamState,
    adam_step,
    cosine,
    grad_check,
    mse_loss,
    softmax,
)

from conftest import random_vectors, small_config, store_of

ENT = Resource(NodeKind.IRI, "http://ex.org/e", None)


def triple_of(prop_raw, val_raw, tid=0):
    prop = Resource(NodeKind.IRI, prop_raw, None)
    val = Resource(NodeKind.LITERAL, val_raw, None)
    return Triple(tid, ENT, prop, val, val)


# --------------------------------------------------------------------------
# triple encoding
# --------------------------------------------------------------------------

def encode_triple(t: Triple, store: EmbeddingStore) -> np.ndarray:
    """One triple's initial representation, the reference for
    ``encode_description``: its property embedding then its value embedding."""
    return np.concatenate([embed_resource(t.prop, store), embed_resource(t.val, store)])


def test_encode_concatenates_prop_and_val():
    store = store_of({"knows": np.array([1.0, 0.0]), "tim": np.array([0.0, 1.0])}, 2)
    vec = encode_triple(triple_of("http://ex.org/knows", "Tim"), store)
    assert vec.tolist() == [1.0, 0.0, 0.0, 1.0]


def test_encode_all_unknown_is_zero_vector():
    store = store_of({"other": np.array([1.0, 1.0])}, 2)
    vec = encode_triple(triple_of("http://ex.org/xq", "zz"), store)
    assert vec.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_encode_multi_word_sides_take_means():
    store = store_of({
        "birth": np.array([1.0]),
        "place": np.array([3.0]),
        "harbor": np.array([5.0]),
        "city": np.array([7.0]),
    }, 1)
    vec = encode_triple(triple_of("http://ex.org/birthPlace", "Harbor City"), store)
    assert vec.tolist() == [2.0, 6.0]


def test_encode_description_orders_by_id(toy_manifest, toy_store):
    desc = toy_manifest.entities[0]
    pairs = encode_description(desc, toy_store)
    assert [tid for tid, _ in pairs] == [t.id for t in desc.triples]
    assert all(vec.shape == (2 * toy_store.dim,) for _, vec in pairs)


def generated_description(rng: random.Random, iri: str, n: int) -> EntityDescription:
    """n statements over few properties and values, so that most of them
    repeat, some values labelled and some statements pointing at the entity."""
    label = "http://www.w3.org/2000/01/rdf-schema#label"
    words = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]
    lines = []
    for _ in range(n):
        prop = f"<http://ex.org/voc/{rng.choice(words)}{rng.choice(words).title()}>"
        if rng.random() < 0.5:
            value = f'"{rng.choice(words)} {rng.randint(1, 9)}"'
        else:
            value = f"<http://ex.org/v/{rng.choice(words)}_{rng.randint(1, 6)}>"
        lines.append(f"<{iri}> {prop} {value} ." if rng.random() < 0.8 or value[0] == '"'
                     else f"{value} {prop} <{iri}> .")
    for j in range(1, 4):
        lines.append(f'<http://ex.org/v/alpha_{j}> <{label}> "{rng.choice(words)} label" .')
    rng.shuffle(lines)
    return EntityDescription(Resource(NodeKind.IRI, iri),
                             parse_description("\n".join(lines), iri).triples)


def test_encode_description_is_bit_identical_to_encode_triple(toy_manifest, toy_store):
    rng = random.Random(17)
    generated = [generated_description(rng, f"http://ex.org/e{i}", 150) for i in range(4)]
    known = {w: np.random.default_rng(i).normal(size=5)
             for i, w in enumerate(["alpha", "gamma", "omega", "label", "3", "7"])}
    for descs, store in [(toy_manifest.entities, toy_store),
                         (generated, store_of(known, 5))]:
        for desc in descs:
            pairs = encode_description(desc, store)
            for (_, vec), t in zip(pairs, desc.triples, strict=True):
                assert vec.tobytes() == encode_triple(t, store).tobytes()
    # the generated descriptions repeat their resources, which is what the
    # per-description memo of embeddings shares
    assert all(len({t.prop for t in d.triples}) < len(d.triples) / 2 for d in generated)


def test_encoding_is_ascending_ids_and_a_read_only_matrix(toy_manifest, toy_store):
    for desc in toy_manifest.entities:
        enc = encode_description(desc, toy_store)
        assert isinstance(enc, EncodedDescription)
        assert enc.ids == tuple(range(len(desc.triples)))
        assert enc.matrix.shape == (len(desc.triples), 2 * toy_store.dim)
        assert enc.matrix.dtype == np.float64
        assert len(enc) == len(desc.triples)
        assert [tid for tid, _ in enc] == list(enc.ids)
        assert [row.tobytes() for _, row in enc] == [row.tobytes() for row in enc.matrix]
        with pytest.raises(ValueError, match="read-only"):
            enc.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            enc.matrix[0][:] = 0.0


def test_encoding_refuses_ids_out_of_order_and_a_mismatched_matrix():
    with pytest.raises(NumericError, match="strictly ascending"):
        EncodedDescription([1, 0], np.zeros((2, 4)))
    with pytest.raises(NumericError, match="strictly ascending"):
        EncodedDescription([0, 0], np.zeros((2, 4)))
    with pytest.raises(NumericError, match="for 3 triple ids"):
        EncodedDescription([0, 1, 2], np.zeros((2, 4)))
    with pytest.raises(NumericError, match="for 2 triple ids"):
        EncodedDescription([0, 1], np.zeros((2, 4), dtype=np.float32))


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def test_config_defaults():
    cfg = ModelConfig()
    assert cfg.embed_dim == 300
    assert cfg.candidate_hidden == (64, 64)
    assert cfg.context_hidden == (64, 64)
    assert cfg.scoring_hidden == (64, 64, 64)
    assert cfg.triple_dim == 600
    assert cfg.scoring_input_dim == 128


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(candidate_hidden=())
    with pytest.raises(ValueError):
        ModelConfig(scoring_hidden=(8, 0))
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=4.0)
    with pytest.raises(ValueError):
        ModelConfig(context_hidden=(8, 2.5))
    with pytest.raises(ValueError, match="must end in the same width, got 3 and 5"):
        ModelConfig(candidate_hidden=(8, 3), context_hidden=(8, 5))


def test_create_is_seed_deterministic():
    a = TripleScorer.create(small_config(seed=3))
    b = TripleScorer.create(small_config(seed=3))
    c = TripleScorer.create(small_config(seed=4))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.parameters(), c.parameters()))


def test_create_architecture():
    model = TripleScorer.create(small_config())
    assert model.candidate_mlp.layers[0].W.shape[1] == 12
    assert model.context_mlp.layers[0].W.shape[1] == 12
    assert model.scoring_mlp.layers[0].W.shape[1] == 16
    assert model.scoring_mlp.layers[-1].W.shape[0] == 1
    assert model.scoring_mlp.layers[-1].activation is Activation.LINEAR


def assert_parameters_are_views_of_flat(model):
    params = model.parameters()
    assert model.flat.size == model.config.parameter_count
    assert all(np.shares_memory(p, model.flat) for p in params)
    before = model.flat.copy()
    grads = [np.ones_like(p) for p in params]
    adam_step(params, grads, AdamState.create(params, lr=0.01))
    assert not np.array_equal(model.flat, before)
    assert np.array_equal(model.flat, np.concatenate([p.ravel() for p in params]))


def test_parameters_are_views_of_flat(tmp_path):
    model = TripleScorer.create(small_config(seed=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    # a cross-validation worker sends its models back pickled
    unpickled = pickle.loads(pickle.dumps(model))
    assert unpickled.config == model.config
    assert np.array_equal(unpickled.flat, model.flat)
    assert unpickled.scoring_mlp.layers[-1].activation is Activation.LINEAR
    assert_parameters_are_views_of_flat(model)
    loaded, _ = load_checkpoint(path)
    assert_parameters_are_views_of_flat(loaded)
    assert_parameters_are_views_of_flat(unpickled)


def test_scorer_is_built_around_the_given_vector():
    config = small_config()
    flat = np.arange(config.parameter_count, dtype=np.float64)
    model = TripleScorer(config, flat)
    assert model.flat is flat
    assert np.array_equal(np.concatenate([p.ravel() for p in model.parameters()]), flat)


# --------------------------------------------------------------------------
# scoring
# --------------------------------------------------------------------------

def test_score_description_covers_every_id():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(0)
    vectors = random_vectors(rng, 6, 12)
    scored = model.score_description(ENT, vectors)
    assert sorted(scored.scores) == list(range(6))
    assert all(np.isfinite(v) for v in scored.scores.values())


def test_empty_description_rejected():
    model = TripleScorer.create(small_config())
    with pytest.raises(NumericError, match="cannot score an empty description"):
        model.score_description(ENT, [])


def test_empty_encoding_rejected_like_an_empty_list():
    model = TripleScorer.create(small_config())
    enc = encode_description(EntityDescription(ENT, ()), store_of({}, 6))
    assert len(enc) == 0 and enc.matrix.shape == (0, 12)
    for vectors in (enc, []):
        with pytest.raises(NumericError, match="^cannot score an empty description$"):
            model.score_description(ENT, vectors)
        with pytest.raises(NumericError, match="^cannot score an empty description$"):
            model.loss_and_gradients(vectors, {})


def test_duplicate_ids_rejected():
    model = TripleScorer.create(small_config())
    vec = np.zeros(12)
    with pytest.raises(NumericError, match="duplicate triple id"):
        model.score_description(ENT, [(0, vec), (0, vec)])


def test_wrong_vector_length_rejected():
    model = TripleScorer.create(small_config())
    with pytest.raises(NumericError, match="vector length"):
        model.score_description(ENT, [(0, np.zeros(11))])
    # an encoding of the wrong width names its first id, as the list does
    enc = EncodedDescription([3, 5], np.zeros((2, 10)))
    messages = []
    for vectors in (enc, [(5, np.zeros(10)), (3, np.zeros(10))]):
        with pytest.raises(NumericError) as info:
            model.score_description(ENT, vectors)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "triple 3: vector length (10,) does not match 2*embed_dim = 12"


def test_permutation_invariance_bit_exact():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        vectors = random_vectors(rng, n, 12)
        base = model.score_description(ENT, vectors)
        for _ in range(5):
            perm = list(vectors)
            rng.shuffle(perm)
            again = model.score_description(ENT, perm)
            assert again.scores == base.scores
            assert again.attention == base.attention


def test_attention_rows_sum_to_one():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(21)
    vectors = random_vectors(rng, 7, 12)
    scored = model.score_description(ENT, vectors)
    for c in range(7):
        row = sum(scored.attention[(c, i)] for i in range(7))
        assert abs(row - 1.0) <= 1e-12
    assert all(w > 0.0 for w in scored.attention.values())


def test_single_triple_attends_to_itself():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(23)
    vec = rng.normal(size=12)
    scored = model.score_description(ENT, [(4, vec)])
    assert scored.attention == {(4, 4): 1.0}
    # with one weight the pooled vector is the context encoding itself
    ctx, _ = model.context_mlp.forward(vec[None])
    cand, _ = model.candidate_mlp.forward(vec[None])
    out, _ = model.scoring_mlp.forward(np.hstack([cand, ctx]))
    assert scored.scores[4] == out[0, 0]


def test_identical_triples_share_score_and_split_attention():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(27)
    vec = rng.normal(size=12)
    scored = model.score_description(ENT, [(0, vec.copy()), (1, vec.copy())])
    assert scored.scores[0] == scored.scores[1]
    assert scored.attention[(0, 0)] == 0.5
    assert scored.attention[(0, 1)] == 0.5
    assert scored.attention[(1, 0)] == 0.5


def test_three_triple_straight_line_recomputation():
    # re-derive every score and attention weight one candidate and one pair
    # at a time, with plain numpy on the model's own weights
    model = TripleScorer.create(small_config(seed=5))
    rng = np.random.default_rng(31)
    for n in (1, 3, 12):
        vectors = random_vectors(rng, n, 12)
        scored = model.score_description(ENT, vectors)

        # each MLP runs on one row at a time
        ctx = [model.context_mlp.forward(v[None])[0][0] for _, v in vectors]
        for tid, vec in vectors:
            cand = model.candidate_mlp.forward(vec[None])[0][0]
            sims = np.array([cosine(cand, g) for g in ctx])
            weights = softmax(sims)
            pooled = np.zeros_like(ctx[0])
            for w, g in zip(weights, ctx):
                pooled += w * g
            expected = model.scoring_mlp.forward(np.concatenate([cand, pooled])[None])[0][0, 0]
            assert abs(scored.scores[tid] - expected) < 1e-12
            for (ctx_id, _), w in zip(vectors, weights):
                assert abs(scored.attention[(tid, ctx_id)] - w) < 1e-12


def reference_attention(ids, A):
    """The attention mapping as a plain dict, as ``score_description`` built
    it before it returned a view over the matrix."""
    return dict(zip(itertools.product(ids, ids), A.ravel().tolist()))


def test_attention_view_matches_reference_dict():
    model = TripleScorer.create(small_config(seed=3))
    rng = np.random.default_rng(41)
    for trial in range(200):
        n = int(rng.integers(1, 41))
        if trial % 2:
            ids = sorted(rng.choice(10 * n, size=n, replace=False).tolist())
        else:
            ids = list(range(n))
        vectors = [(tid, v) for tid, (_, v) in zip(ids, random_vectors(rng, n, 12))]
        perm = list(vectors)
        rng.shuffle(perm)
        view = model.score_description(ENT, perm).attention
        assert isinstance(view, AttentionView)
        ref = reference_attention(ids, model._forward(np.array([v for _, v in vectors]))[1][2])
        assert view == ref and ref == view
        assert len(view) == len(ref) == n * n
        assert list(view) == list(ref)
        assert list(view.items()) == list(ref.items())
        assert list(view.values()) == list(ref.values())
        assert all(type(w) is float for w in view.values())
        assert {k: view[k] for k in ref} == ref
        assert view.row(ids[-1]) == {ctx: ref[(ids[-1], ctx)] for ctx in ids}
        # a gap between ids if there is one, else the id after the last
        unknown = next(i for i in range(ids[0], ids[-1] + 2) if i not in ids)
        pairs = [(-1, ids[0]), (n, ids[0]), (ids[0], n), (unknown, ids[0]), (ids[0], unknown)]
        not_pairs = [ids[0], [ids[0], ids[0]], (ids[0],), (ids[0], ids[0], ids[0]),
                     "ab", None, ([ids[0]], ids[0])]
        # with gaps between the ids, n itself may be an id
        for key in [p for p in pairs if p not in ref] + not_pairs:
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
            assert view.get(key) is None


def test_attention_view_is_read_only():
    A = softmax(np.arange(9.0).reshape(3, 3))
    view = AttentionView([2, 5, 7], A)
    before = reference_attention([2, 5, 7], A)
    with pytest.raises(TypeError):
        view[(2, 2)] = 1.0
    with pytest.raises(TypeError):
        del view[(2, 2)]
    with pytest.raises(ValueError):
        view.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        view.matrix.ravel()[0] = 1.0
    with pytest.raises(AttributeError):
        view.matrix = np.zeros((3, 3))
    with pytest.raises(AttributeError):
        view.extra = 1
    row = view.row(5)
    row[5] = 9.0
    assert view == before


def test_score_entity_matches_encode_then_score(toy_manifest, toy_store):
    model = TripleScorer.create(ModelConfig(
        embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
        scoring_hidden=(8, 8), seed=0,
    ))
    desc = toy_manifest.entities[0]
    direct = model.score_entity(desc, toy_store)
    manual = model.score_description(desc.entity, encode_description(desc, toy_store))
    assert direct.scores == manual.scores


# --------------------------------------------------------------------------
# loss and gradients
# --------------------------------------------------------------------------

def test_loss_matches_mse_of_scores():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(33)
    vectors = random_vectors(rng, 5, 12)
    targets = {i: float(rng.uniform()) for i in range(5)}
    loss, _ = model.loss_and_gradients(vectors, targets)
    scored = model.score_description(ENT, vectors)
    pred = np.array([scored.scores[i] for i in range(5)])
    tgt = np.array([targets[i] for i in range(5)])
    expected, _ = mse_loss(pred, tgt)
    assert loss == expected


def test_gradients_pass_numeric_check():
    model = TripleScorer.create(small_config(seed=2))
    rng = np.random.default_rng(35)
    vectors = random_vectors(rng, 4, 12)
    targets = {i: float(rng.uniform()) for i in range(4)}

    def loss_fn():
        return model.loss_and_gradients(vectors, targets)[0]

    _, grads = model.loss_and_gradients(vectors, targets)
    assert len(grads) == len(model.parameters())
    assert grad_check(loss_fn, model.parameters(), grads) < 1e-4


def test_missing_target_rejected():
    model = TripleScorer.create(small_config())
    rng = np.random.default_rng(37)
    vectors = random_vectors(rng, 3, 12)
    with pytest.raises(NumericError, match=r"no supervision target for triple ids \[2\]"):
        model.loss_and_gradients(vectors, {0: 0.5, 1: 0.5})


def test_gradients_permutation_invariant():
    model = TripleScorer.create(small_config(seed=4))
    rng = np.random.default_rng(39)
    vectors = random_vectors(rng, 5, 12)
    targets = {i: float(rng.uniform()) for i in range(5)}
    loss_a, grads_a = model.loss_and_gradients(vectors, targets)
    loss_b, grads_b = model.loss_and_gradients(list(reversed(vectors)), targets)
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_encoding_gives_the_bytes_of_a_shuffled_list():
    rng = random.Random(23)
    np_rng = np.random.default_rng(23)
    words = ["alpha", "beta", "gamma", "delta", "omega", "zeta", "label", "3", "7"]
    store = store_of({w: np_rng.normal(size=6) for w in words}, 6)
    model = TripleScorer.create(small_config(seed=5))
    for i in range(8):
        desc = generated_description(rng, f"http://ex.org/e{i}", rng.randint(1, 40))
        enc = encode_description(desc, store)
        targets = {tid: rng.random() for tid in enc.ids}
        pairs = [(tid, vec.copy()) for tid, vec in enc]
        rng.shuffle(pairs)
        a, b = model.score_description(ENT, enc), model.score_description(ENT, pairs)
        assert list(a.scores.items()) == list(b.scores.items())
        assert a.attention.matrix.tobytes() == b.attention.matrix.tobytes()
        loss_a, grads_a = model.loss_and_gradients(enc, targets)
        loss_b, grads_b = model.loss_and_gradients(pairs, targets)
        assert loss_a == loss_b
        assert [g.tobytes() for g in grads_a] == [g.tobytes() for g in grads_b]


# --------------------------------------------------------------------------
# summary selection
# --------------------------------------------------------------------------

def scored_with(scores):
    from entsum.model import ScoredDescription

    return ScoredDescription(ENT, scores)


def test_select_orders_by_score_descending():
    scored = scored_with({0: 0.1, 1: 0.9, 2: 0.5})
    assert select_summary(scored, 2) == [1, 2]
    assert select_summary(scored, 3) == [1, 2, 0]


def test_select_breaks_ties_toward_lower_id():
    scored = scored_with({3: 0.5, 1: 0.5, 2: 0.5})
    assert select_summary(scored, 2) == [1, 2]


def test_select_caps_at_description_size():
    scored = scored_with({0: 0.1, 1: 0.2})
    assert select_summary(scored, 10) == [1, 0]


def test_select_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        select_summary(scored_with({0: 0.1}), 0)


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def test_checkpoint_round_trip_scores_identical(tmp_path):
    model = TripleScorer.create(small_config(seed=6))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, meta={"k": 5, "fold": 2})
    loaded, meta = load_checkpoint(path)
    assert meta == {"k": 5, "fold": 2}
    assert loaded.config == model.config
    rng = np.random.default_rng(41)
    vectors = random_vectors(rng, 6, 12)
    a = model.score_description(ENT, vectors)
    b = loaded.score_description(ENT, vectors)
    assert a.scores == b.scores
    assert a.attention == b.attention


def test_checkpoint_resave_is_byte_identical(tmp_path):
    model = TripleScorer.create(small_config(seed=7))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1, meta={"k": 5})
    loaded, meta = load_checkpoint(p1)
    save_checkpoint(loaded, p2, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_default_meta_is_empty(tmp_path):
    model = TripleScorer.create(small_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    _, meta = load_checkpoint(path)
    assert meta == {}


def split_checkpoint(path):
    """The parsed header line and the raw parameter bytes after it."""
    header, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(header.decode("utf-8")), blob


def write_checkpoint(path, doc, blob):
    path.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
    return path


def corrupt(tmp_path, mutate):
    model = TripleScorer.create(small_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc, blob = split_checkpoint(path)
    mutate(doc)
    return write_checkpoint(path, doc, blob)


def saved_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(TripleScorer.create(small_config()), path)
    return path, path.read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_load_truncated_json(tmp_path):
    # cut off inside the header or just before its newline: no newline is left
    path, data = saved_bytes(tmp_path)
    for end in (100, data.index(b"\n")):
        path.write_bytes(data[:end])
        with pytest.raises(DataError, match="no header line"):
            load_checkpoint(path)


def test_load_header_cut_short(tmp_path):
    # a header cut off mid-way but still ended by a newline, blob intact
    path, data = saved_bytes(tmp_path)
    cut = data.index(b"\n")
    path.write_bytes(data[:cut // 2] + data[cut:])
    with pytest.raises(DataError, match="header is not valid JSON"):
        load_checkpoint(path)


def test_load_header_not_utf8(tmp_path):
    path, data = saved_bytes(tmp_path)
    at = data.index(b"entsum-scorer")
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(DataError, match=f"not UTF-8 text .* at byte {at}"):
        load_checkpoint(path)


def test_load_wrong_format_marker(tmp_path):
    path = corrupt(tmp_path, lambda doc: doc.update(format="something-else"))
    with pytest.raises(DataError, match="not a scorer checkpoint"):
        load_checkpoint(path)


def test_load_unsupported_version(tmp_path):
    # version 1 stored per-layer JSON; it is rejected, not read
    for version in (1, 99):
        path = corrupt(tmp_path, lambda doc: doc.update(version=version))
        with pytest.raises(DataError, match=f"checkpoint version {version}, supported 3"):
            load_checkpoint(path)


def test_load_version_2_file(tmp_path):
    # version 2: one JSON line whose "parameters" held base64 of the flat vector
    model = TripleScorer.create(small_config(seed=3))
    path = tmp_path / "v2.ckpt"
    save_checkpoint(model, path, meta={"k": 2})
    doc, blob = split_checkpoint(path)
    doc.update(version=2, parameters=base64.b64encode(blob).decode("ascii"))
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match="checkpoint version 2"):
        load_checkpoint(path)


def test_checkpoint_stores_config_and_one_blob(tmp_path):
    model = TripleScorer.create(small_config(seed=5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, meta={"k": 2})
    doc, blob = split_checkpoint(path)
    assert sorted(doc) == ["config", "format", "meta", "version"]
    assert doc["version"] == 3
    assert len(blob) == 8 * model.config.parameter_count
    # the header line is compact sorted-key JSON
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    assert path.read_bytes() == header + b"\n" + blob
    # the documented layout: candidate, context, scoring MLP; per layer W
    # (out x in, row-major) then b
    layout = [
        part
        for mlp in (model.candidate_mlp, model.context_mlp, model.scoring_mlp)
        for layer in mlp.layers
        for part in (layer.W.ravel(), layer.b)
    ]
    assert blob == np.concatenate(layout).astype("<f8").tobytes()
    loaded, _ = load_checkpoint(path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p, q)


def test_load_draws_no_initial_parameters(tmp_path, monkeypatch):
    # a load builds the scorer around the stored values; the Glorot draw of
    # create would only be overwritten
    model = TripleScorer.create(small_config(seed=5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    def no_draw(*args):
        raise AssertionError("load drew initial parameters")

    monkeypatch.setattr(entsum.model, "glorot_uniform", no_draw)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.flat, model.flat)


def test_load_missing_section(tmp_path):
    for key in ("config", "format", "version"):
        path = corrupt(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(DataError):
            load_checkpoint(path)
    for key in ("embed_dim", "candidate_hidden", "seed"):
        path = corrupt(tmp_path, lambda doc: doc["config"].pop(key))
        with pytest.raises(DataError, match=f"'{key}'"):
            load_checkpoint(path)


def _with_blob(tmp_path, edit):
    path, data = saved_bytes(tmp_path)
    cut = data.index(b"\n") + 1
    path.write_bytes(data[:cut] + edit(data[cut:]))
    return path


def test_load_weight_count_mismatch(tmp_path):
    for edit in (lambda b: b[:-8], lambda b: b + b"\0" * 8, lambda b: b[:-3]):
        with pytest.raises(DataError, match="parameter bytes"):
            load_checkpoint(_with_blob(tmp_path, edit))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_non_finite_parameter(tmp_path, bad):
    edit = lambda blob: struct.pack("<d", bad) + blob[8:]
    with pytest.raises(DataError, match="non-finite"):
        load_checkpoint(_with_blob(tmp_path, edit))


def test_load_architecture_config_disagreement(tmp_path):
    # a hostile size must fail on the byte count, before anything is allocated
    for key, value in [("embed_dim", 7), ("embed_dim", 10**9),
                       ("scoring_hidden", [10**9, 10**9]), ("candidate_hidden", [8, 8, 8])]:
        path = corrupt(tmp_path, lambda doc: doc["config"].update({key: value}))
        with pytest.raises(DataError, match="parameter bytes"):
            load_checkpoint(path)
    for value in ("4", 4.0, None, [4]):
        path = corrupt(tmp_path, lambda doc: doc["config"].update(embed_dim=value))
        with pytest.raises(DataError, match="embed_dim must be a positive integer"):
            load_checkpoint(path)
    path = corrupt(tmp_path, lambda doc: doc["config"].update(context_hidden=[8.0, 8.0]))
    with pytest.raises(DataError, match="context_hidden must be non-empty positive dims"):
        load_checkpoint(path)
    # the attention's cosines need encodings of one width
    path = corrupt(tmp_path, lambda doc: doc["config"].update(candidate_hidden=[8, 9]))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: candidate_hidden and "
                                        "context_hidden must end in the same width, got 9 and 8$"):
        load_checkpoint(path)


@pytest.mark.parametrize("seed", ["-1", "Infinity", "-Infinity", "NaN"])
def test_load_seed_the_generator_cannot_take(tmp_path, seed):
    # -1 used to escape as numpy's ValueError and +-Infinity as OverflowError
    path, data = saved_bytes(tmp_path)
    path.write_bytes(data.replace(b'"seed":0', b'"seed":' + seed.encode(), 1))
    with pytest.raises(DataError, match="integer"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"[" * 100_000, b'{"version":' + b"9" * 5000 + b"}"],
                         ids=["deep-nesting", "long-integer"])
def test_load_header_json_limits(tmp_path, header):
    # deep nesting and an integer longer than Python will convert
    path, data = saved_bytes(tmp_path)
    path.write_bytes(header + data[data.index(b"\n"):])
    with pytest.raises(DataError, match="header is not valid JSON"):
        load_checkpoint(path)


def test_checkpoint_dim_mismatch_surfaces_at_scoring(tmp_path):
    big = TripleScorer.create(
        ModelConfig(embed_dim=300, candidate_hidden=(8,), context_hidden=(8,),
                    scoring_hidden=(8,), seed=0)
    )
    path = tmp_path / "big.ckpt"
    save_checkpoint(big, path)
    loaded, _ = load_checkpoint(path)
    rng = np.random.default_rng(43)
    small_vectors = random_vectors(rng, 3, 200)  # from a 100-dim store
    with pytest.raises(NumericError, match="vector length"):
        loaded.score_description(ENT, small_vectors)
