"""Dense layers, backprop, softmax, cosine, MSE, Adam, gradient checking."""

import math
from dataclasses import replace

import numpy as np
import pytest

from entsum.errors import NumericError
from entsum.model import ModelConfig, TripleScorer
from entsum.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Activation,
    AdamState,
    DenseLayer,
    Mlp,
    adam_step,
    cosine,
    cosine_backward,
    cosine_with_units,
    glorot_uniform,
    grad_check,
    mse_loss,
    softmax,
    softmax_backward,
)


def layer(W, b, activation=Activation.LINEAR):
    return DenseLayer(
        np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64), activation
    )


def two_layer_fixture():
    return Mlp(
        [
            layer([[0.1, 0.2], [0.3, -0.4]], [0.05, -0.05], Activation.RELU),
            layer([[0.5, -0.6]], [0.1], Activation.LINEAR),
        ]
    )


# --------------------------------------------------------------------------
# layers and their initialization
# --------------------------------------------------------------------------

def random_mlp(dims, rng):
    """Glorot weights and zero biases; hidden layers ReLU, the last linear."""
    last = len(dims) - 2
    return Mlp([
        layer(glorot_uniform(rng, d_out, d_in), np.zeros(d_out),
              Activation.LINEAR if i == last else Activation.RELU)
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:]))
    ])


# TripleScorer.create is where layers are drawn: every W a Glorot draw,
# every bias zero, each MLP's shapes from the config


def test_create_shapes_and_activations():
    config = ModelConfig(embed_dim=2, candidate_hidden=(8, 3), context_hidden=(3,),
                         scoring_hidden=(4,))
    model = TripleScorer.create(config)
    mlps = (model.candidate_mlp, model.context_mlp, model.scoring_mlp)
    for mlp, dims in zip(mlps, config.mlp_dims()):
        assert [l.W.shape for l in mlp.layers] == [(o, i) for i, o in zip(dims, dims[1:])]
        assert all(np.all(l.b == 0.0) for l in mlp.layers)
        assert (mlp.layers[0].W.shape[1], mlp.layers[-1].W.shape[0]) == (dims[0], dims[-1])
    assert [[l.activation for l in mlp.layers] for mlp in mlps] == [
        [Activation.RELU, Activation.RELU],
        [Activation.RELU],
        [Activation.RELU, Activation.LINEAR],
    ]


def test_create_final_activation_as_given():
    # the encoders end in ReLU and the scorer in a linear unit, whether the
    # layers are drawn fresh or carved from a stored parameter vector
    config = ModelConfig(embed_dim=2, candidate_hidden=(2,), context_hidden=(2,),
                         scoring_hidden=(2,))
    flat = np.ones(config.parameter_count)
    for model in (TripleScorer.create(config), TripleScorer(config, flat)):
        assert model.candidate_mlp.layers[-1].activation is Activation.RELU
        assert model.context_mlp.layers[-1].activation is Activation.RELU
        assert model.scoring_mlp.layers[-1].activation is Activation.LINEAR


def test_create_glorot_bounds():
    for seed, hidden in ((17, (5, 2)), (18, (1, 1)), (19, (4,))):
        config = ModelConfig(embed_dim=3, candidate_hidden=hidden, context_hidden=hidden,
                             scoring_hidden=hidden, seed=seed)
        model = TripleScorer.create(config)
        for mlp in (model.candidate_mlp, model.context_mlp, model.scoring_mlp):
            for lay in mlp.layers:
                limit = math.sqrt(6.0 / sum(lay.W.shape))
                assert np.all(np.abs(lay.W) <= limit)
                assert lay.W.std() > 0.0 or lay.W.size == 1


def test_create_deterministic_per_seed():
    # one generator draws each W in parameters() order: the order every
    # saved checkpoint was initialized in
    config = ModelConfig(embed_dim=2, candidate_hidden=(3, 4), context_hidden=(4,),
                         scoring_hidden=(3,), seed=9)
    rng = np.random.default_rng(9)
    params = TripleScorer.create(config).parameters()
    for W, b in zip(params[::2], params[1::2]):
        assert np.array_equal(W, glorot_uniform(rng, *W.shape))
        assert np.array_equal(b, np.zeros(len(b)))
    other = TripleScorer.create(replace(config, seed=10)).parameters()
    assert not np.array_equal(params[0], other[0])


def test_glorot_uniform_shape_and_range():
    rng = np.random.default_rng(2)
    W = glorot_uniform(rng, 6, 4)
    assert W.shape == (6, 4)
    assert np.all(np.abs(W) <= math.sqrt(0.6))


def test_parameters_are_live_arrays():
    mlp = two_layer_fixture()
    mlp.parameters()[0][0, 0] = 99.0
    assert mlp.layers[0].W[0, 0] == 99.0


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------

def test_identity_forward():
    mlp = Mlp([layer(np.eye(3), np.zeros(3))])
    y, cache = mlp.forward(np.array([[1.0, -2.0, 3.0]]))
    assert y.tolist() == [[1.0, -2.0, 3.0]]
    assert len(cache) == 1
    X = np.array([[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]])
    Y, cache = mlp.forward(X)
    assert Y.tolist() == X.tolist()
    assert cache[0][0].shape == (2, 3)


def test_relu_clamps_negative_preactivations():
    mlp = Mlp([layer(np.eye(2), np.zeros(2), Activation.RELU)])
    y, _ = mlp.forward(np.array([[1.0, -1.0]]))
    assert y.tolist() == [[1.0, 0.0]]


def test_two_layer_hand_value():
    # z1 = (0.15, 0.25), both pass the ReLU
    # y = 0.5 * 0.15 - 0.6 * 0.25 + 0.1 = 0.025
    y, _ = two_layer_fixture().forward(np.array([[1.0, 0.0]]))
    assert y.shape == (1, 1)
    assert abs(y[0, 0] - 0.025) < 1e-12
    # rows run independently: for (0, 1), z1 = (0.25, -0.45), y = 0.5 * 0.25 + 0.1
    Y, _ = two_layer_fixture().forward(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert Y.shape == (2, 1)
    assert np.allclose(Y[:, 0], [0.025, 0.225], atol=1e-12)


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

def test_two_layer_hand_gradients():
    mlp = two_layer_fixture()
    _, cache = mlp.forward(np.array([[1.0, 0.0]]))
    dx, grads = mlp.backward(cache, np.array([[1.0]]))
    # dz2 = 1: dW2 = h1 = (0.15, 0.25), db2 = 1
    assert np.allclose(grads[2], [[0.15, 0.25]], atol=1e-12)
    assert grads[3].tolist() == [1.0]
    # dh = W2^T = (0.5, -0.6), both units active
    assert np.allclose(grads[0], [[0.5, 0.0], [-0.6, 0.0]], atol=1e-12)
    assert np.allclose(grads[1], [0.5, -0.6], atol=1e-12)
    # dx = W1^T dz1 = (-0.13, 0.34)
    assert np.allclose(dx, [[-0.13, 0.34]], atol=1e-12)
    # a batch of two copies sums to twice the gradients, one dx row each
    _, cache = mlp.forward(np.array([[1.0, 0.0], [1.0, 0.0]]))
    dX, batch_grads = mlp.backward(cache, np.array([[1.0], [1.0]]))
    for g1, g2 in zip(grads, batch_grads):
        assert np.array_equal(g2, 2.0 * g1)
    assert np.array_equal(dX, np.vstack([dx, dx]))


def test_relu_blocks_gradient_of_inactive_unit():
    mlp = Mlp(
        [
            layer(np.eye(2), [0.0, -5.0], Activation.RELU),
            layer([[1.0, 1.0]], [0.0]),
        ]
    )
    _, cache = mlp.forward(np.array([[1.0, 1.0]]))  # second unit pre-activation -4 < 0
    dx, grads = mlp.backward(cache, np.array([[1.0]]))
    assert dx.tolist() == [[1.0, 0.0]]
    assert grads[1].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("dims", [[2, 3, 1], [4, 8, 8, 2], [1, 5, 1]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_numeric(dims, seed):
    rng = np.random.default_rng(100 * seed + len(dims))
    mlp = random_mlp(dims, rng)
    # one row, then a batch whose gradients sum over the rows
    for rows in (1, 5):
        x = rng.normal(size=(rows, dims[0]))
        dy = rng.normal(size=(rows, dims[-1]))

        def loss_fn():
            y, _ = mlp.forward(x)
            return float(np.sum(y * dy))

        _, cache = mlp.forward(x)
        _, grads = mlp.backward(cache, dy)
        assert grad_check(loss_fn, mlp.parameters(), grads) < 1e-6


def test_backward_input_gradient_matches_numeric():
    rng = np.random.default_rng(7)
    mlp = random_mlp([3, 6, 2], rng)
    X = rng.normal(size=(4, 3))
    dY = rng.normal(size=(4, 2))
    _, cache = mlp.forward(X)
    dX, _ = mlp.backward(cache, dY)
    assert dX.shape == X.shape
    h = 1e-6
    for r in range(4):
        for i in range(3):
            Xp, Xm = X.copy(), X.copy()
            Xp[r, i] += h
            Xm[r, i] -= h
            numeric = float(np.sum((mlp.forward(Xp)[0] - mlp.forward(Xm)[0]) * dY)) / (2 * h)
            assert abs(dX[r, i] - numeric) < 1e-6


@pytest.mark.parametrize("dims,seed", [([5, 4, 3], 0), ([7, 6, 6, 2], 1), ([3, 1], 2)])
def test_backward_without_input_grad_keeps_parameter_gradient_bytes(dims, seed):
    rng = np.random.default_rng(seed)
    mlp = random_mlp(dims, rng)
    for X in (rng.normal(size=(6, dims[0])), rng.normal(size=(1, dims[0]))):
        out, cache = mlp.forward(X)
        dy = rng.normal(size=out.shape)
        dX, full = mlp.backward(cache, dy)
        assert dX.shape == X.shape
        none, grads = mlp.backward(cache, dy, input_grad=False)
        assert none is None
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in full]


def test_backward_grads_mirror_parameters():
    mlp = two_layer_fixture()
    _, cache = mlp.forward(np.zeros((3, 2)))
    _, grads = mlp.backward(cache, np.zeros((3, 1)))
    assert len(grads) == len(mlp.parameters())
    for g, p in zip(grads, mlp.parameters()):
        assert g.shape == p.shape
        assert np.all(g == 0.0)


# --------------------------------------------------------------------------
# gradient checker
# --------------------------------------------------------------------------

def test_grad_check_accepts_correct_gradient():
    p = np.array([1.0, -2.0, 0.5])

    def loss_fn():
        return float(np.dot(p, p))

    assert grad_check(loss_fn, [p], [2.0 * p]) < 1e-6


def test_grad_check_flags_wrong_gradient():
    p = np.array([1.0, -2.0, 0.5])

    def loss_fn():
        return float(np.dot(p, p))

    assert grad_check(loss_fn, [p], [3.0 * p]) > 1e-2


def test_grad_check_restores_parameters():
    p = np.array([1.0, 2.0])
    grad_check(lambda: float(np.dot(p, p)), [p], [2.0 * p])
    assert p.tolist() == [1.0, 2.0]


# --------------------------------------------------------------------------
# softmax
# --------------------------------------------------------------------------

def test_softmax_hand_values():
    out = softmax(np.array([1.0, 0.0]))
    e = math.e
    assert out[0] == e / (e + 1.0)
    assert out[1] == 1.0 / (e + 1.0)
    assert abs(out[0] - 0.7310585786300049) < 1e-12
    assert abs(out[1] - 0.2689414213699951) < 1e-12
    assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]
    assert softmax(np.array([3.0])).tolist() == [1.0]


def test_softmax_sums_to_one():
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = rng.normal(scale=rng.uniform(0.1, 50.0), size=rng.integers(1, 12))
        out = softmax(z)
        assert np.all(out > 0.0)
        assert abs(float(np.sum(out)) - 1.0) <= 1e-12
    # a matrix is normalized row by row, each row as if on its own
    Z = rng.normal(scale=20.0, size=(6, 9))
    out = softmax(Z)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
    for z, row in zip(Z, out):
        assert np.array_equal(softmax(z), row)


def test_softmax_shift_invariance():
    # the max is subtracted before exponentiation, so integer shifts that
    # keep z - max(z) bitwise identical reproduce the output exactly
    assert np.array_equal(softmax(np.array([11.0, 10.0])), softmax(np.array([1.0, 0.0])))
    rng = np.random.default_rng(29)
    for _ in range(200):
        z = rng.normal(size=rng.integers(1, 10))
        c = float(rng.uniform(-1e3, 1e3))
        assert np.max(np.abs(softmax(z + c) - softmax(z))) <= 1e-12


def test_softmax_extreme_magnitudes():
    out = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(out))
    assert abs(float(np.sum(out)) - 1.0) <= 1e-12
    out = softmax(np.array([1e308, 0.0]))
    assert out.tolist() == [1.0, 0.0]


def test_softmax_backward_matches_numeric():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        shape = (n,) if trial % 2 else (3, n)  # one vector, or rows
        z = rng.normal(size=shape)
        dout = rng.normal(size=shape)
        dz = softmax_backward(softmax(z), dout)
        h = 1e-6
        for i in np.ndindex(shape):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            numeric = float(np.sum((softmax(zp) - softmax(zm)) * dout)) / (2 * h)
            assert abs(dz[i] - numeric) < 1e-6


# --------------------------------------------------------------------------
# cosine
# --------------------------------------------------------------------------

def test_cosine_hand_values():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert abs(cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) - 1.0) < 1e-12
    assert abs(cosine(np.array([1.0, 2.0]), np.array([-2.0, -4.0])) + 1.0) < 1e-12
    assert abs(cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) - 1 / math.sqrt(2)) < 1e-12
    # matrices give every row pair: S[i, j] = cos(U[i], V[j])
    S = cosine(np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
               np.array([[3.0, 0.0], [1.0, 1.0]]))
    assert S.shape == (3, 2)
    assert np.allclose(S, [[1.0, 1 / math.sqrt(2)], [0.0, 1 / math.sqrt(2)], [0.0, 0.0]],
                       atol=1e-12)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(37)
    for _ in range(100):
        dim = int(rng.integers(1, 10))
        u, v = rng.normal(size=dim), rng.normal(size=dim)
        a, b = float(rng.uniform(0.01, 100)), float(rng.uniform(0.01, 100))
        assert abs(cosine(u, v) - cosine(a * u, b * v)) <= 1e-12


def test_cosine_stays_in_bounds():
    # parallel and antiparallel pairs probe the rounding clamp
    rng = np.random.default_rng(41)
    for trial in range(2000):
        dim = int(rng.integers(1, 16))
        u = rng.normal(size=dim)
        if trial % 3 == 0:
            v = u * float(rng.uniform(0.1, 10.0))
        elif trial % 3 == 1:
            v = -u * float(rng.uniform(0.1, 10.0))
        else:
            v = rng.normal(size=dim)
        c = cosine(u, v)
        assert -1.0 <= c <= 1.0


def test_cosine_zero_norm_guard():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
    assert cosine(np.array([1.0, 2.0, 3.0]), np.zeros(3)) == 0.0
    assert cosine(np.array([1e-13]), np.array([1e-13])) == 0.0
    # just above the guard the value is well defined again
    assert cosine(np.array([1e-11]), np.array([1e-11])) == 1.0
    # in a matrix only the pairs with a guarded row are zeroed
    S = cosine(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [1e-13, 0.0]]))
    assert S.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_cosine_shape_mismatch():
    with pytest.raises(NumericError, match="cosine over shapes"):
        cosine(np.zeros(2), np.zeros(3))
    with pytest.raises(NumericError, match="cosine over shapes"):
        cosine(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(NumericError, match="cosine over shapes"):
        cosine(np.zeros(2), np.zeros((4, 2)))
    with pytest.raises(NumericError, match="cosine over shapes"):
        cosine(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))


def test_cosine_backward_matches_numeric():
    # live rows match central differences of sum(dS * S); every other batch
    # has a zero row, which sits at the guard, where S is not smooth
    rng = np.random.default_rng(43)
    h = 1e-6
    for trial in range(20):
        dim, n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        U, V = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
        if trial % 2:
            U[rng.integers(n)] = 0.0
            V[rng.integers(m)] = 0.0
        dS = rng.normal(size=(n, m))
        dU, dV = cosine_backward(cosine_with_units(U, V)[1], dS)
        assert (dU.shape, dV.shape) == (U.shape, V.shape)
        for X, dX in ((U, dU), (V, dV)):
            for r in np.flatnonzero(np.any(X != 0.0, axis=1)):
                for i in range(dim):
                    orig = X[r, i]
                    X[r, i] = orig + h
                    plus = float(np.sum(dS * cosine(U, V)))
                    X[r, i] = orig - h
                    minus = float(np.sum(dS * cosine(U, V)))
                    X[r, i] = orig
                    assert abs(dX[r, i] - (plus - minus) / (2 * h)) < 1e-6


def test_cosine_backward_zero_at_guard():
    du, dv = cosine_backward(cosine_with_units(np.zeros((1, 3)), np.array([[1.0, 2.0, 3.0]]))[1],
                             np.array([[1.0]]))
    assert np.all(du == 0.0)
    assert np.all(dv == 0.0)
    # in a batch the guarded rows get zero gradient and add none to the others
    U = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
    V = np.array([[1.0, 2.0, 3.0], [1e-13, 0.0, 0.0], [-1.0, 0.0, 2.0]])
    dS = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    dU, dV = cosine_backward(cosine_with_units(U, V)[1], dS)
    assert np.all(dU[0] == 0.0)
    assert np.all(dV[1] == 0.0)
    du0, dv0 = cosine_backward(cosine_with_units(U[1:], V[:1])[1], dS[1:, :1])
    du2, dv2 = cosine_backward(cosine_with_units(U[1:], V[2:])[1], dS[1:, 2:])
    assert np.allclose(dU[1:], du0 + du2, atol=1e-12)
    assert np.allclose(dV[:1], dv0, atol=1e-12)
    assert np.allclose(dV[2:], dv2, atol=1e-12)


# --------------------------------------------------------------------------
# mean squared error
# --------------------------------------------------------------------------

def test_mse_hand_values():
    loss, grad = mse_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
    assert loss == 2.5
    assert grad.tolist() == [1.0, 2.0]
    loss, grad = mse_loss(np.array([2.0]), np.array([0.0]))
    assert loss == 4.0
    assert grad.tolist() == [4.0]


def test_mse_zero_at_match():
    loss, grad = mse_loss(np.array([1.0, -2.0]), np.array([1.0, -2.0]))
    assert loss == 0.0
    assert grad.tolist() == [0.0, 0.0]


def test_mse_shape_errors():
    with pytest.raises(NumericError, match="mse over shapes"):
        mse_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(NumericError, match="mse over shapes"):
        mse_loss(np.zeros(0), np.zeros(0))
    with pytest.raises(NumericError, match="mse over shapes"):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 2)))


def test_mse_gradient_matches_numeric():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        pred, target = rng.normal(size=n), rng.normal(size=n)
        _, grad = mse_loss(pred, target)
        h = 1e-6
        for i in range(n):
            pp, pm = pred.copy(), pred.copy()
            pp[i] += h
            pm[i] -= h
            numeric = (mse_loss(pp, target)[0] - mse_loss(pm, target)[0]) / (2 * h)
            assert abs(grad[i] - numeric) < 1e-6


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

def scalar_adam_reference(grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    # straight-line restatement of the textbook rule for one scalar parameter
    p, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def scalar_adam_reordered(grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    # the same rule with both bias corrections folded into the step size and
    # epsilon (Kingma & Ba, section 2), in adam_step's order of operations
    p, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = m * beta1 + (1.0 - beta1) * g
        v = v * beta2 + (1.0 - beta2) * (g * g)
        root_bc2 = math.sqrt(1.0 - beta2 ** t)
        lr_t = lr * root_bc2 / (1.0 - beta1 ** t)
        p -= lr_t * m / (math.sqrt(v) + eps * root_bc2)
    return p


def ulps_apart(a: float, b: float) -> int:
    # the number of doubles between a and b, for two values of one sign
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def test_adam_state_create():
    params = [np.zeros((2, 3)), np.zeros(4)]
    state = AdamState.create(params, lr=0.5)
    assert state.lr == 0.5
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert state.step_count == 0
    assert [m.shape for m in state.m] == [(2, 3), (4,)]
    assert all(np.all(m == 0.0) for m in state.m)
    assert all(np.all(v == 0.0) for v in state.v)


def test_adam_single_step_hand_oracle():
    p = np.array([0.0])
    state = AdamState.create([p], lr=0.01)
    adam_step([p], [np.array([1.0])], state)
    # with bias correction the first step moves by almost exactly -lr
    assert p[0] == scalar_adam_reordered([1.0])
    assert p[0] == -0.0099999999
    assert ulps_apart(p[0], scalar_adam_reference([1.0])) <= 2
    assert abs(p[0] + 0.01) < 2e-10
    assert state.step_count == 1


def test_adam_two_step_hand_oracle():
    p = np.array([0.0])
    state = AdamState.create([p], lr=0.01)
    adam_step([p], [np.array([1.0])], state)
    adam_step([p], [np.array([1.0])], state)
    assert p[0] == scalar_adam_reordered([1.0, 1.0])
    assert ulps_apart(p[0], scalar_adam_reference([1.0, 1.0])) <= 2
    assert abs(p[0] - -0.019999999799999932) < 1e-12
    assert abs(p[0] + 0.02) < 1e-9


def test_adam_varying_gradients_match_reference():
    grads = [0.3, -1.2, 4.0, 0.0, -0.7]
    p = np.array([0.0])
    state = AdamState.create([p], lr=0.01)
    for g in grads:
        adam_step([p], [np.array([g])], state)
    assert p[0] == scalar_adam_reordered(grads)
    assert ulps_apart(p[0], scalar_adam_reference(grads)) <= 2
    assert abs(p[0] - scalar_adam_reference(grads)) < 1e-15


def test_adam_arrays_follow_the_scalar_rule():
    rng = np.random.default_rng(59)
    grads = rng.normal(scale=3.0, size=(6, 3, 4))
    params = [np.zeros((3, 2)), np.zeros(4)]
    state = AdamState.create(params, lr=0.02)
    for g in grads:
        adam_step(params, [g[:, :2], g[0]], state)
    got = params[0].ravel().tolist() + params[1].tolist()
    want = [scalar_adam_reordered(grads[:, i, j].tolist(), lr=0.02)
            for i in range(3) for j in range(2)]
    want += [scalar_adam_reordered(grads[:, 0, j].tolist(), lr=0.02) for j in range(4)]
    assert got == want


def test_adam_zero_gradient_is_noop():
    p = np.array([1.5, -2.5])
    state = AdamState.create([p], lr=0.1)
    adam_step([p], [np.zeros(2)], state)
    assert p.tolist() == [1.5, -2.5]
    assert state.step_count == 1


def test_adam_updates_all_parameters():
    rng = np.random.default_rng(53)
    params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
    before = [p.copy() for p in params]
    state = AdamState.create(params, lr=0.01)
    adam_step(params, [np.ones((3, 2)), np.ones(3)], state)
    for b, p in zip(before, params):
        assert np.all(p < b)


def test_adam_converges_on_quadratic():
    p = np.array([10.0])
    state = AdamState.create([p], lr=0.05)
    for _ in range(2000):
        adam_step([p], [2.0 * (p - 3.0)], state)
    assert abs(p[0] - 3.0) < 1e-2


def test_adam_list_length_mismatch():
    p = np.array([0.0])
    state = AdamState.create([p])
    with pytest.raises(NumericError, match="differ in length"):
        adam_step([p], [np.zeros(1), np.zeros(1)], state)
    with pytest.raises(NumericError, match="differ in length"):
        adam_step([p, np.zeros(2)], [np.zeros(1), np.zeros(2)], state)


def test_adam_shape_mismatch():
    p = np.array([0.0, 0.0])
    state = AdamState.create([p])
    with pytest.raises(NumericError, match="misaligned shapes"):
        adam_step([p], [np.zeros(3)], state)
