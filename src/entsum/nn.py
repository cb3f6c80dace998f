"""Minimal dense-network machinery in 64-bit numpy.

Implements exactly what the scorer needs: fully connected layers with ReLU
or linear activations run on an n x in matrix of rows, their reverse-mode
gradients, row-wise numerically stable softmax, the matrix of row cosines
with a zero-norm guard, mean squared error, Adam, and a central-difference
gradient checker.  Every function works on whole matrices; no graphs, no GPU.
The layers take matrices only and do not re-check their widths: the scorer
refuses a description of the wrong width before any layer runs, and each
layer's shape follows from the model config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

ZERO_NORM_EPS = 1e-12

# for ``np.errstate`` around the scorer and the training loop: overflow and
# NaN are left to the explicit finiteness checks, which name what failed, and
# numpy prints no warning of its own
IGNORE_FLOAT_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class Activation(Enum):
    RELU = "relu"
    LINEAR = "linear"


@dataclass
class DenseLayer:
    W: np.ndarray  # [out, in]
    b: np.ndarray  # [out]
    activation: Activation


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


@dataclass
class Mlp:
    layers: list[DenseLayer]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in (layer.W, layer.b)]

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, list]:
        """Run the stack on an n x in float64 matrix as ``X @ W.T + b`` per
        layer, giving n x out.  The cache feeds ``backward``."""
        cache = []
        for layer in self.layers:
            Z = X @ layer.W.T + layer.b
            cache.append((X, Z))
            X = np.maximum(Z, 0.0) if layer.activation is Activation.RELU else Z
        return X, cache

    def backward(
        self, cache: list, G: np.ndarray, *, input_grad: bool = True
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Return the n x in dL/dX and the parameter gradients summed over
        the rows, ordered like ``parameters()``, for the n x out dL/dY ``G``.
        Without ``input_grad`` the first layer's ``dZ @ W`` is skipped and
        dL/dX is None; the parameter gradients are the same bytes."""
        grads: list[np.ndarray] = []
        for layer, (X, Z) in zip(reversed(self.layers), reversed(cache)):
            dZ = G * (Z > 0.0) if layer.activation is Activation.RELU else G
            grads[:0] = [dZ.T @ X, dZ.sum(axis=0)]
            if layer is self.layers[0] and not input_grad:
                return None, grads
            G = dZ @ layer.W
        return G, grads


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; each row is positive and sums to one."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(out: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of a loss wrt the softmax inputs, row by row, given the
    output and its gradient."""
    return out * (dout - np.sum(out * dout, axis=-1, keepdims=True))


def _unit_rows(U: np.ndarray, V: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Both operands as float64 matrices of equal width, two vectors as
    one-row matrices, each row divided by its norm; also the norms.  A row
    under the zero-norm guard becomes zero."""
    U, V = np.asarray(U, dtype=np.float64), np.asarray(V, dtype=np.float64)
    if U.ndim != V.ndim or U.ndim not in (1, 2) or U.shape[-1] != V.shape[-1]:
        raise NumericError(f"cosine over shapes {U.shape} and {V.shape}")
    out = []
    for X in (np.atleast_2d(U), np.atleast_2d(V)):
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        out.append((np.divide(X, norms, out=np.zeros_like(X), where=norms >= ZERO_NORM_EPS), norms))
    return out


def cosine_with_units(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, list]:
    """``S[i, j]``, the cosine of rows ``U[i]`` and ``V[j]``, and the unit
    rows and norms of U and V (``_unit_rows``) that ``cosine_backward``
    takes.  A pair with a (near) zero norm gets 0, so that
    all-unknown-token embeddings stay well defined."""
    units = _unit_rows(U, V)
    (Uh, _), (Vh, _) = units
    # rounding can push a product an ulp past +-1 for (anti)parallel rows
    return np.clip(Uh @ Vh.T, -1.0, 1.0), units


def cosine(U: np.ndarray, V: np.ndarray) -> np.ndarray | float:
    """The cosines of ``cosine_with_units``; two vectors give a scalar."""
    S, _ = cosine_with_units(U, V)
    return float(S[0, 0]) if np.ndim(U) == 1 else S


def cosine_backward(units: list, dS: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``sum(dS * S)`` wrt the rows of U and V, for the n x m
    float64 matrix ``dS``, from the ``units`` that ``cosine_with_units(U,
    V)`` returned with S; zero for every row under the guard."""
    (Uh, nu), (Vh, nv) = units
    grads = []
    for Xh, norms, dXh in ((Uh, nu, dS @ Vh), (Vh, nv, dS.T @ Uh)):
        # back through X / |X|: drop the radial part, divide by the norm
        dX = dXh - np.sum(dXh * Xh, axis=1, keepdims=True) * Xh
        grads.append(np.divide(dX, norms, out=np.zeros_like(dX), where=norms >= ZERO_NORM_EPS))
    return grads[0], grads[1]


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient wrt the predictions."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1 or pred.shape[0] < 1:
        raise NumericError(f"mse over shapes {pred.shape} and {target.shape}")
    diff = pred - target
    n = pred.shape[0]
    loss = float(np.dot(diff, diff) / n)
    return loss, (2.0 / n) * diff


# Adam's decay rates and epsilon: the optimizer's canonical defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam accumulators for a fixed parameter list; only the learning rate
    comes from configuration."""

    lr: float = 0.01
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def create(cls, params: Sequence[np.ndarray], lr: float = 0.01) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState
) -> None:
    """One in-place Adam update with bias correction, in the order of
    Kingma & Ba (arXiv 1412.6980, section 2): both corrections are folded
    into the step size and epsilon, ``p -= lr_t * m / (sqrt(v) + eps_t)``
    with ``lr_t = lr * sqrt(bc2) / bc1`` and ``eps_t = eps * sqrt(bc2)``.
    That is the textbook ``lr * m_hat / (sqrt(v_hat) + eps)`` up to
    rounding, with no ``m_hat`` or ``v_hat`` array."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise NumericError("parameter, gradient and state lists differ in length")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise NumericError(f"misaligned shapes {p.shape} vs {g.shape}")
    state.step_count += 1
    t = state.step_count
    root_bc2 = math.sqrt(1.0 - ADAM_BETA2 ** t)
    lr_t = state.lr * root_bc2 / (1.0 - ADAM_BETA1 ** t)
    eps_t = ADAM_EPS * root_bc2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr_t * m / (np.sqrt(v) + eps_t)


def grad_check(
    loss_fn: Callable[[], float],
    params: Sequence[np.ndarray],
    analytic: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must read the live ``params`` arrays; each component is
    perturbed in place and restored exactly.  The relative error for one
    component is |a - n| / max(1e-8, |a| + |n|).
    """
    worst = 0.0
    for p, a in zip(params, analytic):
        flat_p = p.reshape(-1)
        flat_a = a.reshape(-1)
        for i in range(flat_p.shape[0]):
            orig = flat_p[i]
            flat_p[i] = orig + h
            plus = loss_fn()
            flat_p[i] = orig - h
            minus = loss_fn()
            flat_p[i] = orig
            numeric = (plus - minus) / (2.0 * h)
            denom = max(1e-8, abs(flat_a[i]) + abs(numeric))
            worst = max(worst, abs(flat_a[i] - numeric) / denom)
    return worst
