"""Parameter store, initialization, and in-place optimizers."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor


class ParamStore:
    """Named trainable tensors plus Adam moment state, laid out from (name,
    shape, init kind) triples with every value zero: ``initialize`` draws the
    initial values, and ``restore`` copies saved ones in."""

    def __init__(self, layout: list[tuple[str, tuple[int, ...], str]]):
        self.layout = layout
        self.params: dict[str, Tensor] = {}
        for name, shape, _ in layout:
            if name in self.params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self.params[name] = Tensor(np.zeros(shape))
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_scratch = np.empty((2, 0))
        self.adam_t = 0

    def initialize(self, rng: np.random.Generator) -> None:
        """Draw every value from ``rng`` in layout order. Weight matrices
        ("uniform") take uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) draws with
        fan_in the first dimension, and embeddings 0.1 * standard normal
        draws. Biases ("zeros") are zero; an LSTM bias ("forget_bias", its four
        gates side by side) is one on the forget gate, the second quarter."""
        for name, shape, init in self.layout:
            if init == "uniform":
                bound = math.sqrt(1.0 / shape[0])
                value = rng.uniform(-bound, bound, size=shape)
            elif init == "embedding":
                value = rng.standard_normal(shape) * 0.1
            else:
                value = np.zeros(shape)
                if init == "forget_bias":
                    value[shape[0] // 4 : shape[0] // 2] = 1.0
            self.params[name].data = value

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, data in snap.items():
            self.params[name].data[...] = data


def global_norm(store: ParamStore) -> float:
    """L2 norm of all gradients together; missing gradients count as zero. If
    finite entries overflow the sum of squares, it is rescaled by the largest."""
    grads = [t.grad for t in store.params.values() if t.grad is not None]
    with np.errstate(over="ignore"):
        total = sum(float((g * g).sum()) for g in grads)
    if math.isinf(total) and all(np.isfinite(g).all() for g in grads):
        top = max(float(np.abs(g).max()) for g in grads)
        return top * math.sqrt(sum(float(((g / top) ** 2).sum()) for g in grads))
    return math.sqrt(total)


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``
    and return the norm before scaling. A non-finite norm leaves the
    gradients as they are, so the caller can find the culprit."""
    norm = global_norm(store)
    if math.isfinite(norm) and norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for t in store.params.values():
            if t.grad is not None:
                t.grad *= scale
    return norm


def sgd_step(store: ParamStore, lr: float) -> None:
    for t in store.params.values():
        if t.grad is not None:
            t.data -= lr * t.grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, lr: float) -> None:
    """Adam with bias correction; missing gradients count as zero. The moments
    are updated in place, through two scratch rows of the largest size."""
    if not store.adam_t:
        for name, p in store.params.items():
            store.adam_m[name], store.adam_v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        store.adam_scratch = np.empty((2, max(p.data.size for p in store.params.values())))
    store.adam_t += 1
    t = store.adam_t
    for name, p in store.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = store.adam_m[name], store.adam_v[name]
        a, b = (row[: p.data.size].reshape(p.data.shape) for row in store.adam_scratch)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=a), g, out=a)
        denom = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=a), out=a)
        denom += ADAM_EPS
        step = np.multiply(lr, np.divide(m, 1.0 - ADAM_BETA1**t, out=b), out=b)
        p.data -= np.divide(step, denom, out=b)
