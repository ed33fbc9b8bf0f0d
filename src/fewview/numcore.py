"""Minimal dense-network substrate.

Float64 numpy throughout. Networks are fixed stacks of dense layers over a
small activation vocabulary; a backward pass consumes the explicit cache
returned by the matching forward call, so shared read-only evaluation is safe
while a single training loop owns parameter mutation.

Who owns which arrays:
- A network owns its parameters and nothing else. It keeps no activations,
  gradients or work memory between calls, so copying or saving it copies
  only parameters.
- A forward call returns fresh arrays: the output and a cache of each
  layer's input and output. The caller owns them; ``backward`` only reads
  the cache. A caller may instead pass one output array per layer: each
  layer then writes into the caller's array, which the cache holds.
- ``backward`` only reads ``grad_out``. It returns fresh parameter
  gradients and a fresh input gradient. Its temporaries (each activation's
  derivative, each layer's output gradient) go into a work dict (see
  ``work_array``) that the caller may pass. A training call keeps one such
  dict for all its steps and drops it when it returns, so each step writes
  into the previous step's memory instead of allocating, and faulting in,
  megabytes of fresh pages. Without one, backward uses a fresh dict.
- ``Adam`` owns its moment and work vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, StateError

Array = np.ndarray

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")


def _activate(tag: str, z: Array) -> Array:
    # z is the pre-activation array one layer wrote, fresh or the caller's
    # output array, so the activation overwrites it with the bits of the
    # plain expression (1 / (1 + exp(-z)) for the sigmoid)
    if tag == "linear":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0, out=z)
    if tag == "tanh":
        return np.tanh(z, out=z)
    if tag == "sigmoid":
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    raise ValueError(f"unknown activation {tag!r}")


def _activate_grad(tag: str, y: Array, out: Array) -> Array:
    # derivative w.r.t. the pre-activation, from the activation output y,
    # written into out with the bits of the plain expressions. ReLU's is a
    # bool mask, y > 0 wherever z > 0 (NaN included): a float times a bool
    # is bit-equal to times 1.0 or 0.0
    if tag == "relu":
        return np.greater(y, 0.0, out=out)
    if tag == "tanh":
        return np.subtract(1.0, np.multiply(y, y, out=out), out=out)     # 1 - y y
    if tag == "sigmoid":
        return np.multiply(y, np.subtract(1.0, y, out=out), out=out)     # y (1 - y)
    raise ValueError(f"unknown activation {tag!r}")


def work_array(work: dict, key, shape: tuple, dtype=np.float64, zeroed: bool = False) -> Array:
    """The array ``work`` keeps under ``key``, replaced by a new one
    (uninitialized, or zeros if ``zeroed``) unless it has this shape and
    dtype. Whoever passes ``work`` owns its arrays: they are overwritten by
    the next request for the key."""
    arr = work.get(key)
    if arr is None or arr.shape != shape or arr.dtype != dtype:
        arr = work[key] = (np.zeros if zeroed else np.empty)(shape, dtype)
    return arr


def _require_finite(arr: Array, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains NaN or Inf")


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: y = act(W x + b) with W of shape (out_dim, in_dim)."""

    in_dim: int
    out_dim: int
    activation: str = "linear"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ShapeError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def param_shapes(specs: Sequence[LayerSpec], prefix: str = "") -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each parameter of a DenseNet of these layers, in
    ``named_params`` order, without building it."""
    out = []
    for i, spec in enumerate(specs):
        out.append((f"{prefix}layer{i}.weight", (spec.out_dim, spec.in_dim)))
        out.append((f"{prefix}layer{i}.bias", (spec.out_dim,)))
    return out


class DenseNet:
    """A stack of dense layers with deterministic seeded initialization.

    Parameters are initialized uniformly in [-sqrt(1/fan_in), +sqrt(1/fan_in)].
    A forward takes a batch ``(B, in_dim)`` or a stack of them ``(..., B,
    in_dim)``; backward takes batches only. NumPy's stacked matmul makes one
    BLAS call per ``(B, in_dim)`` block, and bias and activation are
    elementwise, so each block of a stack gets the bits of a forward on it
    alone. Flattening the stack into one batch would be one larger BLAS
    call, whose kernel may sum in another order and change the last bits.
    """

    def __init__(self, specs: Sequence[LayerSpec], seed: int):
        specs = tuple(specs)
        if not specs:
            raise ShapeError("a DenseNet needs at least one layer")
        for prev, nxt in zip(specs, specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer widths do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
        self.specs = specs
        rng = np.random.default_rng(seed)
        self.weights: list[Array] = []
        self.biases: list[Array] = []
        for spec in specs:
            limit = np.sqrt(1.0 / spec.in_dim)
            self.weights.append(rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim)))
            self.biases.append(rng.uniform(-limit, limit, size=spec.out_dim))

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    def mac_count(self) -> int:
        """Multiply-accumulate count of one forward pass on a single input."""
        return sum(spec.in_dim * spec.out_dim for spec in self.specs)

    def named_params(self, prefix: str = "") -> list[tuple[str, Array]]:
        params = [p for pair in zip(self.weights, self.biases) for p in pair]
        return [(name, p) for (name, _), p in zip(param_shapes(self.specs, prefix), params)]

    def forward_cache(self, x: Array, out: Sequence[Array] | None = None) -> tuple[Array, list]:
        """Forward pass of a batch or a stack of batches: the output plus the
        per-layer cache backward() needs (of a batch). With ``out``, one
        array per layer shaped like its output, each layer writes there,
        with the bits of a fresh output."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} is not a batch of width {self.in_dim}")
        cache = []
        for i, (w, b, spec) in enumerate(zip(self.weights, self.biases, self.specs)):
            z = x @ w.T if out is None else np.matmul(x, w.T, out=out[i])
            z += b
            y = _activate(spec.activation, z)
            cache.append((x, y))
            x = y
        _require_finite(x, "forward output")
        return x, cache

    def backward(self, cache: list | None, grad_out: Array, input_grad: bool = True,
                 work: dict | None = None) -> tuple[dict[str, Array], Array | None]:
        """Backpropagate ``grad_out`` through a cached forward pass of a batch
        (a stack raises ShapeError: ``grad.T`` would reverse all its axes).

        Returns (parameter gradients keyed like named_params, gradient w.r.t.
        the forward input, or None when ``input_grad`` is false and the
        caller has no use for it). ``grad_out`` and the cache are only read.
        Each layer's activation derivative and output gradient are written
        into ``work`` under keys of this network (a fresh dict by default).
        """
        if cache is None or len(cache) != len(self.specs):
            raise StateError("backward needs the cache from a matching forward_cache call")
        grad = grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad.ndim != 2 or grad.shape != cache[-1][1].shape:
            raise ShapeError(f"loss gradient shape {grad.shape} is not the output shape "
                             f"{cache[-1][1].shape} of a batch")
        work = {} if work is None else work
        grads: dict[str, Array] = {}
        for i in range(len(self.specs) - 1, -1, -1):
            x_in, y = cache[i]
            tag = self.specs[i].activation
            if tag != "linear":
                mask = _activate_grad(tag, y, work_array(
                    work, (self, i, tag), y.shape, bool if tag == "relu" else np.float64))
                # the mask goes in place into an output gradient this call
                # wrote, and beside the caller's, which is only read
                dz = grad if grad is not grad_out else work_array(work, (self, i), y.shape)
                grad = np.multiply(grad, mask, out=dz)
            grads[f"layer{i}.weight"] = grad.T @ x_in
            # einsum adds a C-contiguous array's rows in order, with sum's bits
            # there, at least twice as fast from 512 rows (a detection frame's
            # cells); sum adds a single column pairwise
            rows = len(grad) >= 512 and grad.shape[1] > 1 and grad.flags.c_contiguous
            grads[f"layer{i}.bias"] = np.einsum("ij->j", grad) if rows else grad.sum(axis=0)
            if i:
                grad = np.matmul(grad, self.weights[i], out=work_array(work, (self, i - 1),
                                                                      x_in.shape))
            else:
                grad = grad @ self.weights[0] if input_grad else None
        for name, g in grads.items():
            _require_finite(g, f"gradient of {name}")
        if input_grad:
            _require_finite(grad, "input gradient")
        return grads, grad


def softmax(logits: Array) -> Array:
    """Row-wise softmax with max-subtraction for numerical stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: Array, labels) -> tuple[float, Array]:
    """Mean cross-entropy of a batch of class logits ``(B, C)`` against
    integer labels ``(B,)``. Returns the scalar loss and the gradient w.r.t.
    the logits (``(softmax - onehot) / B``).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range for {c} classes")
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    _require_finite(grad, "cross-entropy gradient")
    return loss, grad


def bev_mse(heatmap: Array, target: Array) -> tuple[float, Array]:
    """Mean squared error between an occupancy heatmap and its target.

    Zero exactly when the two arrays are equal. The gradient w.r.t. the
    heatmap is ``2 (heatmap - target) / size``.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if heatmap.shape != target.shape:
        raise ShapeError(f"heatmap shape {heatmap.shape} != target shape {target.shape}")
    diff = heatmap - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    _require_finite(grad, "bev loss gradient")
    return loss, grad


class Adam:
    """Adaptive-moment optimizer over a fixed set of named parameters.

    Holds references to the parameter arrays and updates them in place. The
    moments of all parameters are one flat vector each, in which every
    parameter owns a fixed slice. Adam is elementwise, so one update over
    the vectors gives each parameter the bits a per-array update would.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params: Sequence[tuple[str, Array]], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.step_count = 0
        self._params = list(named_params)
        sizes = [p.size for _, p in self._params]
        ends = np.cumsum(sizes, dtype=int).tolist()
        self._slices = [slice(end - size, end) for end, size in zip(ends, sizes)]
        # the moments, the gathered gradient and two work vectors
        self._m, self._v, self._g, *self._work = np.zeros((5, sum(sizes)))

    def step(self, grads: Mapping[str, Array]) -> None:
        for name, param in self._params:
            if name not in grads:
                raise KeyError(f"missing gradient for parameter {name!r}")
            if grads[name].shape != param.shape:
                raise ShapeError(f"gradient shape {grads[name].shape} != parameter {name!r} "
                                 f"shape {param.shape}")
        g = self._g
        if self._params:
            np.concatenate([grads[name].reshape(-1) for name, _ in self._params], out=g)
        if not np.isfinite(g).all():
            bad = next(name for (name, _), s in zip(self._params, self._slices)
                       if not np.isfinite(g[s]).all())
            raise NonFiniteError(f"non-finite gradient for parameter {bad!r}")
        self.step_count += 1
        t = self.step_count
        m, v = self._m, self._v
        a, b = self._work
        # per element, in the order of the per-array update: m = b1 m +
        # (1-b1) g, v = b2 v + ((1-b2) g) g, param -= (lr m_hat) /
        # (sqrt(v_hat) + eps); a product's operands commute bit-exactly. The
        # work vectors spare the step any allocation
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=a), g, out=a)
        np.multiply(np.divide(m, 1.0 - self.beta1**t, out=a), self.lr, out=a)
        np.sqrt(np.divide(v, 1.0 - self.beta2**t, out=b), out=b)
        b += self.eps
        a /= b
        for (_, param), s in zip(self._params, self._slices):
            param -= a[s].reshape(param.shape)
