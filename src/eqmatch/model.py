"""Gradient-field network and explicit-energy constructions.

The network is a plain MLP mapping points in R^d to predicted gradients in
R^d. Conditioning options:

  - class label: learned per-class embedding row added to the first hidden
    pre-activation (one-hot times an embedding table, so the lookup stays
    differentiable on the tape);
  - noise level (baseline models only): a fixed 16-dim sinusoidal feature of
    the level concatenated to the input.

Every hidden layer is followed by SiLU, silu(z) = z * sigmoid(z).

An explicit-energy model reuses the same network and derives a scalar per
point, either `dot` g(x) = x . f(x) or `l2norm` g(x) = -0.5 ||f(x)||^2; its
gradient field is the input-gradient of that scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ndtensor as nd

ENERGY_KINDS = ("none", "dot", "l2norm")

NOISE_FEATURES = 16

# rows per block of an inference pass (the last block takes the remainder):
# memory stays flat in n, and no product is large enough for OpenBLAS's
# kernel for a row to depend on the batch size (README). A multiple of
# `sampler.BLAS_ROW_BLOCK`, so a block boundary never splits a kernel block.
INFERENCE_ROWS = 128


class ConditioningError(ValueError):
    """Label / noise-level arguments inconsistent with the model config."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 2
    hidden: tuple[int, ...] = (256, 256, 256)
    activation: str = "silu"
    num_classes: int = 0
    noise_conditioned: bool = False
    energy_kind: str = "none"
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise ValueError(f"input_dim={self.input_dim} must be >= 1")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths {self.hidden} must be non-empty positives")
        # SiLU is the one activation; checkpoints and configs still record it
        if self.activation != "silu":
            raise ValueError(f"unknown activation '{self.activation}'")
        if self.energy_kind not in ENERGY_KINDS:
            raise ValueError(f"unknown energy kind '{self.energy_kind}'")
        if self.num_classes < 0:
            raise ValueError("num_classes must be >= 0")
        if self.noise_conditioned and self.energy_kind != "none":
            raise ValueError("noise conditioning and an explicit energy head "
                             "are mutually exclusive")


def _layer_dims(config: ModelConfig) -> list[tuple[int, int]]:
    d_in = config.input_dim + (NOISE_FEATURES if config.noise_conditioned else 0)
    dims = [d_in, *config.hidden, config.input_dim]
    return list(zip(dims[:-1], dims[1:]))


def _per_row(value, n: int, dtype, name: str) -> np.ndarray:
    """A label or noise level, one for the batch or one a row, as [n] values."""
    value = np.asarray(value).astype(dtype)
    if value.ndim == 0:
        value = np.full(n, value)
    if value.shape != (n,):
        raise ConditioningError(f"{name} shape {value.shape} does not match batch {n}")
    return value


def noise_features(level, n: int) -> np.ndarray:
    """Fixed sinusoidal embedding of a noise level in [0, 1], shape [n, 16]."""
    level = _per_row(level, n, np.float64, "noise level")
    freqs = np.pi * (2.0 ** np.arange(NOISE_FEATURES // 2))
    angles = level[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@dataclass
class GradientFieldModel:
    """Named float64 parameter buffers plus the config that shaped them."""

    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    # -- forward ------------------------------------------------------------

    def _bind(self, graph: nd.Graph) -> dict[str, nd.Tensor]:
        """Lease parameter leaves on a tape, memoized per graph."""
        key = ("model", id(self))
        if key not in graph.bindings:
            graph.bindings[key] = {name: graph.leaf(buf)
                                   for name, buf in self.params.items()}
        return graph.bindings[key]

    def _check_conditioning(self, label, noise_level) -> None:
        if self.config.num_classes == 0 and label is not None:
            raise ConditioningError("model is unconditional; no label accepted")
        if self.config.num_classes > 0 and label is None:
            raise ConditioningError("conditional model requires a label")
        if not self.config.noise_conditioned and noise_level is not None:
            raise ConditioningError("model is not noise-conditioned")
        if self.config.noise_conditioned and noise_level is None:
            raise ConditioningError("noise-conditioned model requires a noise level")

    def _one_hot(self, label, n: int) -> np.ndarray:
        ids = _per_row(label, n, np.int64, "label")
        if np.any(ids < 0) or np.any(ids >= self.config.num_classes):
            raise ConditioningError(f"label out of range [0, {self.config.num_classes})")
        hot = np.zeros((n, self.config.num_classes))
        hot[np.arange(n), ids] = 1.0
        return hot

    def _batch_size(self, shape: tuple[int, ...]) -> int:
        if len(shape) != 2 or shape[1] != self.config.input_dim:
            raise nd.ShapeMismatchError(
                f"forward: expected [n, {self.config.input_dim}] input, got {shape}")
        return shape[0]

    def forward(self, graph: nd.Graph, x, label=None, noise_level=None) -> nd.Tensor:
        """Predicted gradient batch [n, d]; differentiable in x and params."""
        self._check_conditioning(label, noise_level)
        xt = x if isinstance(x, nd.Tensor) else nd.constant(x)
        n = self._batch_size(xt.shape)
        h = xt
        if self.config.noise_conditioned:
            # nothing differentiates a noise-conditioned model in x (it may
            # not have an energy head), so its input is built as a constant
            if xt.node is not None:
                raise nd.GraphError("forward: a noise-conditioned model takes x "
                                    "as a constant, not a graph node")
            h = nd.constant(np.concatenate([xt.values, noise_features(noise_level, n)],
                                           axis=1))
        p = self._bind(graph)
        n_layers = len(self.config.hidden) + 1
        for i in range(n_layers):
            pre = nd.matmul(h, p[f"layers.{i}.w"])
            pre = nd.add(pre, nd.broadcast_to(p[f"layers.{i}.b"], pre.shape))
            if i == 0 and self.config.num_classes > 0:
                hot = nd.constant(self._one_hot(label, n))
                pre = nd.add(pre, nd.matmul(hot, p["label_embed"]))
            h = nd.silu(pre) if i < n_layers - 1 else pre
        return h

    def forward_values(self, x, label=None, noise_level=None) -> np.ndarray:
        """`forward(nd.Graph(), ...).values` off the tape on each row block of
        `x`, as one inference pass (`_row_pass`): the tape's bits on the same
        blocks where it returns."""
        return self._row_pass(x, label, noise_level, self._forward_values)

    def _row_pass(self, x, label, noise_level, run_block) -> np.ndarray:
        """An inference pass over `x` [n, d] under one
        `np.errstate(all="ignore")` (see `nd`'s docstring): `_enter` on the
        whole batch, so its errors name the batch, then `run_block(params,
        h, hot)` on each block of INFERENCE_ROWS rows of `_enter`'s input and
        one-hot labels in turn (the last block takes the remainder), its
        [rows, d] result written into one [n, d] output."""
        with np.errstate(all="ignore"):
            p, h, hot = self._enter(x, label, noise_level)
            n = len(h)
            ends = [*range(INFERENCE_ROWS, n - INFERENCE_ROWS + 1, INFERENCE_ROWS), n]
            out = np.empty((n, self.config.input_dim))
            for a, b in zip([0, *ends[:-1]], ends):
                out[a:b] = run_block(p, h[a:b], None if hot is None else hot[a:b])
        return out

    def _enter(self, x, label, noise_level) -> tuple:
        """What a pass reads, checked and scanned once with
        `nd.check_finite`, in the order `forward` checks it: which
        conditioning is given, x, its shape, the noise level's shape, the
        noise-conditioned input, each parameter where `forward` leases its
        leaf, then the labels' shape and range. Returns (the parameters as
        values, layer 0's input [n, d] or [n, d + 16], the one-hot labels
        [n, classes] or None)."""
        self._check_conditioning(label, noise_level)
        h = nd.as_values(x)
        nd.check_finite(h, "constant", "at the input")
        n = self._batch_size(h.shape)
        if self.config.noise_conditioned:
            h = np.concatenate([h, noise_features(noise_level, n)], 1)
            nd.check_finite(h, "constant", "at the noise-conditioned input")
        p = {name: nd.as_values(buf) for name, buf in self.params.items()}
        for name, buf in p.items():
            nd.check_finite(buf, "leaf", f"at {name}")
        return p, h, self._one_hot(label, n) if self.config.num_classes else None

    def _forward_values(self, p, h, hot, cache=None) -> np.ndarray:
        """`forward(nd.Graph(), ...).values` from `_enter`'s (params, input,
        one-hot labels), or from rows of the last two, each layer written in
        place; of its values it scans only the output with `nd.check_finite`
        (see `nd`'s docstring).

        With `cache` None, each hidden layer writes its sigmoid and SiLU over
        the previous hidden layer's activations, which are dead once its
        product is made, and drops its pre-activation before the next
        product: at most two [n, width] arrays are alive. It never writes
        into the `h` it is given, and allocates where the shapes differ.

        With a list as `cache`, each layer appends what `parameter_gradients`
        needs: [input, one-hot labels or None, pre-activation, its sigmoid or
        None (the output layer)]."""
        last = len(self.config.hidden)
        for i in range(last + 1):
            pre = h @ p[f"layers.{i}.w"]
            pre += p[f"layers.{i}.b"]
            if hot is not None:  # layer 0 of a labelled model
                pre += hot @ p["label_embed"]
            if i == last:
                if cache is not None:
                    cache.append([h, hot, pre, None])
                nd.check_finite(pre, "add", f"in layer {i}")
                return pre
            if cache is None:  # past layer 0, h is this pass's own and now dead
                h = nd.sigmoid_values(pre, out=h if i and h.shape == pre.shape else None)
                np.multiply(pre, h, out=h)
                del pre  # so only h and the next product are alive
            else:
                s = nd.sigmoid_values(pre)
                cache.append([h, hot, pre, s])
                h = np.empty_like(s)
                np.multiply(pre, s, out=h)
            hot = None

    def parameter_gradients(self, cache: list, grad: np.ndarray,
                            first: tuple | None = None) -> dict[str, np.ndarray]:
        """The gradient of a loss with respect to every parameter, given `grad`,
        its gradient with respect to the output of `_forward_values` with
        `cache`. This is `nd.backward`'s transposed chain off the tape,
        without the products it returns nothing from (layer 0's input
        gradient, the one-hot's): the tape's other ops in its order (same
        bits). The gradients it returns are scanned with `nd.check_finite`.

        `energy_parameter_gradients` passes as `first` what the adjoint of the
        first backward adds: (each weight's gradient, each hidden layer's
        adjoints at its pre-activation and sigmoid with s (1 - s)).

        It consumes `cache` and `first`, the last reader of both: it pops
        each layer as it walks down, writes a hidden layer's SiLU adjoint
        over its pre-activation and sigmoid, sums into `first`'s adjoints,
        and adds each weight's product into `first`'s weight gradient, which
        it returns (IEEE sums and products commute, so the bits hold)."""
        p, last = self.params, len(cache) - 1
        grads = {}
        g = grad
        for i in reversed(range(last + 1)):
            h_in, hot, pre, s = cache.pop()
            if i < last and first is None:  # a hidden layer: back through its SiLU
                g = _silu_backward(g, pre, s)
            elif i < last:  # the same, summed with the first backward's adjoints
                a_bar, s_bar, d = first[1].pop()
                s *= g
                a_bar += s
                pre *= g
                s_bar += pre
                s_bar *= d
                s_bar += a_bar
                g = s_bar
            del pre, s
            if hot is not None:
                grads["label_embed"] = hot.T @ g
                nd.check_finite(grads["label_embed"], "matmul",
                                "in the gradient of label_embed")
            grads[f"layers.{i}.b"] = g.sum(axis=0)
            nd.check_finite(grads[f"layers.{i}.b"], "reduce_leading",
                            f"in the gradient of layers.{i}.b")
            g_in = None
            if i:  # layer 0's input gradient is unused
                g_in = g @ p[f"layers.{i}.w"].T
            if first is None:
                w_grad = h_in.T @ g
            else:
                w_grad = first[0].pop()
                w_grad += h_in.T @ g
            nd.check_finite(w_grad, "matmul" if first is None else "add",
                            f"in the gradient of layers.{i}.w")
            grads[f"layers.{i}.w"] = w_grad
            g = g_in
        return {name: grads[name] for name in p}

    def energy_input_gradient(self, cache: list, keep: list | None = None) -> np.ndarray:
        """The input-gradient of the batch-summed energy of `_forward_values`
        with `cache`: `nd.input_gradient(_total_energy(...), x)` off the tape,
        as the chain from the output down to the input alone (the tape's
        energy value and first-order parameter gradients are not made). The
        field it returns is scanned with `nd.check_finite`. With a list as
        `keep`, each layer from the output down appends what
        `energy_parameter_gradients` replays: [the gradient at its output,
        the gradient at its pre-activation, and for a hidden layer with
        sigmoid s, 1 - s and s (1 - s), else None, None], and `cache` is left
        as it was. With `keep` None (inference) it is the last reader of
        `cache` and consumes it: it drops the layer inputs past `x`, pops
        each layer, and writes a hidden layer's SiLU adjoint over its
        pre-activation and sigmoid; it never writes into `x`."""
        if self.config.energy_kind == "none":
            raise ValueError("model has no explicit energy head (energy_kind='none')")
        dot = self.config.energy_kind == "dot"
        x, f = cache[0][0], cache[-1][2]
        if keep is None:  # only the chain below reads the cache
            for layer in cache[1:]:
                layer[0] = None
        if dot:
            g = x  # the tape's ones * x
        else:
            g = f * -0.5  # the ones scaled by -0.5, then square's 2.0
            g *= 2.0
        for i in reversed(range(len(cache))):
            pre, s = (cache.pop() if keep is None else cache[i])[2:]
            if s is None:  # the output layer
                out, c, d = g, None, None
            elif keep is None:
                g = _silu_backward(g, pre, s)
            else:  # back through the SiLU as `_silu_backward`, keeping pre and s
                out, c = g, 1.0 - s
                d = s * c
                through_sigmoid = g * pre
                through_sigmoid *= d
                g = g * s + through_sigmoid
            del pre, s
            if keep is not None:
                keep.append([out, g, c, d])
            g = g @ self.params[f"layers.{i}.w"].T
        if not dot:  # l2norm returns layer 0's input gradient
            nd.check_finite(g, "matmul", "in layer 0's input gradient")
            return g
        field = f + g  # the dot's own x-gradient, then the chain's
        nd.check_finite(field, "add", "in layer 0's input gradient")
        return field

    def energy_parameter_gradients(self, cache: list, keep: list,
                                   grad: np.ndarray) -> dict[str, np.ndarray]:
        """The gradient of a loss with respect to every parameter, given `grad`,
        its gradient with respect to `energy_input_gradient(cache, keep)`.
        This is the tape's double backward off the tape: the adjoint of the
        first backward from layer 0 up, then of the forward pass from the
        output down (`parameter_gradients`), with each sum taken in the tape's
        order (same bits). It leaves out the products it returns nothing from
        (the heads' adjoints of the tape's ones, layer 0's input gradient),
        and scans like `parameter_gradients`. It consumes `keep`, popping
        each layer as it walks up, and `cache`, through
        `parameter_gradients`."""
        p, last = self.params, len(cache) - 1
        dot = self.config.energy_kind == "dot"
        w_grads, pending = [], []
        g = grad  # the adjoint of layer 0's input gradient
        for i in range(last + 1):
            u, g_pre, c, d = keep.pop()  # built from the output down
            if i < last or not dot:  # dot's output adjoint reaches only x
                v = g @ p[f"layers.{i}.w"]  # the adjoint of g_pre
            w_grads.append(g.T @ g_pre)
            if i == last:
                break
            pre, s = cache[i][2], cache[i][3]
            # g_pre = u * s + (u * pre) * d, d = s * (1 - s) = s * c
            r_bar = v * d
            d_bar = v * (u * pre)
            s_bar = d_bar * c + (d_bar * s) * -1.0
            a_bar = r_bar * u
            g = r_bar * pre + v * s
            s_bar += v * u
            pending.append((a_bar, s_bar, d))
        if dot:
            g = grad  # the field's adjoint, through the tape's ones * f
        else:  # `v` is the adjoint of the output's first-order gradient
            g = v * 2.0 * -0.5
        return self.parameter_gradients(cache, g, (w_grads, pending))


def _silu_backward(g: np.ndarray, pre: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The tape's gradient g * s + (g * pre) * d at the input `pre` of a SiLU
    with sigmoid `s`, d = s (1 - s), from `g` at its output, written over
    `pre` and `s`, which it consumes; it returns `s`."""
    d = 1.0 - s
    d *= s
    pre *= g
    pre *= d
    s *= g
    s += pre
    return s


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every parameter a model with `config` has."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(_layer_dims(config)):
        shapes[f"layers.{i}.w"] = (fan_in, fan_out)
        shapes[f"layers.{i}.b"] = (fan_out,)
    if config.num_classes > 0:
        shapes["label_embed"] = (config.num_classes, config.hidden[0])
    return shapes


def init_model(config: ModelConfig) -> GradientFieldModel:
    """Deterministic init: Glorot-uniform hidden layers, zero final layer and
    biases, small-normal label embedding. Equal seeds give equal bits."""
    rng = np.random.default_rng(config.init_seed)
    params = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    for i, (fan_in, fan_out) in enumerate(_layer_dims(config)[:-1]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params[f"layers.{i}.w"] = rng.uniform(-limit, limit, (fan_in, fan_out))
    if config.num_classes > 0:
        params["label_embed"] = 0.02 * rng.standard_normal(params["label_embed"].shape)
    return GradientFieldModel(config=config, params=params)


# ---------------------------------------------------------------------------
# explicit energy


def _total_energy(model: GradientFieldModel, graph: nd.Graph, xt: nd.Tensor,
                  label=None) -> nd.Tensor:
    """Batch-summed explicit energy as a live scalar node."""
    f = model.forward(graph, xt, label=label)
    if model.config.energy_kind == "dot":
        return nd.tsum(nd.mul(xt, f))
    if model.config.energy_kind == "l2norm":
        return nd.scalar_mul(nd.tsum(nd.square(f)), -0.5)
    raise ValueError("model has no explicit energy head (energy_kind='none')")


def energy(model: GradientFieldModel, x, label=None) -> np.ndarray:
    """Per-point scalar energy [n] under the configured construction."""
    if model.config.energy_kind == "none":
        raise ValueError("model has no explicit energy head (energy_kind='none')")
    x = np.asarray(x, dtype=np.float64)
    f = model.forward_values(x, label=label)
    if model.config.energy_kind == "dot":
        return np.sum(x * f, axis=1)
    return -0.5 * np.sum(f * f, axis=1)


def energy_gradient(model: GradientFieldModel, x, label=None) -> np.ndarray:
    """Input-gradient of the energy, [n, d] (rows are independent points):
    `nd.input_gradient(_total_energy(...), x)` off the tape on each row block
    of `x`, from `_forward_values` and `energy_input_gradient`, as one
    inference pass (`GradientFieldModel._row_pass`): the tape's bits on the
    same blocks where it returns."""
    def run(p, h, hot):
        cache = []
        model._forward_values(p, h, hot, cache)
        return model.energy_input_gradient(cache)

    return model._row_pass(x, label, None, run)
