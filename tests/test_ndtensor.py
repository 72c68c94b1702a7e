"""Autodiff engine checks: forward values, reverse gradients against central
finite differences, second-order correctness, and tape hygiene."""

import numpy as np
import pytest

from eqmatch import ndtensor as nd
from conftest import central_difference, rel_err


# ---------------------------------------------------------------------------
# forward values


def test_matmul_hand_value():
    out = nd.matmul(nd.constant([[1.0, 2.0], [3.0, 4.0]]), nd.constant([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_dot_hand_value():
    # a dot product is tsum(mul), the way the dot energy head builds one
    assert nd.tsum(nd.mul(nd.constant([1.0, 2.0]), nd.constant([3.0, 4.0]))).item() == 11.0


@pytest.mark.parametrize("shape", [(), (1,), (7,), (8,), (9,), (37, 3), (1001, 16)])
def test_sigmoid_values_has_the_bits_of_the_formula(shape):
    v = np.random.default_rng(len(shape)).standard_normal(shape) * 300.0
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-v))
    got = nd.sigmoid_values(v)
    assert isinstance(got, np.ndarray) and got.shape == shape
    assert got.tobytes() == np.asarray(want).tobytes()
    assert nd.sigmoid(nd.constant(v)).values.tobytes() == got.tobytes()


def test_constant_ops_stay_off_tape():
    out = nd.add(nd.constant([1.0]), nd.constant([2.0]))
    assert out.node is None and out.graph is None


def test_backward_of_sum_is_ones():
    g = nd.Graph()
    x = g.leaf([5.0, -1.0, 2.0])
    grads = nd.backward(nd.tsum(x))
    np.testing.assert_array_equal(nd.grad_values(grads, x), [1.0, 1.0, 1.0])


def test_backward_of_square_scalar():
    g = nd.Graph()
    x = g.leaf(np.array(3.0))
    grads = nd.backward(nd.square(x))
    assert nd.grad_values(grads, x) == 6.0


def test_untouched_ancestor_gets_zero_gradient():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0])
    y = g.leaf([3.0, 4.0])  # never used downstream
    grads = nd.backward(nd.tsum(x))
    np.testing.assert_array_equal(nd.grad_values(grads, y), [0.0, 0.0])


# ---------------------------------------------------------------------------
# gradient checks vs central finite differences
#
# Each case builds sample inputs for one public op kind.

#: the op kinds under gradient check, by the public function that records each
OPS = {
    "add": nd.add,
    "sub": nd.sub,
    "elementwise-mul": nd.mul,
    "scalar-mul": nd.scalar_mul,
    "matmul": nd.matmul,
    "sigmoid": nd.sigmoid,
    "silu": nd.silu,
    "sum": nd.tsum,
    "mean": nd.tmean,
    "reduce-leading": nd.reduce_leading,
    "square": nd.square,
    "broadcast": nd.broadcast_to,
}


def _sample_inputs(kind: str, rng: np.random.Generator):
    if kind in ("add", "sub", "elementwise-mul"):
        return [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))], {}
    if kind == "scalar-mul":
        return [rng.standard_normal((3, 4)), float(rng.uniform(-2, 2))], {}
    if kind == "matmul":
        return [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))], {}
    if kind in ("sigmoid", "silu", "square", "sum", "mean"):
        return [rng.standard_normal((3, 4))], {}
    if kind == "broadcast":
        return [rng.standard_normal(4), (3, 4)], {}
    if kind == "reduce-leading":  # a partial reduction; sum and mean reduce all axes
        return [rng.standard_normal((2, 3, 4))], {"n_axes": 1}
    raise AssertionError(kind)


def _differentiable_positions(kind: str, args):
    if kind in ("scalar-mul", "broadcast"):
        return [0]
    return list(range(len(args)))


def _apply(kind: str, args, kwargs, leaves: dict):
    """Run the op with selected arguments replaced by graph leaves."""
    cooked = []
    for i, a in enumerate(args):
        if i in leaves:
            cooked.append(leaves[i])
        elif isinstance(a, np.ndarray):
            cooked.append(nd.constant(a))
        else:
            cooked.append(a)
    return OPS[kind](*cooked, **kwargs)


@pytest.mark.parametrize("kind", sorted(OPS))
def test_gradcheck_every_op_kind_100_seeds(kind):
    """Reverse-mode gradient of every op matches central FD to 1e-6."""
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        args, kwargs = _sample_inputs(kind, rng)
        weight = None  # random projection makes the output a scalar
        for pos in _differentiable_positions(kind, args):
            graph = nd.Graph()
            target = args[pos]
            leaf = graph.leaf(target)
            out = _apply(kind, args, kwargs, {pos: leaf})
            if weight is None:
                weight = rng.standard_normal(out.shape)
            loss = nd.tsum(nd.mul(out, nd.constant(weight)))
            got = nd.grad_values(nd.backward(loss), leaf)

            def scalar_fn(v, _pos=pos):
                o = _apply(kind, args, kwargs, {_pos: nd.constant(v)})
                return float(np.sum(o.values * weight))

            want = central_difference(scalar_fn, np.array(target))
            assert rel_err(got, want) < 1e-6, (kind, seed, pos)


def test_gradcheck_two_layer_mlp(rng):
    """Random 2-layer MLP loss: parameter gradients match central FD."""
    x = rng.standard_normal((4, 3))
    w1 = rng.standard_normal((3, 8)) * 0.7
    b1 = rng.standard_normal(8) * 0.1
    w2 = rng.standard_normal((8, 2)) * 0.7
    b2 = rng.standard_normal(2) * 0.1
    y = rng.standard_normal((4, 2))

    def loss_from(params):
        graph = nd.Graph()
        leaves = {k: graph.leaf(v) for k, v in params.items()}
        h = nd.silu(nd.add(nd.matmul(nd.constant(x), leaves["w1"]),
                           nd.broadcast_to(leaves["b1"], (4, 8))))
        out = nd.add(nd.matmul(h, leaves["w2"]), nd.broadcast_to(leaves["b2"], (4, 2)))
        loss = nd.tmean(nd.square(nd.sub(out, nd.constant(y))))
        return loss, leaves

    params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    loss, leaves = loss_from(params)
    grads = nd.backward(loss)
    for name in params:
        def fn(v, _name=name):
            p = dict(params)
            p[_name] = v
            return loss_from(p)[0].item()

        want = central_difference(fn, params[name])
        got = nd.grad_values(grads, leaves[name])
        assert rel_err(got, want) < 1e-6, name


# ---------------------------------------------------------------------------
# second order


def test_input_gradient_cube():
    g = nd.Graph()
    x = g.leaf(np.array(2.0))
    cube = nd.mul(nd.square(x), x)
    first = nd.input_gradient(cube, x)
    assert first.item() == pytest.approx(12.0, abs=1e-12)
    second = nd.backward(first)
    assert nd.grad_values(second, x) == pytest.approx(12.0, abs=1e-12)


def test_input_gradient_dot_self():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0])
    grad = nd.input_gradient(nd.tsum(nd.mul(x, x)), x)
    np.testing.assert_allclose(grad.values, [2.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("act", [nd.silu, nd.sigmoid, nd.square])
def test_second_order_matches_fd_of_fd(act):
    """d²/dx² of sum(act(x)) via input_gradient+backward vs FD-of-FD."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x0 = float(rng.uniform(-1.5, 1.5))

        def f(v):
            return float(act(nd.constant(np.array(v))).values)

        g = nd.Graph()
        x = g.leaf(np.array(x0))
        first = nd.input_gradient(act(x), x)
        got = nd.grad_values(nd.backward(first), x)
        h = 1e-4
        want = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
        assert rel_err(got, np.array(want)) < 1e-4, (act.__name__, seed)


def test_second_order_parameter_gradients_small_mlp(rng):
    """Gradient-matching loss through an input-gradient: parameter gradients
    agree with central FD of the whole loss, to 1e-4."""
    x = rng.standard_normal((3, 2))
    target = rng.standard_normal((3, 2))
    params = {
        "w1": rng.standard_normal((2, 8)) * 0.8,
        "b1": rng.standard_normal(8) * 0.1,
        "w2": rng.standard_normal((8, 2)) * 0.8,
        "b2": rng.standard_normal(2) * 0.1,
    }

    def build(p):
        graph = nd.Graph()
        leaves = {k: graph.leaf(v) for k, v in p.items()}
        xin = graph.leaf(x)
        h = nd.silu(nd.add(nd.matmul(xin, leaves["w1"]),
                           nd.broadcast_to(leaves["b1"], (3, 8))))
        f = nd.add(nd.matmul(h, leaves["w2"]), nd.broadcast_to(leaves["b2"], (3, 2)))
        energy = nd.tsum(nd.mul(xin, f))  # dot-style energy summed over batch
        gx = nd.input_gradient(energy, xin)
        loss = nd.tmean(nd.square(nd.sub(gx, nd.constant(target))))
        return loss, leaves

    loss, leaves = build(params)
    grads = nd.backward(loss)
    for name in params:
        def fn(v, _name=name):
            p = dict(params)
            p[_name] = v
            return build(p)[0].item()

        want = central_difference(fn, params[name])
        got = nd.grad_values(grads, leaves[name])
        assert rel_err(got, want) < 1e-4, name


# ---------------------------------------------------------------------------
# errors and tape hygiene


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(nd.ShapeMismatchError, match=r"add.*\(2,\).*\(3,\)"):
        nd.add(nd.constant([1.0, 2.0]), nd.constant([1.0, 2.0, 3.0]))


def test_matmul_shape_error():
    with pytest.raises(nd.ShapeMismatchError, match="matmul"):
        nd.matmul(nd.constant([[1.0, 2.0]]), nd.constant([[1.0, 2.0]]))


def test_non_finite_raises():
    with pytest.raises(nd.NonFiniteError):
        nd.constant([np.nan])
    with pytest.raises(nd.NonFiniteError), np.errstate(over="ignore"):
        nd.square(nd.constant([1e200]))


@pytest.mark.parametrize("layout", ["0-d", "empty", "broadcast", "strided"])
@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_check_finite_on_every_layout(layout, bad):
    values = np.arange(12.0).reshape(3, 4)
    if bad is not None:
        values[1, 2] = bad
    values = {"0-d": values[1, 2, ...], "empty": values[:0],
              "broadcast": np.broadcast_to(values[1], (5, 4)),
              "strided": values[:, ::2]}[layout]
    assert nd.all_finite(values) == bool(np.isfinite(values).all())
    if nd.all_finite(values):
        nd.check_finite(values, "op")
    else:
        with pytest.raises(nd.NonFiniteError, match="op 'op'"):
            nd.check_finite(values, "op")


def test_backward_rejects_non_scalar():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0])
    with pytest.raises(nd.GraphError, match="0-d"):
        nd.backward(nd.square(x))


def test_backward_rejects_detached():
    with pytest.raises(nd.GraphError, match="detached"):
        nd.backward(nd.constant(np.array(1.0)))


def test_input_gradient_rejects_non_ancestor():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0])
    y = g.leaf([3.0, 4.0])
    with pytest.raises(nd.GraphError, match="ancestor"):
        nd.input_gradient(nd.tsum(x), y)


def test_cross_graph_mixing_rejected():
    g1, g2 = nd.Graph(), nd.Graph()
    with pytest.raises(nd.GraphError, match="different graphs"):
        nd.add(g1.leaf([1.0]), g2.leaf([1.0]))


def test_weight_gradient_has_no_second_backward():
    """The weight gradient X^T dC of C = X W is a left-transposed product,
    which no loss differentiates, so backward through it has no rule."""
    g = nd.Graph()
    x = g.leaf([[1.0, 2.0], [3.0, 4.0]])
    w = g.leaf([[0.5], [-1.0]])
    grad_w = nd.input_gradient(nd.tsum(nd.square(nd.matmul(x, w))), w)
    assert g.nodes[grad_w.node].extra == (True, False)
    with pytest.raises(nd.GraphError, match="no backward rule for op 'matmul'"):
        nd.backward(nd.tsum(grad_w))


def test_broadcast_rejects_non_suffix():
    with pytest.raises(nd.ShapeMismatchError, match="broadcast"):
        nd.broadcast_to(nd.constant([1.0, 2.0]), (2, 3))


def test_constants_never_receive_gradients():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0])
    c = nd.constant([3.0, 4.0])
    grads = nd.backward(nd.tsum(nd.mul(x, c)))
    assert all(gid is not None for gid in grads)
    with pytest.raises(nd.GraphError):
        nd.grad_values(grads, c)


def test_backward_visits_each_node_once():
    g = nd.Graph()
    x = g.leaf([1.0, 2.0, 3.0])
    y = nd.square(x)
    z = nd.add(y, y)  # diamond: y consumed twice
    grads = nd.backward(nd.tsum(z))
    np.testing.assert_allclose(nd.grad_values(grads, x), 4.0 * x.values, atol=1e-12)


def test_determinism_bitwise(rng):
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 3))

    def run():
        g = nd.Graph()
        xl, wl = g.leaf(x), g.leaf(w)
        loss = nd.tmean(nd.square(nd.silu(nd.matmul(xl, wl))))
        return nd.grad_values(nd.backward(loss), wl)

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()
