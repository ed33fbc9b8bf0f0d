"""Numerical core checks: hand-rolled forward oracles, finite-difference
backward verification, and frozen closed-form loss/optimizer values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewview.errors import NonFiniteError, ShapeError, StateError
from fewview.numcore import (
    ACTIVATIONS,
    Adam,
    DenseNet,
    LayerSpec,
    bev_mse,
    cross_entropy,
    softmax,
    work_array,
)
from testkit import LoopAdam, max_relative_error, numeric_gradient

GRAD_TOL = 1e-4


def small_net(seed=0):
    return DenseNet(
        [LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "tanh"), LayerSpec(3, 2, "linear")],
        seed=seed,
    )


def naive_forward(net, x):
    """Triple-loop reimplementation of the dense stack, no matmul."""
    h = np.array(x, dtype=np.float64)
    for w, b, spec in zip(net.weights, net.biases, net.specs):
        out = np.zeros(spec.out_dim)
        for i in range(spec.out_dim):
            acc = b[i]
            for j in range(spec.in_dim):
                acc += w[i, j] * h[j]
            out[i] = acc
        if spec.activation == "relu":
            out = np.maximum(out, 0.0)
        elif spec.activation == "tanh":
            out = np.tanh(out)
        elif spec.activation == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-out))
        h = out
    return h


def test_forward_matches_naive_loops():
    net = small_net()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=4)
        np.testing.assert_allclose(net.forward_cache(x[None])[0][0], naive_forward(net, x),
                                   rtol=1e-12)


def test_forward_batch_matches_single():
    net = small_net()
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(7, 4))
    batched = net.forward_cache(xs)[0]
    assert batched.shape == (7, 2)
    for i in range(7):
        # batched matmul may take a different BLAS path; agreement is to
        # rounding, not bit-for-bit
        np.testing.assert_allclose(batched[i], net.forward_cache(xs[i : i + 1])[0][0],
                                   rtol=1e-12, atol=1e-14)


# The selection rollout values a step's states, one block of rows per
# instance, with one forward on the stack of blocks. NumPy's stacked matmul
# makes one BLAS call per block, so each block keeps the bits of a forward
# on it alone; a flattened (G * B, in_dim) batch is one larger BLAS call,
# whose bits depend on the BLAS build, so it is not asserted either way.
@pytest.mark.parametrize("stack, widths", [
    pytest.param((8, 1), (32, 64, 64, 12), id="cls-train"),   # 8 instances, one row each
    pytest.param((1, 12), (32, 64, 64, 12), id="cls-eval"),   # every initial view
    pytest.param((1, 6), (16, 64, 64, 6), id="det-eval"),
    pytest.param((1, 1), (16, 64, 64, 6), id="det-train"),
    pytest.param((2, 3, 4), (16, 64, 64, 6), id="two-leading-axes"),
])
def test_stacked_forward_equals_per_block_calls_bit_for_bit(stack, widths):
    specs = [LayerSpec(i, o, "relu") for i, o in zip(widths[:-2], widths[1:-1])]
    net = DenseNet(specs + [LayerSpec(widths[-2], widths[-1], "linear")], seed=3)
    x = np.random.default_rng(5).normal(size=stack + (widths[0],))
    y, cache = net.forward_cache(x)
    assert y.shape == stack + (widths[-1],)
    for index in np.ndindex(stack[:-1]):
        y_block, cache_block = net.forward_cache(x[index])
        assert y[index].tobytes() == y_block.tobytes()
        for (x_in, out), (x_block, out_block) in zip(cache, cache_block):
            assert x_in[index].tobytes() == x_block.tobytes()
            assert out[index].tobytes() == out_block.tobytes()


def test_backward_rejects_a_stacked_cache_or_gradient():
    net = small_net()
    x = np.random.default_rng(6).normal(size=(3, 2, 4))
    y, cache = net.forward_cache(x)
    batch_cache = net.forward_cache(x[0])[1]
    for c, grad in ((cache, np.ones_like(y)), (cache, np.ones((2, 2))),
                    (batch_cache, np.ones((1, 2, 2)))):
        with pytest.raises(ShapeError):
            net.backward(c, grad)


def test_seeded_init_is_deterministic():
    a = small_net(seed=42)
    b = small_net(seed=42)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)
    c = small_net(seed=43)
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa), (_, pc) in zip(a.named_params(), c.named_params())
    )


def test_init_respects_fan_in_limit():
    net = DenseNet([LayerSpec(16, 8, "relu")], seed=3)
    limit = np.sqrt(1.0 / 16)
    assert np.all(np.abs(net.weights[0]) <= limit)
    assert np.all(np.abs(net.biases[0]) <= limit)


def test_backward_matches_finite_differences():
    net = small_net(seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 4))
    target = rng.normal(size=(1, 2))

    def loss():
        y = net.forward_cache(x)[0]
        return float(np.sum((y - target) ** 2))

    y, cache = net.forward_cache(x)
    grads, dx = net.backward(cache, 2.0 * (y - target))
    for name, param in net.named_params():
        num = numeric_gradient(loss, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name
    # input gradient via probing x itself
    num_dx = numeric_gradient(loss, x)
    assert max_relative_error(dx, num_dx) < GRAD_TOL


def test_backward_batched_matches_finite_differences():
    net = DenseNet([LayerSpec(3, 6, "sigmoid"), LayerSpec(6, 2, "linear")], seed=11)
    rng = np.random.default_rng(12)
    xs = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 2))

    def loss():
        y = net.forward_cache(xs)[0]
        return float(np.sum((y - target) ** 2))

    y, cache = net.forward_cache(xs)
    grads, _ = net.backward(cache, 2.0 * (y - target))
    for name, param in net.named_params():
        num = numeric_gradient(loss, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name


def test_relu_backward_equals_float_mask_bit_for_bit():
    # units 0 and 1 sit exactly at or below zero: their gradient is zeroed
    # with the incoming gradient's sign, as a float 0/1 mask zeroes it
    net = DenseNet([LayerSpec(3, 4, "relu")], seed=0)
    net.weights[0][:2] = 0.0
    net.biases[0][:2] = [0.0, -1.0]
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 3))
    out, cache = net.forward_cache(x)
    grad = rng.normal(size=out.shape)
    grads, d_x = net.backward(cache, grad)
    z = x @ net.weights[0].T + net.biases[0]
    dz = grad * (z > 0.0).astype(np.float64)
    assert grads["layer0.bias"].tobytes() == dz.sum(axis=0).tobytes()
    assert grads["layer0.weight"].tobytes() == (dz.T @ x).tobytes()
    assert d_x.tobytes() == (dz @ net.weights[0]).tobytes()
    np.testing.assert_array_equal(grads["layer0.bias"][:2], 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(ACTIVATIONS), min_size=1, max_size=3))
def test_backward_without_input_gradient_keeps_parameter_gradients(seed, activations):
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(1, 6, size=len(activations) + 1)]
    net = DenseNet([LayerSpec(a, b, act) for a, b, act in zip(widths, widths[1:], activations)],
                   seed=seed)
    x = rng.normal(size=(int(rng.integers(1, 7)), widths[0]))
    out, cache = net.forward_cache(x)
    grad = rng.normal(size=out.shape)
    full, d_x = net.backward(cache, grad)
    params, skipped = net.backward(cache, grad, input_grad=False)
    assert skipped is None and d_x.shape == x.shape
    assert list(params) == list(full)
    for name, g in full.items():
        assert params[name].tobytes() == g.tobytes(), name


def fresh_backward(net, cache, grad):
    """Backward with a fresh array for every temporary: the reference that
    backward into work arrays must equal bit for bit."""
    grads = {}
    for i in range(len(net.specs) - 1, -1, -1):
        x_in, y = cache[i]
        activation = net.specs[i].activation
        if activation == "relu":
            grad = grad * (y > 0.0)
        elif activation == "tanh":
            grad = grad * (1.0 - y * y)
        elif activation == "sigmoid":
            grad = grad * (y * (1.0 - y))
        grads[f"layer{i}.weight"] = grad.T @ x_in
        grads[f"layer{i}.bias"] = grad.sum(axis=0)
        grad = grad @ net.weights[i]
    return grads, grad


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(ACTIVATIONS), min_size=1, max_size=4))
def test_backward_into_reused_work_arrays_equals_fresh_reference(seed, activations):
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(1, 6, size=len(activations) + 1)]
    net = DenseNet([LayerSpec(a, b, act) for a, b, act in zip(widths, widths[1:], activations)],
                   seed=seed)
    work = {}
    kept = None
    for _ in range(2):  # the second step writes into the first step's arrays
        x = rng.normal(size=(int(rng.integers(1, 7)), widths[0]))
        x[rng.random(x.shape) < 0.2] = 0.0
        out, cache = net.forward_cache(x)
        grad_out = rng.normal(size=out.shape)
        before = grad_out.tobytes(), [(a.tobytes(), b.tobytes()) for a, b in cache]
        ref_grads, ref_dx = fresh_backward(net, cache, grad_out)
        grads, d_x = net.backward(cache, grad_out, work=work)
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name
        assert d_x.tobytes() == ref_dx.tobytes()
        assert (grad_out.tobytes(), [(a.tobytes(), b.tobytes()) for a, b in cache]) == before
        if kept is None:
            kept = dict(work)
    if len(activations) > 1 or activations[0] != "linear":
        assert work  # some temporary went into the work dict
    # shapes can change between steps only in the batch; kept arrays of an
    # unchanged shape are the same objects
    for key, arr in work.items():
        if kept[key].shape == arr.shape:
            assert arr is kept[key], key


def test_backward_reuses_its_work_arrays_at_detector_shapes():
    net = DenseNet([LayerSpec(16, 32, "relu"), LayerSpec(32, 16, "relu")], seed=0)
    rng = np.random.default_rng(0)
    work = {}
    returned = []
    for step in range(2):
        out, cache = net.forward_cache(rng.normal(size=(6144, 16)))
        grad_out = rng.normal(size=out.shape)
        ref_grads, _ = fresh_backward(net, cache, grad_out)
        grads, skipped = net.backward(cache, grad_out, input_grad=False, work=work)
        assert skipped is None
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name
        if step == 0:
            first = dict(work)
        returned.append(list(grads.values()))
    # each layer's mask and output gradient: the top layer's gradient with
    # its mask beside the caller's, and the inner one masked in place
    assert {arr.shape for arr in work.values()} == {(6144, 16), (6144, 32)}
    assert len(work) == 4
    assert all(work[key] is arr for key, arr in first.items())
    # the returned gradients are fresh on every step
    ids = {id(g) for g in returned[0]} | {id(g) for g in returned[1]}
    assert len(ids) == 8 and not ids & {id(a) for a in work.values()}


def test_work_array_keeps_an_array_until_its_shape_or_dtype_changes():
    work = {}
    a = work_array(work, "k", (3, 2))
    assert a.shape == (3, 2) and a.dtype == np.float64
    assert work_array(work, "k", (3, 2)) is a
    b = work_array(work, "k", (3, 2), bool)
    assert b is not a and b.dtype == bool and work["k"] is b
    c = work_array(work, "k", (4, 2), bool)
    assert c is not b and c.shape == (4, 2)
    assert work_array(work, "other", (4, 2), bool) is not c


def test_zeroed_work_array_is_zeroed_only_when_allocated():
    work = {}
    a = work_array(work, "k", (3, 2), zeroed=True)
    assert not a.any()
    a += 1.0
    assert work_array(work, "k", (3, 2), zeroed=True) is a and (a == 1.0).all()
    assert not work_array(work, "k", (4, 2), zeroed=True).any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(ACTIVATIONS), min_size=1, max_size=3))
def test_forward_into_caller_arrays_equals_the_fresh_forward(seed, activations):
    # each layer writes into its block of a larger caller buffer, with the
    # bits of a fresh forward, and the cache holds the caller's arrays
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(1, 9, size=len(activations) + 1)]
    net = DenseNet([LayerSpec(a, b, act) for a, b, act in zip(widths, widths[1:], activations)],
                   seed=seed)
    m = int(rng.integers(1, 300))
    x = rng.normal(size=(m, widths[0])) * 10.0 ** rng.integers(-2, 3)
    buffers = [np.zeros((3 * m, w)) for w in widths[1:]]
    out = [buf[m : 2 * m] for buf in buffers]
    y, cache = net.forward_cache(x, out)
    ref_y, ref_cache = net.forward_cache(x)
    assert y is out[-1] and y.tobytes() == ref_y.tobytes()
    for (x_in, y_i), (ref_x, ref_yi), o in zip(cache, ref_cache, out):
        assert y_i is o
        assert x_in.tobytes() == ref_x.tobytes() and y_i.tobytes() == ref_yi.tobytes()
    assert not any(buf[:m].any() or buf[2 * m :].any() for buf in buffers)


def gradient_layouts(g):
    """The gradient g (M, K) in every layout backward can be handed: C and
    Fortran order, strided rows or columns, and reversed axes."""
    wide = np.repeat(g, 2, axis=1)
    return {"C": g, "F": np.asfortranarray(g), "rows": np.repeat(g, 2, axis=0)[::2],
            "columns": wide[:, ::2], "reversed rows": g[::-1].copy()[::-1],
            "reversed columns": g[:, ::-1].copy()[:, ::-1]}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7000), st.integers(1, 64))
def test_bias_gradient_equals_the_row_sum_bit_for_bit(seed, m, k):
    # the bias gradient of every layout equals grad.sum(axis=0), the row sum
    # a C-contiguous array of two or more columns takes by einsum
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(m, k)) * np.exp(rng.normal(size=(m, k)) * 8.0)
    g[rng.random((m, k)) < 0.2] = rng.choice([0.0, -0.0])
    g[:, rng.random(k) < 0.2] = -0.0
    net = DenseNet([LayerSpec(2, k, "linear")], seed=seed)
    _, cache = net.forward_cache(rng.normal(size=(m, 2)))
    for name, grad in gradient_layouts(g).items():
        bias = net.backward(cache, grad, input_grad=False)[0]["layer0.bias"]
        assert bias.tobytes() == grad.sum(axis=0).tobytes(), name


def test_backward_without_cache_raises():
    net = small_net()
    with pytest.raises(StateError):
        net.backward(None, np.zeros((1, 2)))


def test_mismatched_layer_widths_rejected():
    with pytest.raises(ShapeError):
        DenseNet([LayerSpec(4, 5), LayerSpec(6, 2)], seed=0)


def test_wrong_input_width_rejected():
    net = small_net()
    with pytest.raises(ShapeError):
        net.forward_cache(np.zeros((1, 9)))
    with pytest.raises(ShapeError):
        net.forward_cache(np.zeros((2, 1, 9)))
    with pytest.raises(ShapeError):
        net.forward_cache(np.zeros(4))


def test_nonfinite_forward_raises():
    net = small_net()
    with pytest.raises(NonFiniteError):
        net.forward_cache(np.array([[np.nan, 0.0, 0.0, 0.0]]))


def test_mac_count():
    net = small_net()
    assert net.mac_count() == 4 * 5 + 5 * 3 + 3 * 2
    assert sum(p.size for _, p in net.named_params()) == (4 * 5 + 5) + (5 * 3 + 3) + (3 * 2 + 2)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(logits):
    p = softmax(np.array(logits))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-12


@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    st.floats(-50, 50),
)
def test_softmax_shift_invariant(logits, shift):
    a = softmax(np.array(logits))
    b = softmax(np.array(logits) + shift)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_cross_entropy_frozen_values():
    # softmax([1, 2]) = [1/(1+e), e/(1+e)]; -log of each picked entry:
    loss0, _ = cross_entropy(np.array([[1.0, 2.0]]), np.array([0]))
    loss1, _ = cross_entropy(np.array([[1.0, 2.0]]), np.array([1]))
    assert abs(loss0 - 1.3132616875182228) < 1e-15
    assert abs(loss1 - 0.3132616875182228) < 1e-15
    # uniform logits over C classes cost exactly ln C
    for c in (2, 5, 10):
        loss, _ = cross_entropy(np.zeros((1, c)), np.array([c - 1]))
        assert abs(loss - np.log(c)) < 1e-12


def test_cross_entropy_batch_is_mean_of_singles():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    batch_loss, batch_grad = cross_entropy(logits, labels)
    singles = [cross_entropy(logits[i : i + 1], labels[i : i + 1]) for i in range(6)]
    assert abs(batch_loss - np.mean([s[0] for s in singles])) < 1e-12
    for i in range(6):
        np.testing.assert_allclose(batch_grad[i], singles[i][1][0] / 6.0, atol=1e-15)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(22)
    logits = rng.normal(size=(3, 5))
    labels = np.array([0, 4, 2])

    def loss():
        return cross_entropy(logits, labels)[0]

    _, grad = cross_entropy(logits.copy(), labels)
    num = numeric_gradient(loss, logits)
    assert max_relative_error(grad, num) < GRAD_TOL


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 3)), np.array([3]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((1, 3)), np.array([-1]))


def test_bev_mse_zero_iff_equal():
    a = np.linspace(0, 1, 12).reshape(3, 4)
    loss, grad = bev_mse(a, a.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_bev_mse_matches_double_loop():
    rng = np.random.default_rng(31)
    h = rng.uniform(size=(4, 5))
    t = rng.uniform(size=(4, 5))
    loss, grad = bev_mse(h, t)
    acc = 0.0
    for i in range(4):
        for j in range(5):
            acc += (h[i, j] - t[i, j]) ** 2
    assert abs(loss - acc / 20.0) < 1e-15
    np.testing.assert_allclose(grad, 2.0 * (h - t) / 20.0, atol=1e-15)


def test_bev_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(32)
    h = rng.uniform(size=(3, 3))
    t = rng.uniform(size=(3, 3))

    def loss():
        return bev_mse(h, t)[0]

    _, grad = bev_mse(h, t)
    num = numeric_gradient(loss, h)
    assert max_relative_error(grad, num) < GRAD_TOL


def test_bev_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        bev_mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_adam_single_step_hand_trace():
    # one step with g=1 everywhere: m_hat=1, v_hat=1, delta = lr/(1 + eps)
    p = np.zeros(3)
    opt = Adam([("p", p)], lr=0.1)
    opt.step({"p": np.ones(3)})
    expected = -0.1 / (1.0 + 1e-8)
    np.testing.assert_allclose(p, expected, atol=1e-15)
    assert opt.step_count == 1


def test_adam_two_steps_hand_trace():
    p = np.array([0.0])
    opt = Adam([("p", p)], lr=0.5)
    g1, g2 = np.array([1.0]), np.array([-2.0])
    # manual replay
    m = 0.1 * 1.0
    v = 0.001 * 1.0
    x = -0.5 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    m = 0.9 * m + 0.1 * (-2.0)
    v = 0.999 * v + 0.001 * 4.0
    x -= 0.5 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
    opt.step({"p": g1})
    opt.step({"p": g2})
    np.testing.assert_allclose(p, [x], atol=1e-14)


def test_adam_rejects_nonfinite_and_names_param():
    p = np.zeros(2)
    opt = Adam([("branch.layer0.weight", p)], lr=0.1)
    with pytest.raises(NonFiniteError, match="branch.layer0.weight"):
        opt.step({"branch.layer0.weight": np.array([1.0, np.inf])})
    # failed step must not advance state
    assert opt.step_count == 0
    np.testing.assert_array_equal(p, np.zeros(2))


def test_adam_rejects_missing_or_misshaped_grad():
    p = np.zeros((2, 2))
    opt = Adam([("p", p)], lr=0.1)
    with pytest.raises(KeyError):
        opt.step({})
    with pytest.raises(ShapeError):
        opt.step({"p": np.zeros(3)})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 0.1, 2.0]))
def test_adam_flat_update_equals_the_per_array_reference(shapes, seed, lr):
    # 30 steps over 1-6 parameters of mixed shapes, gradient magnitudes from
    # 1e-12 to 1e3 with about a fifth exact zeros: the same bytes per step
    rng = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(len(shapes))]
    flat = [rng.normal(size=shape) for shape in shapes]
    loop = [p.copy() for p in flat]
    opt = Adam(list(zip(names, flat)), lr=lr)
    ref = LoopAdam(list(zip(names, loop)), lr=lr)
    for _ in range(30):
        grads = {}
        for name, shape in zip(names, shapes):
            size = int(np.prod(shape))
            mag = 10.0 ** rng.uniform(-12.0, 3.0, size=size) * rng.choice([-1.0, 1.0], size=size)
            grads[name] = np.where(rng.random(size) < 0.2, 0.0, mag).reshape(shape)
        opt.step(grads)
        ref.step(grads)
        for name, p, r in zip(names, flat, loop):
            assert p.tobytes() == r.tobytes(), name
    assert opt.step_count == ref.step_count == 30


def test_adam_failed_step_on_the_last_parameter_changes_nothing():
    rng = np.random.default_rng(5)
    names, shapes = ["a", "b", "c"], [(3, 2), (4,), (2, 2)]
    params = [rng.normal(size=s) for s in shapes]
    ref_params = [p.copy() for p in params]
    opt = Adam(list(zip(names, params)), lr=0.1)
    ref = LoopAdam(list(zip(names, ref_params)), lr=0.1)
    good = [{n: rng.normal(size=s) for n, s in zip(names, shapes)} for _ in range(3)]
    opt.step(good[0])
    ref.step(good[0])
    before = [p.copy() for p in params]
    last_bad = dict(good[1], c=np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(NonFiniteError, match="'c'"):
        opt.step(last_bad)
    with pytest.raises(NonFiniteError, match="'b'"):  # the first bad one is named
        opt.step(dict(last_bad, b=np.array([0.0, -np.inf, 0.0, 0.0])))
    assert opt.step_count == 1
    for p, b in zip(params, before):
        assert p.tobytes() == b.tobytes()
    # the moments are untouched too: later steps match a reference that
    # never saw the failed ones
    for grads in good[1:]:
        opt.step(grads)
        ref.step(grads)
    for p, r in zip(params, ref_params):
        assert p.tobytes() == r.tobytes()


def test_adam_with_no_parameters_still_counts_steps():
    opt = Adam([], lr=0.1)
    opt.step({})
    assert opt.step_count == 1


def test_adam_reduces_quadratic_loss():
    rng = np.random.default_rng(41)
    p = rng.normal(size=4)
    target = np.array([1.0, -2.0, 0.5, 3.0])
    opt = Adam([("p", p)], lr=0.05)
    start = float(np.sum((p - target) ** 2))
    for _ in range(500):
        opt.step({"p": 2.0 * (p - target)})
    assert float(np.sum((p - target) ** 2)) < 1e-3 * start


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_max_relative_error_zero_for_identical(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=6)
    assert max_relative_error(a, a.copy()) == 0.0


def test_max_relative_error_uses_floor_near_zero():
    a = np.array([0.0])
    b = np.array([1e-9])
    # denominator is the 1e-6 floor, not 1e-9
    assert abs(max_relative_error(a, b) - 1e-3) < 1e-12
