"""Autodiff engine: analytic forward values, hand-checked gradients,
finite-difference agreement, and graph bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tworank import autodiff as ad
from tworank.autodiff import ShapeError, Tensor, backward, gradcheck, no_grad


# ---------------------------------------------------------------------------
# forward values with closed-form expectations
# ---------------------------------------------------------------------------


def test_sigmoid_at_zero():
    assert float(ad.sigmoid(Tensor(0.0)).data) == pytest.approx(0.5, abs=1e-15)


def test_softplus_at_zero_is_log_two():
    assert float(ad.softplus(Tensor(0.0)).data) == pytest.approx(np.log(2.0), abs=1e-15)


def test_sigmoid_stable_at_extremes():
    out = ad.sigmoid(Tensor(np.array([-745.0, 745.0]))).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def test_softmax_of_constant_row_is_uniform():
    out = ad.softmax(Tensor(np.full((2, 5), 3.7))).data
    assert np.allclose(out, 0.2, atol=1e-15)


def test_layer_norm_constant_row_returns_bias():
    gain = Tensor(np.full(4, 2.0))
    bias = Tensor(np.array([1.0, -1.0, 0.5, 0.0]))
    out = ad.layer_norm(Tensor(np.full((3, 4), 9.0)), gain, bias).data
    # constant rows have zero variance: normalized value is 0, output = bias
    assert np.allclose(out, bias.data, atol=1e-12)


def test_l2_normalize_three_four():
    out = ad.l2_normalize(Tensor(np.array([3.0, 4.0]))).data
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_dead_vector_guard():
    out = ad.l2_normalize(Tensor(np.zeros(4))).data
    assert np.all(out == 0.0)


def test_relu_values():
    out = ad.relu(Tensor(np.array([-2.0, 0.0, 3.0]))).data
    assert np.array_equal(out, [0.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# hand-checked gradients
# ---------------------------------------------------------------------------


def test_sum_backward_is_all_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    grads = backward(ad.tsum(x), [x])
    assert np.array_equal(grads[x], np.ones((2, 3)))


def test_sigmoid_gradient_at_zero():
    x = Tensor(0.0, requires_grad=True)
    grads = backward(ad.sigmoid(x), [x])
    assert float(grads[x]) == pytest.approx(0.25, abs=1e-15)


def test_matmul_gradients_hand_checked():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
    grads = backward(ad.tsum(ad.matmul(a, b)), [a, b])
    # d(sum(AB))/dA = ones @ B^T, d/dB = A^T @ ones
    assert np.allclose(grads[a], np.ones((2, 2)) @ b.data.T)
    assert np.allclose(grads[b], a.data.T @ np.ones((2, 2)))


def test_broadcast_add_gradient_shapes():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    grads = backward(ad.tsum(ad.add(a, b)), [a, b])
    assert grads[a].shape == (3, 4)
    assert grads[b].shape == (4,)
    assert np.array_equal(grads[b], np.full(4, 3.0))


def test_mean_gradient_scaling():
    x = Tensor(np.zeros(5), requires_grad=True)
    grads = backward(ad.tmean(x), [x])
    assert np.allclose(grads[x], 0.2)


def test_diamond_graph_accumulates():
    # y = x*x + x*x reuses x twice along two paths
    x = Tensor(3.0, requires_grad=True)
    y = ad.mul(x, x) + ad.mul(x, x)
    grads = backward(y, [x])
    assert float(grads[x]) == pytest.approx(12.0, abs=1e-12)


def test_unreachable_param_gets_zero_grad():
    x = Tensor(1.0, requires_grad=True)
    other = Tensor(np.zeros(3), requires_grad=True)
    grads = backward(ad.scale(x, 2.0), [x, other])
    assert np.array_equal(grads[other], np.zeros(3))


def test_add_and_mul_vjps_skip_constant_inputs():
    """A constant operand (a mask, a weight) gets None, and the operand
    that requires grad gets the array the full VJP computed for it."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    mask = Tensor((rng.random((2, 3, 4, 1)) < 0.5).astype(float))
    bias = Tensor(rng.normal(size=5), requires_grad=True)
    const = Tensor(rng.normal(size=(2, 3, 4, 5)))
    g = rng.normal(size=(2, 3, 4, 5))
    cases = [
        (ad.add(x, mask), (g, None)),
        (ad.add(mask, x), (None, g)),
        (ad.mul(x, mask), (g * mask.data, None)),
        (ad.mul(mask, x), (None, g * mask.data)),
        (ad.add(const, bias), (None, g.sum(axis=0).sum(axis=0).sum(axis=0))),
        (ad.mul(const, bias), (None, (g * const.data).sum(axis=0).sum(axis=0).sum(axis=0))),
    ]
    for out, want in cases:
        got = out._vjp(g)
        assert [w is None for w in want] == [a is None for a in got]
        for a, w in zip(got, want):
            if w is not None:
                assert a.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# finite-difference agreement (spot checks; the full sweep runs in the
# acceptance suite)
# ---------------------------------------------------------------------------


def test_gradcheck_layer_norm():
    rng = np.random.default_rng(1)
    rep = gradcheck(
        lambda x, g, b: ad.tsum(ad.mul(ad.layer_norm(x, g, b),
                                       Tensor(np.cos(np.arange(12.0)).reshape(3, 4)))),
        [rng.normal(size=(3, 4)), rng.normal(size=4) + 1.0, rng.normal(size=4)])
    assert rep.passed, rep


def test_gradcheck_attention_with_mask():
    rng = np.random.default_rng(2)
    mask = np.array([[1.0, 1.0, 0.0]])
    rep = gradcheck(
        lambda q, k, v: ad.tsum(ad.attention(q, k, v, mask=mask)),
        [rng.normal(size=(1, 2, 3, 4)) for _ in range(3)])
    assert rep.passed, rep


def test_gradcheck_attention_one_query_of_five_keys():
    """A single query row over more keys, one of them masked: the shape the
    user tower's last layer takes from [CLS]."""
    rng = np.random.default_rng(5)
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    weights = Tensor(rng.normal(size=(2, 2, 1, 3)))
    q = rng.normal(size=(2, 2, 1, 3))
    k, v = rng.normal(size=(2, 2, 5, 3)), rng.normal(size=(2, 2, 5, 3))
    rep = gradcheck(lambda q, k, v: ad.tsum(ad.mul(ad.attention(q, k, v, mask=mask), weights)),
                    [q, k, v])
    assert rep.passed, rep
    # the one query row reads what it reads among five query rows
    square = np.concatenate([q, rng.normal(size=(2, 2, 4, 3))], axis=2)
    one = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask=mask).data
    full = ad.attention(Tensor(square), Tensor(k), Tensor(v), mask=mask).data
    assert np.allclose(one, full[:, :, :1], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("q_shape", [(3, 2, 1, 4), (2, 1, 1, 4), (2, 2, 1, 3), (2, 1, 4)],
                         ids=["batch", "heads", "head-width", "rank"])
def test_attention_query_must_match_keys_but_length(q_shape):
    k = Tensor(np.zeros((2, 2, 5, 4)))
    with pytest.raises(ShapeError):
        ad.attention(Tensor(np.zeros(q_shape)), k, k)


def test_gradcheck_detects_wrong_gradient():
    # a deliberately broken function: forward exp, backward pretends identity
    def bad(x):
        out = ad.apply_primitive("exp", (x,))
        wrong = Tensor(out.data, requires_grad=True)
        wrong._inputs = (x,)
        wrong._vjp = lambda g: (g,)
        return ad.tsum(wrong)

    rep = gradcheck(bad, [np.array([1.0, 2.0])])
    assert not rep.passed


def test_gradcheck_fails_on_a_nan_error():
    """log at -1 has a finite gradient but NaN finite differences; the NaN
    is the reported error, not the 0 it started from."""
    with np.errstate(invalid="ignore"):
        rep = gradcheck(lambda x: ad.tsum(ad.log(x)), [np.array([-1.0, 2.0])])
    assert np.isnan(rep.max_rel_error) and not rep.passed


# ---------------------------------------------------------------------------
# errors and modes
# ---------------------------------------------------------------------------


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("bias_shape", [(3,), (5,), (1, 2), ()])
def test_matmul_bias_shape_error(bias_shape):
    """A bias must be (m,) for (..., n, k) @ (k, m): one of the inner
    width, a longer one, a row that would broadcast and a scalar all raise."""
    with pytest.raises(ShapeError, match="bias must be"):
        ad.matmul(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(bias_shape)))


def test_layer_norm_needs_width_two():
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.zeros((3, 1))), Tensor(np.zeros(1)), Tensor(np.zeros(1)))


def test_gather_out_of_range():
    with pytest.raises(ShapeError):
        ad.gather(Tensor(np.zeros((4, 2))), np.array([0, 4]))


def test_unknown_primitive():
    with pytest.raises(KeyError):
        ad.apply_primitive("no_such_op", (Tensor(0.0),))


def test_backward_requires_scalar_root():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(ad.relu(x), [x])


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = ad.relu(x)
    assert not y.requires_grad
    assert y._vjp is None


def test_attention_mask_excludes_padded_keys():
    rng = np.random.default_rng(3)
    q = Tensor(rng.normal(size=(1, 1, 3, 4)))
    k = Tensor(rng.normal(size=(1, 1, 3, 4)))
    v_real = rng.normal(size=(1, 1, 3, 4))
    v_altered = v_real.copy()
    v_altered[..., 2, :] = 99.0  # only the masked key's value changes
    mask = np.array([[1.0, 1.0, 0.0]])
    out1 = ad.attention(q, k, Tensor(v_real), mask=mask).data
    out2 = ad.attention(q, k, Tensor(v_altered), mask=mask).data
    assert np.allclose(out1, out2, atol=1e-12)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(arrays(np.float64, (3, 5), elements=st.floats(-30, 30)))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax(Tensor(x)).data
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


@given(arrays(np.float64, (4,), elements=st.floats(-100, 100)))
@settings(max_examples=50, deadline=None)
def test_l2_normalize_output_norm(x):
    out = ad.l2_normalize(Tensor(x)).data
    norm = np.linalg.norm(out)
    assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


@given(arrays(np.float64, (2, 3), elements=st.floats(-50, 50)),
       arrays(np.float64, (3,), elements=st.floats(-50, 50)))
@settings(max_examples=50, deadline=None)
def test_add_matches_numpy_broadcasting(a, b):
    assert np.array_equal(ad.add(Tensor(a), Tensor(b)).data, a + b)


@st.composite
def _gather_cases(draw):
    """A 1-50 x 1-8 table's shape, ids of any leading shape up to (B, T, L)
    (empty included; few rows make repeats common) and an output gradient."""
    n, d = draw(st.integers(1, 50)), draw(st.integers(1, 8))
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6))
    ids = draw(arrays(np.int64, shape, elements=st.integers(0, n - 1)))
    g = draw(arrays(np.float64, shape + (d,), elements=st.floats(-1e3, 1e3)))
    return n, d, ids, g


@given(_gather_cases())
@example((4, 2, np.zeros(0, dtype=np.int64), np.zeros((0, 2))))
@example((3, 2, np.ones((2, 3, 4), dtype=np.int64), np.arange(48.0).reshape(2, 3, 4, 2) / 7))
@settings(max_examples=100, deadline=None)
def test_gather_vjp_matches_add_at(case):
    n, d, ids, g = case
    table = Tensor(np.zeros((n, d)), requires_grad=True)
    out = ad.gather(table, ids)
    assert out.shape == ids.shape + (d,)
    (got,) = out._vjp(g)
    want = np.zeros((n, d))
    np.add.at(want, ids.reshape(-1), g.reshape(-1, d))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _two_pass_layer_norm(xd, gd, bd, eps=ad.LAYER_NORM_EPS):
    """The layer-norm forward with `np.var` and a second subtraction, and
    its VJP: the reference for the primitive's one-subtraction forward."""
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    d = xd.shape[-1]

    def vjp(g):
        gx_hat = g * gd
        dmean = gx_hat.mean(axis=-1, keepdims=True)
        dproj = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - dmean - xhat * dproj)
        return gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return xhat * gd + bd, vjp


@st.composite
def _layer_norm_cases(draw):
    """x of 1-3 axes (last at least 2 wide), gain, bias and an output gradient."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=9))
    floats = st.floats(-1e3, 1e3)
    return tuple(draw(arrays(np.float64, s, elements=floats))
                 for s in (shape, shape[-1:], shape[-1:], shape))


def _normal_case(*shape):
    rng = np.random.default_rng(0)
    return tuple(rng.normal(size=s) for s in (shape, shape[-1:], shape[-1:], shape))


@given(_layer_norm_cases())
@example(_normal_case(32, 25, 16))
@example(_normal_case(64, 65, 32))
@example(_normal_case(4096, 32))
@example(_normal_case(3, 7))
@settings(max_examples=100, deadline=None)
def test_layer_norm_matches_two_pass_formula(case):
    x, gain, bias, g = case
    out, vjp = ad.PRIMITIVES["layer_norm"]((Tensor(x), Tensor(gain), Tensor(bias)), {})
    want_out, want_vjp = _two_pass_layer_norm(x, gain, bias)
    assert out.tobytes() == want_out.tobytes()
    for got, want in zip(vjp(g), want_vjp(g)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _plain_attention(qd, kd, vd, mask=None):
    """The attention forward and VJP written with a fresh array per step:
    the reference for the primitive's in-place softmax."""
    invsqrt = 1.0 / np.sqrt(qd.shape[-1])
    logits = (qd @ np.swapaxes(kd, -1, -2)) * invsqrt
    if mask is not None:
        logits = logits + (1.0 - mask)[..., None, None, :] * ad.ATTN_MASK_VALUE
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    att = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        gv = np.swapaxes(att, -1, -2) @ g
        gatt = g @ np.swapaxes(vd, -1, -2)
        dot = (gatt * att).sum(axis=-1, keepdims=True)
        glogits = att * (gatt - dot)
        gq = (glogits @ kd) * invsqrt
        gk = (np.swapaxes(glogits, -1, -2) @ qd) * invsqrt
        return gq, gk, gv

    return att @ vd, vjp


@st.composite
def _attention_cases(draw):
    """q, k, v of shape (B, H, T, Dh), a key mask of 0s and 1s or None (a
    row may be all padding), and an output gradient."""
    b, h, tq, tk, dh = (draw(st.integers(1, n)) for n in (3, 3, 5, 6, 4))
    floats = st.floats(-1e3, 1e3)
    q, g = (draw(arrays(np.float64, (b, h, tq, dh), elements=floats)) for _ in range(2))
    k, v = (draw(arrays(np.float64, (b, h, tk, dh), elements=floats)) for _ in range(2))
    mask = draw(st.none() | arrays(np.float64, (b, tk), elements=st.sampled_from([0.0, 1.0])))
    return q, k, v, mask, g


def _tower_attention_case(b, h, tq, tk, dh, padded=None):
    """Normal q, k, v and gradient at a tower shape, and a mask (None when
    `padded` is) whose rows keep key 0 (the [CLS] slot) and pad their
    tails, `padded` of all keys in total."""
    rng = np.random.default_rng(0)
    q, g = rng.normal(size=(b, h, tq, dh)), rng.normal(size=(b, h, tq, dh))
    k, v = rng.normal(size=(b, h, tk, dh)), rng.normal(size=(b, h, tk, dh))
    pads = rng.multinomial(round((padded or 0.0) * b * tk), np.full(b, 1.0 / b))
    mask = (np.arange(tk) < tk - np.minimum(pads, tk - 1)[:, None]).astype(np.float64)
    return q, k, v, None if padded is None else mask, g


@given(_attention_cases())
@example(_tower_attention_case(32, 2, 25, 25, 8, 0.21))
@example(_tower_attention_case(64, 2, 65, 65, 16, 0.09))
@example(_tower_attention_case(64, 2, 1, 65, 16, 0.09))
@example(_tower_attention_case(64, 2, 65, 65, 16, 0.51))
@example(_tower_attention_case(32, 2, 25, 25, 8))
@example((np.ones((2, 1, 3, 2)), np.ones((2, 1, 4, 2)), np.arange(16.0).reshape(2, 1, 4, 2),
          np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0]]), np.ones((2, 1, 3, 2))))
@settings(max_examples=100, deadline=None)
def test_attention_matches_plain_formula(case):
    q, k, v, mask, g = case
    attrs = {} if mask is None else {"mask": mask}
    out, vjp = ad.PRIMITIVES["attention"]((Tensor(q), Tensor(k), Tensor(v)), attrs)
    want_out, want_vjp = _plain_attention(q, k, v, mask)
    assert out.tobytes() == want_out.tobytes()
    for got, want in zip(vjp(g), want_vjp(g)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _key_bias_cases(draw):
    """q, k, v of shape (B, H, T, Dh), a key mask that keeps key 0 of each
    row (the user tower's [CLS] slot), and a key bias of shape (Dh,)."""
    b, h, tq, tk, dh = (draw(st.integers(1, n)) for n in (3, 3, 5, 6, 4))
    floats = st.floats(-3, 3)
    q = draw(arrays(np.float64, (b, h, tq, dh), elements=floats))
    k, v = (draw(arrays(np.float64, (b, h, tk, dh), elements=floats)) for _ in range(2))
    mask = draw(arrays(np.float64, (b, tk), elements=st.sampled_from([0.0, 1.0])))
    mask[:, 0] = 1.0
    return q, k, v, mask, draw(arrays(np.float64, (dh,), elements=floats))


@given(_key_bias_cases())
@settings(max_examples=100, deadline=None)
def test_attention_ignores_a_key_bias(case):
    """A key bias b adds q . b to every logit of a query row, and the
    softmax cancels it: why the user tower has no key bias, and why a
    version-1 checkpoint's may be dropped whatever its value."""
    q, k, v, mask, bias = case
    plain = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask=mask).data
    shifted = ad.attention(Tensor(q), Tensor(k + bias), Tensor(v), mask=mask).data
    assert np.max(np.abs(shifted - plain)) <= 1e-12


@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=6)).flatmap(
    lambda a: st.tuples(st.just(a), arrays(np.float64, a.shape))))
@example((np.array([-1.0, -0.0, 0.0, 5e-324, np.nan, np.inf, -np.inf]), np.arange(7.0) - 3))
@settings(max_examples=100, deadline=None)
def test_relu_matches_mask_formula(case):
    """relu's VJP reads out > 0, which holds exactly where a > 0, NaN and
    signed zeros included."""
    a, g = case
    out, vjp = ad.PRIMITIVES["relu"]((Tensor(a),), {})
    assert out.tobytes() == np.maximum(a, 0.0).tobytes()
    with np.errstate(invalid="ignore"):  # inf * 0
        (got,) = vjp(g)
        assert got.tobytes() == (g * (a > 0)).tobytes()


@st.composite
def _matmul_bias_cases(draw):
    """a of 2 or 3 axes, w, a bias and an output gradient."""
    lead = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    floats = st.floats(-1e3, 1e3)
    return tuple(draw(arrays(np.float64, s, elements=floats))
                 for s in ((*lead, k), (k, m), (m,), (*lead, m)))


def _normal_matmul_case(*a_shape, m):
    rng = np.random.default_rng(0)
    k = a_shape[-1]
    return tuple(rng.normal(size=s) for s in (a_shape, (k, m), (m,), (*a_shape[:-1], m)))


@given(_matmul_bias_cases())
@example(_normal_matmul_case(64, 65, 32, m=32))
@example(_normal_matmul_case(64, 1, 32, m=32))
@example(_normal_matmul_case(64, 32, m=128))
@example(_normal_matmul_case(3, 1, 4, m=2))
@settings(max_examples=100, deadline=None)
def test_matmul_bias_matches_matmul_then_add(case):
    """matmul(a, w, bias) has the bytes of add(matmul(a, w), bias), forward
    and every VJP output."""
    a, w, bias, g = case
    ta, tw, tb = (Tensor(x, requires_grad=True) for x in (a, w, bias))
    out, vjp = ad.PRIMITIVES["matmul"]((ta, tw, tb), {})
    mm_out, mm_vjp = ad.PRIMITIVES["matmul"]((ta, tw), {})
    want_out, add_vjp = ad.PRIMITIVES["add"]((Tensor(mm_out, requires_grad=True), tb), {})
    g_mm, g_bias = add_vjp(g)
    assert out.tobytes() == want_out.tobytes()
    for got, want in zip(vjp(g), (*mm_vjp(g_mm), g_bias), strict=True):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_SQUARE, _ONE_QUERY = (_tower_attention_case(4, 2, tq, 5, 4, 0.2) for tq in (5, 1))
_HYGIENE_CASES = {
    "attention": (_SQUARE[:3], {}),
    "attention-mask": (_SQUARE[:3], {"mask": _SQUARE[3]}),
    "attention-one-query": (_ONE_QUERY[:3], {"mask": _ONE_QUERY[3]}),
    "layer_norm": (_normal_case(4, 5, 6)[:3], {}),
    "matmul-bias": (_normal_matmul_case(4, 5, 6, m=3)[:3], {}),
    "relu": ((np.random.default_rng(0).normal(size=(4, 5, 6)),), {}),
}


@pytest.mark.parametrize("case", sorted(_HYGIENE_CASES))
def test_vjp_writes_into_nothing_it_reads(case):
    """A VJP runs twice to the same bytes (gradcheck calls it more than
    once), and leaves the output gradient, every input and the forward
    output as they were."""
    arrays_in, attrs = _HYGIENE_CASES[case]
    inputs = tuple(Tensor(a) for a in arrays_in)
    out, vjp = ad.PRIMITIVES[case.split("-")[0]](inputs, attrs)
    g = np.random.default_rng(1).normal(size=out.shape)
    before = [a.tobytes() for a in (g, out, *arrays_in)]
    first = [r.tobytes() for r in vjp(g)]
    second = [r.tobytes() for r in vjp(g)]
    assert first == second
    assert [a.tobytes() for a in (g, out, *arrays_in)] == before
