"""Layer forward semantics, finite-difference gradient checks, Adam, weight I/O."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcae.nn
from qcae.ansatz import family_template
from qcae.model import QuantumLatent
from qcae.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPSILON,
    LEAKY_SLOPE,
    Adam,
    Conv2d,
    ConvTranspose2d,
    Dense,
    LeakyReLU,
    Reshape,
    Sigmoid,
    conv_out_size,
    load_weights,
    mse_loss,
    pack_parameters,
    save_weights,
    tconv_out_size,
)

from oracles import (col2im_zero_filled, conv2d_direct, fd_gradient, im2col_padded, peak_bytes,
                     tconv2d_direct)


def rng_for(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ forward basics

def test_conv_all_zero_kernel_gives_zero_map():
    conv = Conv2d(1, 1, 3, rng=rng_for())
    conv.weight[...] = 0.0
    conv.bias[...] = 0.0
    out = conv.forward(rng_for(1).random((1, 1, 5, 5)))
    assert out.shape == (1, 1, 3, 3)
    assert np.allclose(out, 0.0)


def test_conv_identity_kernel_reproduces_input():
    conv = Conv2d(1, 1, 3, stride=1, padding=1, rng=rng_for())
    conv.weight[...] = 0.0
    conv.weight[0, 0, 1, 1] = 1.0
    conv.bias[...] = 0.0
    x = rng_for(2).random((2, 1, 6, 6))
    assert np.allclose(conv.forward(x), x)


def test_dense_hand_computation():
    dense = Dense(2, 2, rng_for())
    dense.weight[...] = [[1.0, 2.0], [3.0, 4.0]]
    dense.bias[...] = 0.0
    out = dense.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[3.0, 7.0]])


def test_leaky_relu_piecewise_derivative():
    relu = LeakyReLU()
    relu.forward(np.array([[-1.0, 2.0]]))
    grad = relu.backward(np.array([[1.0, 1.0]]))
    assert np.allclose(grad, [[0.01, 1.0]])


def test_sigmoid_matches_expit_and_saturates_quietly():
    from scipy.special import expit

    x = np.linspace(-40.0, 40.0, 8001)
    assert np.max(np.abs(Sigmoid().forward(x[None])[0] - expit(x))) <= 3e-16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Sigmoid().forward(np.array([[-1e3, 1e3]]))
    assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))


def test_shape_mismatch_reports_both_shapes():
    dense = Dense(3, 2, rng_for())
    with pytest.raises(ValueError, match="3"):
        dense.forward(np.zeros((1, 4)))
    conv = Conv2d(2, 1, 3, rng=rng_for())
    with pytest.raises(ValueError, match=r"\(N, 2, H, W\)"):
        conv.forward(np.zeros((1, 1, 5, 5)))


def test_backward_before_forward_is_an_error():
    released = Sigmoid()
    released.forward(np.zeros((1, 2)))
    released.release()
    for layer in (Sigmoid(), QuantumLatent(family_template("c", 2, 1)), released):
        with pytest.raises(ValueError, match="before forward"):
            layer.backward(np.zeros((1, 2)))


def test_non_finite_input_rejected():
    dense = Dense(2, 2, rng_for())
    with pytest.raises(ValueError, match="non-finite"):
        dense.forward(np.array([[np.nan, 1.0]]))


# ----------------------------------------------- forward against loop oracles

@pytest.mark.parametrize("in_c, out_c, k, stride, padding, shape", [
    (3, 2, 3, 1, 0, (2, 3, 6, 6)),
    (2, 3, 3, 2, 1, (2, 2, 7, 7)),
    (2, 2, 3, 2, 1, (1, 2, 5, 8)),
    (1, 4, 3, 2, 1, (2, 1, 28, 28)),
    (4, 3, 7, 1, 0, (2, 4, 7, 7)),
])
def test_conv_forward_matches_loop_oracle(in_c, out_c, k, stride, padding, shape):
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding, rng=rng_for(60))
    x = rng_for(61).normal(size=shape)
    expected = conv2d_direct(x, conv.weight, conv.bias, stride, padding)
    np.testing.assert_allclose(conv.forward(x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("in_c, out_c, k, stride, padding, output_padding, shape", [
    (2, 3, 3, 1, 0, 0, (2, 2, 4, 4)),
    (3, 2, 3, 2, 1, 1, (2, 3, 4, 4)),
    (2, 2, 3, 2, 1, 1, (1, 2, 3, 5)),
    (2, 3, 2, 2, 0, 0, (2, 2, 3, 3)),
    (4, 3, 7, 1, 0, 0, (2, 4, 1, 1)),
    # more kernel offsets than input positions, with overlapping windows
    (2, 3, 5, 1, 0, 0, (2, 2, 2, 2)),
    (2, 2, 5, 2, 1, 1, (1, 2, 2, 3)),
])
def test_tconv_forward_matches_scatter_oracle(in_c, out_c, k, stride, padding,
                                              output_padding, shape):
    tconv = ConvTranspose2d(in_c, out_c, k, stride=stride, padding=padding,
                            output_padding=output_padding, rng=rng_for(62))
    x = rng_for(63).normal(size=shape)
    expected = tconv2d_direct(x, tconv.weight, tconv.bias, stride, padding, output_padding)
    np.testing.assert_allclose(tconv.forward(x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("in_c, out_c, k, stride, padding, shape", [
    (2, 3, 3, 2, 1, (2, 2, 7, 7)),
    (4, 3, 7, 1, 0, (2, 4, 7, 7)),
    # more kernel offsets than output positions, with overlapping windows
    (2, 3, 5, 1, 0, (2, 2, 6, 6)),
    (2, 2, 5, 2, 2, (1, 2, 6, 6)),
])
def test_conv_input_gradient_matches_scatter_oracle(in_c, out_c, k, stride, padding, shape):
    # conv's input gradient is the tconv of its upstream gradient, same weight;
    # square inputs, so one output_padding fits both axes
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding, rng=rng_for(64))
    x = rng_for(65).normal(size=shape)
    upstream = rng_for(66).normal(size=conv.forward(x).shape)
    output_padding = shape[2] - tconv_out_size(upstream.shape[2], k, stride, padding, 0)
    expected = tconv2d_direct(upstream, conv.weight, np.zeros(in_c), stride, padding,
                              output_padding)
    np.testing.assert_allclose(conv.backward(upstream), expected, rtol=0, atol=1e-12)


@st.composite
def conv_geometry(draw):
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, k - 1))
    size = draw(st.integers(max(1, k - 2 * padding), 9))
    channels = draw(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)))
    return k, stride, padding, size, channels, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(conv_geometry())
def test_tconv_is_the_adjoint_of_conv(case):
    # <conv x, y> == <x, tconv y> with one shared weight array and zero bias
    k, stride, padding, size, (n, in_c, out_c), seed = case
    rng = rng_for(seed)
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding, rng=rng)
    out = conv_out_size(size, k, stride, padding)
    output_padding = size - tconv_out_size(out, k, stride, padding, 0)
    tconv = ConvTranspose2d(out_c, in_c, k, stride=stride, padding=padding,
                            output_padding=output_padding, rng=rng)
    tconv.weight = conv.weight
    conv.bias[...] = 0.0
    tconv.bias[...] = 0.0
    x = rng.normal(size=(n, in_c, size, size))
    y = rng.normal(size=(n, out_c, out, out))
    conv_x, tconv_y = conv.forward(x), tconv.forward(y)
    lhs, rhs = np.sum(conv_x * y), np.sum(x * tconv_y)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(conv_x * y))


@st.composite
def layer_cases(draw):
    """A conv or tconv geometry with random batch, channels, non-square maps,
    kernel, stride, padding and output_padding, drawn in C order or batch
    innermost; one case in four is the one-window geometry (a k x k input
    with no padding for conv, a 1x1 input for tconv)."""
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    one_window = draw(st.integers(0, 3)) == 0
    pad = 0 if one_window else draw(st.sampled_from(range(k)))
    if one_window:
        height = width = k
    else:
        height, width = (draw(st.integers(max(1, k - 2 * pad), 8)) for _ in range(2))
    return (draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3)), k, stride,
            pad, height, width, draw(st.integers(0, stride - 1)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


def in_memory_order(a, batch_inner):
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2) if batch_inner else a


@settings(max_examples=150, deadline=None)
@given(layer_cases())
def test_conv_and_tconv_match_the_loop_oracles_forward_and_backward(case):
    n, in_c, out_c, k, stride, pad, height, width, output_padding, batch_inner, seed = case
    rng = rng_for(seed)
    conv = Conv2d(in_c, out_c, k, stride, pad, rng=rng)
    x = rng.normal(size=(n, in_c, height, width))
    h_out, w_out = conv_out_size(height, k, stride, pad), conv_out_size(width, k, stride, pad)
    upstream = rng.normal(size=(n, out_c, h_out, w_out))
    np.testing.assert_allclose(conv.forward(in_memory_order(x, batch_inner)),
                               conv2d_direct(x, conv.weight, conv.bias, stride, pad),
                               rtol=0, atol=1e-12)
    d_x = conv.backward(in_memory_order(upstream, batch_inner))
    # conv's input gradient is tconv of the upstream with the same weight,
    # cropped to the input: rows past the last window get no gradient
    extra = max(height - tconv_out_size(h_out, k, stride, pad, 0),
                width - tconv_out_size(w_out, k, stride, pad, 0))
    expected = tconv2d_direct(upstream, conv.weight, np.zeros(in_c), stride, pad, extra)
    np.testing.assert_allclose(d_x, expected[:, :, :height, :width], rtol=0, atol=1e-12)
    probe = rng.normal(size=conv.weight.shape)
    assert np.isclose(np.sum(conv.grad_weight * probe),
                      np.sum(upstream * conv2d_direct(x, probe, np.zeros(out_c), stride, pad)),
                      rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.grad_bias, upstream.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)

    # tconv maps an h x w map up; one window's input is a 1x1 map
    tconv = ConvTranspose2d(in_c, out_c, k, stride, pad, output_padding, rng=rng)
    h, w = (1, 1) if (height, width) == (k, k) and pad == 0 else (h_out, w_out)
    t_out = (tconv_out_size(h, k, stride, pad, output_padding),
             tconv_out_size(w, k, stride, pad, output_padding))
    if min(t_out) < 1:
        return
    x = rng.normal(size=(n, in_c, h, w))
    upstream = rng.normal(size=(n, out_c) + t_out)
    np.testing.assert_allclose(
        tconv.forward(in_memory_order(x, batch_inner)),
        tconv2d_direct(x, tconv.weight, tconv.bias, stride, pad, output_padding),
        rtol=0, atol=1e-12)
    np.testing.assert_allclose(tconv.backward(in_memory_order(upstream, batch_inner)),
                               conv2d_direct(upstream, tconv.weight, np.zeros(in_c), stride, pad),
                               rtol=0, atol=1e-12)
    probe = rng.normal(size=tconv.weight.shape)
    assert np.isclose(
        np.sum(tconv.grad_weight * probe),
        np.sum(upstream * tconv2d_direct(x, probe, np.zeros(out_c), stride, pad, output_padding)),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tconv.grad_bias, upstream.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)


def test_a_second_forward_of_the_same_shape_builds_no_new_plan():
    conv = Conv2d(2, 3, 3, 2, 1, rng=rng_for(80))
    tconv = ConvTranspose2d(3, 2, 3, 2, 1, 1, rng=rng_for(81))

    def step(n):
        y = conv.forward(rng_for(n).normal(size=(n, 2, 9, 9)))
        conv.backward(np.ones_like(y))
        out = tconv.forward(y)
        tconv.backward(np.ones_like(out))

    step(4)
    before = qcae.nn._patch_plan.cache_info()
    step(4)
    step(7)  # the plans do not depend on the batch size
    after = qcae.nn._patch_plan.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def with_signed_zeros(a, rng):
    """a with about a quarter of its entries set to -0.0 and a tenth to +0.0."""
    a = a.copy()
    draw = rng.random(a.shape)
    a[draw < 0.25] = -0.0
    a[draw > 0.9] = 0.0
    return a


@settings(max_examples=150, deadline=None)
@given(layer_cases())
def test_patch_gather_and_scatter_match_the_padded_and_zero_filled_forms_bit_for_bit(case):
    n, c, _, k, stride, pad, height, width, _, batch_inner, seed = case
    rng = rng_for(seed)
    x = in_memory_order(with_signed_zeros(rng.normal(size=(n, c, height, width)), rng),
                        batch_inner)
    cols, out_hw = qcae.nn._im2col(x, k, stride, pad)
    want, want_hw = im2col_padded(x, k, stride, pad)
    assert out_hw == want_hw
    np.testing.assert_array_equal(cols, want)
    np.testing.assert_array_equal(np.signbit(cols), np.signbit(want))  # padding is +0.0
    d_cols = with_signed_zeros(rng.normal(size=cols.shape), rng)
    np.testing.assert_array_equal(qcae.nn._col2im(d_cols, x.shape, k, stride, pad, out_hw),
                                  col2im_zero_filled(d_cols, x.shape, k, stride, pad, out_hw))


def activation_inputs():
    """A (4, 16) array and a batch-innermost (3, 2, 4, 5) map, both holding
    +-0.0 and +-5e-324 among normal draws."""
    tiny = np.nextafter(0.0, 1.0)
    edge = [0.0, -0.0, tiny, -tiny]
    flat = np.concatenate([edge, rng_for(90).normal(scale=3.0, size=60)]).reshape(4, 16)
    image = np.concatenate([edge, rng_for(91).normal(scale=3.0, size=116)]).reshape(3, 2, 4, 5)
    return [flat, in_memory_order(image, True)]


@pytest.mark.parametrize("x", activation_inputs())
def test_activations_match_their_expression_forms_bit_for_bit(x):
    relu = LeakyReLU()
    out, want = relu.forward(x), np.maximum(x, LEAKY_SLOPE * x)
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(want))
    # a unit upstream reads the cached mask back: 1 where x > 0, the slope elsewhere
    np.testing.assert_array_equal(relu.backward(np.ones(x.shape)),
                                  np.where(x > 0, 1.0, LEAKY_SLOPE))
    sigmoid = Sigmoid()
    out = sigmoid.forward(x)
    np.testing.assert_array_equal(out, 0.5 + 0.5 * np.tanh(0.5 * x))
    upstream = rng_for(92).normal(size=x.shape)
    np.testing.assert_array_equal(sigmoid.backward(upstream), upstream * out * (1.0 - out))


@pytest.mark.parametrize("layer", [LeakyReLU, Sigmoid])
@pytest.mark.parametrize("shape", [(1, 3), (4, 1), (3,)])
def test_activation_backward_refuses_an_upstream_it_would_broadcast(layer, shape):
    act = layer()
    act.forward(np.ones((4, 3)))
    with pytest.raises(ValueError, match=re.escape(
            f"upstream shape {shape} != forward output shape (4, 3)")):
        act.backward(np.ones(shape))


def test_reshape_backward_refuses_an_upstream_of_the_right_size_and_wrong_shape():
    # a (6, 4) upstream has the 24 entries of (4, 6) and would scramble the batch axis
    flatten = Reshape((6,))
    flatten.forward(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match=r"\(6, 4\) != forward output shape \(4, 6\)"):
        flatten.backward(np.zeros((6, 4)))
    assert flatten.backward(np.zeros((4, 6))).shape == (4, 2, 3)


# ------------------------------------------- allocations, batch 16 (peak_bytes)

def batch_innermost_normal(shape, seed):
    """Normal draws laid out as the layers return them: (N, C, H, W) views of
    (C, H, W, N) memory."""
    return in_memory_order(rng_for(seed).normal(size=shape), True)


@pytest.mark.parametrize("layer, shape, budget", [
    (LeakyReLU, (16, 16, 14, 14), 1.25),  # the output and its 1-byte mask
    (Sigmoid, (16, 1, 28, 28), 1.1),  # the output, which it also keeps
])
def test_activation_forward_allocates_only_its_output_and_cache(layer, shape, budget):
    act, x = layer(), batch_innermost_normal(shape, 93)
    act.forward(x)
    assert peak_bytes(act.forward, x) <= budget * x.nbytes


def test_mse_loss_allocates_only_the_difference_and_its_square():
    prediction = batch_innermost_normal((16, 1, 28, 28), 94)
    target = rng_for(95).random(prediction.shape)
    assert peak_bytes(mse_loss, prediction, target) <= 2.1 * prediction.nbytes


def test_conv_forward_allocates_only_its_patch_matrix_and_output():
    conv = Conv2d(16, 32, 3, 2, 1, rng=rng_for(96))
    x = batch_innermost_normal((16, 16, 14, 14), 97)
    out = conv.forward(x)  # also builds the plan
    cols_bytes = 16 * 9 * 7 * 7 * 16 * 8
    assert peak_bytes(conv.forward, x) <= 1.15 * (cols_bytes + out.nbytes)


def test_tconv_backward_allocates_only_its_patch_matrix_and_input_gradient():
    tconv = ConvTranspose2d(32, 16, 3, 2, 1, 1, rng=rng_for(98))
    x = batch_innermost_normal((16, 32, 7, 7), 99)
    upstream = batch_innermost_normal(tconv.forward(x).shape, 100)
    tconv.backward(upstream)  # also builds the plan
    d_cols_bytes = 16 * 9 * 7 * 7 * 16 * 8
    assert peak_bytes(tconv.backward, upstream) <= 1.1 * (d_cols_bytes + x.nbytes)


# --------------------------------------------------------------- shape algebra

def test_conv_output_size_formula():
    for size, k, s, p in [(28, 3, 2, 1), (14, 3, 2, 1), (7, 7, 1, 0), (8, 2, 1, 0)]:
        conv = Conv2d(1, 1, k, stride=s, padding=p, rng=rng_for())
        out = conv.forward(np.zeros((1, 1, size, size)))
        assert out.shape[-1] == conv_out_size(size, k, s, p) == (size + 2 * p - k) // s + 1


def test_tconv_inverts_conv_spatial_dims():
    for size, k, s, p, op in [(28, 3, 2, 1, 1), (14, 3, 2, 1, 1), (7, 7, 1, 0, 0)]:
        down = conv_out_size(size, k, s, p)
        assert tconv_out_size(down, k, s, p, op) == size
    conv = Conv2d(1, 2, 3, stride=2, padding=1, rng=rng_for(1))
    tconv = ConvTranspose2d(2, 1, 3, stride=2, padding=1, output_padding=1, rng=rng_for(2))
    x = rng_for(3).random((1, 1, 28, 28))
    assert tconv.forward(conv.forward(x)).shape == x.shape


def test_conv_tconv_identity_composition():
    # center-spike kernels with zero bias: conv then tconv reproduces input
    conv = Conv2d(1, 1, 3, stride=1, padding=1, rng=rng_for())
    tconv = ConvTranspose2d(1, 1, 3, stride=1, padding=1, rng=rng_for(1))
    conv.weight[...] = 0.0
    conv.weight[0, 0, 1, 1] = 1.0
    conv.bias[...] = 0.0
    tconv.weight[...] = 0.0
    tconv.weight[0, 0, 1, 1] = 1.0
    tconv.bias[...] = 0.0
    x = rng_for(4).random((2, 1, 6, 6))
    assert np.allclose(tconv.forward(conv.forward(x)), x, atol=1e-12)


def test_tconv_rejects_bad_output_padding():
    with pytest.raises(ValueError):
        ConvTranspose2d(1, 1, 3, stride=2, padding=1, output_padding=2, rng=rng_for())


def test_tconv_refuses_wrong_channels_and_a_collapsing_output():
    tconv = ConvTranspose2d(2, 1, 3, rng=rng_for())
    with pytest.raises(ValueError, match=r"tconv2d expects \(N, 2, H, W\), got \(1, 3, 4, 4\)"):
        tconv.forward(np.zeros((1, 3, 4, 4)))
    # (1 - 1) * 1 - 2 * 1 + 1 = -1 output rows
    tconv = ConvTranspose2d(1, 1, 1, padding=1, rng=rng_for())
    with pytest.raises(ValueError, match=r"output collapses for input shape \(1, 1, 1, 1\)"):
        tconv.forward(np.zeros((1, 1, 1, 1)))


def test_reshape_refuses_a_size_mismatch():
    with pytest.raises(ValueError, match=r"cannot reshape per-sample \(6,\) into \(2, 2\)"):
        Reshape((2, 2)).forward(np.zeros((3, 6)))


def test_conv_layers_need_an_rng():
    for layer_class in (Conv2d, ConvTranspose2d):
        with pytest.raises(TypeError, match="rng"):
            layer_class(1, 1, 3)


# ------------------------------------------------- upstream shape and memory order

def test_dense_backward_names_both_shapes_of_a_wrong_upstream():
    dense = Dense(3, 2, rng_for())
    dense.forward(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"\(2, 4\).*\(4, 2\)"):
        dense.backward(np.zeros((2, 4)))


def test_conv_backward_names_both_shapes_of_a_wrong_upstream():
    # same size as the (2, 2, 3, 3) output, so a reshape alone would accept it
    conv = Conv2d(1, 2, 3, rng=rng_for())
    conv.forward(np.zeros((2, 1, 5, 5)))
    with pytest.raises(ValueError, match=r"\(3, 2, 2, 3\).*\(2, 2, 3, 3\)"):
        conv.backward(np.zeros((3, 2, 2, 3)))


def test_conv_param_backward_fills_the_gradients_backward_fills():
    conv = Conv2d(1, 4, 3, stride=2, padding=1, rng=rng_for(67))
    upstream = rng_for(68).normal(size=conv.forward(rng_for(69).normal(size=(3, 1, 8, 8))).shape)
    conv.backward(upstream)
    full = conv.grad_weight.copy(), conv.grad_bias.copy()
    conv.grad_weight[...], conv.grad_bias[...] = 0.0, 0.0
    conv.param_backward(upstream)
    np.testing.assert_array_equal(conv.grad_weight, full[0])
    np.testing.assert_array_equal(conv.grad_bias, full[1])
    with pytest.raises(ValueError, match="upstream shape"):
        conv.param_backward(upstream[:2])


def test_tconv_backward_names_both_shapes_of_a_wrong_upstream():
    tconv = ConvTranspose2d(1, 1, 3, stride=2, padding=1, output_padding=1, rng=rng_for())
    tconv.forward(np.zeros((2, 1, 4, 4)))
    with pytest.raises(ValueError, match=r"\(4, 1, 8, 4\).*\(2, 1, 8, 8\)"):
        tconv.backward(np.zeros((4, 1, 8, 4)))


def memory_orders(a):
    """The same (N, C, H, W) values C-ordered, Fortran-ordered and batch-innermost."""
    return [np.ascontiguousarray(a), np.asfortranarray(a),
            np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)]


def run_in_every_memory_order(layer, x, upstream):
    """(output, grad_weight, grad_bias, input gradient) for each memory order,
    after checking that all three are bit-identical."""
    runs = []
    for x_view, up_view in zip(memory_orders(x), memory_orders(upstream)):
        out = layer.forward(x_view).copy()
        d_x = layer.backward(up_view).copy()
        runs.append((out, layer.grad_weight.copy(), layer.grad_bias.copy(), d_x))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            np.testing.assert_array_equal(got, want)
    return runs[0]


@pytest.mark.parametrize("in_c, out_c, k, stride, padding, shape", [
    (2, 3, 3, 2, 1, (2, 2, 7, 7)),
    (1, 4, 3, 2, 1, (3, 1, 8, 8)),
    (4, 3, 7, 1, 0, (2, 4, 7, 7)),
    (2, 3, 5, 1, 0, (2, 2, 6, 6)),
    (3, 2, 1, 1, 0, (2, 3, 4, 5)),
    (3, 5, 1, 1, 0, (4, 3, 1, 1)),
])
def test_conv_results_do_not_depend_on_memory_order(in_c, out_c, k, stride, padding, shape):
    conv = Conv2d(in_c, out_c, k, stride=stride, padding=padding, rng=rng_for(70))
    x = rng_for(71).normal(size=shape)
    out_shape = (shape[0], out_c, conv_out_size(shape[2], k, stride, padding),
                 conv_out_size(shape[3], k, stride, padding))
    upstream = rng_for(72).normal(size=out_shape)
    out, grad_weight, grad_bias, d_x = run_in_every_memory_order(conv, x, upstream)
    np.testing.assert_allclose(out, conv2d_direct(x, conv.weight, conv.bias, stride, padding),
                               rtol=0, atol=1e-12)
    # the loss <upstream, conv(x; W)> is linear in W, so <grad_weight, probe>
    # is the same loss with W replaced by any probe
    probe = rng_for(73).normal(size=conv.weight.shape)
    assert np.isclose(np.sum(grad_weight * probe),
                      np.sum(upstream * conv2d_direct(x, probe, np.zeros(out_c), stride, padding)),
                      rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_bias, upstream.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)
    # one output_padding fits both axes of every case above
    output_padding = shape[2] - tconv_out_size(out_shape[2], k, stride, padding, 0)
    np.testing.assert_allclose(
        d_x, tconv2d_direct(upstream, conv.weight, np.zeros(in_c), stride, padding,
                            output_padding), rtol=0, atol=1e-12)


@pytest.mark.parametrize("in_c, out_c, k, stride, padding, output_padding, shape", [
    (3, 2, 3, 2, 1, 1, (2, 3, 4, 4)),
    (4, 3, 7, 1, 0, 0, (2, 4, 1, 1)),
    (2, 1, 3, 2, 1, 1, (3, 2, 7, 7)),
    (2, 2, 5, 2, 1, 1, (1, 2, 2, 3)),
    (2, 3, 1, 1, 0, 0, (2, 2, 3, 4)),
    (3, 5, 1, 1, 0, 0, (4, 3, 1, 1)),
])
def test_tconv_results_do_not_depend_on_memory_order(in_c, out_c, k, stride, padding,
                                                      output_padding, shape):
    tconv = ConvTranspose2d(in_c, out_c, k, stride=stride, padding=padding,
                            output_padding=output_padding, rng=rng_for(74))
    x = rng_for(75).normal(size=shape)
    out_shape = (shape[0], out_c,
                 tconv_out_size(shape[2], k, stride, padding, output_padding),
                 tconv_out_size(shape[3], k, stride, padding, output_padding))
    upstream = rng_for(76).normal(size=out_shape)
    out, grad_weight, grad_bias, d_x = run_in_every_memory_order(tconv, x, upstream)
    np.testing.assert_allclose(
        out, tconv2d_direct(x, tconv.weight, tconv.bias, stride, padding, output_padding),
        rtol=0, atol=1e-12)
    probe = rng_for(77).normal(size=tconv.weight.shape)
    assert np.isclose(
        np.sum(grad_weight * probe),
        np.sum(upstream * tconv2d_direct(x, probe, np.zeros(out_c), stride, padding,
                                         output_padding)),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_bias, upstream.sum(axis=(0, 2, 3)), rtol=0, atol=1e-12)
    # tconv's input gradient is the conv of its upstream with the same weight
    np.testing.assert_allclose(
        d_x, conv2d_direct(upstream, tconv.weight, np.zeros(in_c), stride, padding),
        rtol=0, atol=1e-12)


# ------------------------------------------------------- gradient correctness

def _layer_loss(layer, x, target_shaper=None):
    """Scalar probe: forward then weighted sum with fixed coefficients."""
    out = layer.forward(x)
    coeffs = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
    return float(np.sum(out * coeffs)), coeffs


def _check_input_gradient(layer, x, tol=4e-6):
    _, coeffs = _layer_loss(layer, x)
    analytic = layer.backward(coeffs)

    def scalar(flat):
        value, _ = _layer_loss(layer, flat.reshape(x.shape))
        return value

    numeric = fd_gradient(scalar, x.ravel()).reshape(x.shape)
    scale = max(1.0, np.max(np.abs(numeric)))
    assert np.max(np.abs(analytic - numeric)) / scale < tol


def param_grad_pairs(layer):
    """(tensor, copy of its gradient) for each of weight and bias the layer has."""
    return [(getattr(layer, name), getattr(layer, "grad_" + name).copy())
            for name in ("weight", "bias") if hasattr(layer, name)]


def _check_param_gradients(layer, x, tol=4e-6):
    _, coeffs = _layer_loss(layer, x)
    layer.backward(coeffs)
    for param, grad in param_grad_pairs(layer):
        def scalar(flat, param=param):
            saved = param.copy()
            param[...] = flat.reshape(param.shape)
            value, _ = _layer_loss(layer, x)
            param[...] = saved
            return value

        numeric = fd_gradient(scalar, param.ravel()).reshape(param.shape)
        scale = max(1.0, np.max(np.abs(numeric)))
        assert np.max(np.abs(grad - numeric)) / scale < tol


def test_dense_gradients_match_finite_differences():
    layer = Dense(3, 4, rng_for(10))
    x = rng_for(11).normal(size=(4, 3))
    _check_input_gradient(layer, x)
    _check_param_gradients(layer, x)


def test_conv_gradients_match_finite_differences():
    layer = Conv2d(1, 2, 2, stride=1, padding=0, rng=rng_for(12))
    x = rng_for(13).normal(size=(1, 1, 4, 4))
    _check_input_gradient(layer, x)
    _check_param_gradients(layer, x)


def test_strided_padded_conv_gradients():
    layer = Conv2d(2, 3, 3, stride=2, padding=1, rng=rng_for(14))
    x = rng_for(15).normal(size=(2, 2, 7, 7))
    _check_input_gradient(layer, x)
    _check_param_gradients(layer, x)


def test_tconv_gradients_match_finite_differences():
    layer = ConvTranspose2d(2, 1, 3, stride=2, padding=1, output_padding=1, rng=rng_for(16))
    x = rng_for(17).normal(size=(2, 2, 4, 4))
    _check_input_gradient(layer, x)
    _check_param_gradients(layer, x)


def test_tconv_unit_stride_gradients():
    layer = ConvTranspose2d(3, 2, 7, rng=rng_for(18))
    x = rng_for(19).normal(size=(1, 3, 1, 1))
    _check_input_gradient(layer, x)
    _check_param_gradients(layer, x)


def test_activation_and_reshape_gradients():
    rng = rng_for(20)
    for layer, shape in [
        (LeakyReLU(), (3, 5)),
        (Sigmoid(), (2, 4)),
        (Reshape((12,)), (2, 3, 2, 2)),
        (Reshape((4, 1, 1)), (2, 4)),
    ]:
        x = rng.normal(size=shape) + 0.05  # keep clear of the ReLU kink
        _check_input_gradient(layer, x)


def test_randomized_layer_sweep():
    rng = rng_for(30)
    for draw in range(20):
        kind = draw % 4
        if kind == 0:
            layer = Dense(int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng)
            x = rng.normal(size=(int(rng.integers(1, 4)), layer.weight.shape[1]))
        elif kind == 1:
            c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            layer = Conv2d(c_in, c_out, 3, stride=int(rng.integers(1, 3)), padding=1, rng=rng)
            x = rng.normal(size=(1, c_in, 6, 6))
        elif kind == 2:
            c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            stride = int(rng.integers(1, 3))
            layer = ConvTranspose2d(c_in, c_out, 3, stride=stride, padding=1,
                                    output_padding=stride - 1, rng=rng)
            x = rng.normal(size=(1, c_in, 4, 4))
        else:
            layer = LeakyReLU()
            x = rng.normal(size=(2, 8)) + 0.05
        _check_input_gradient(layer, x)
        _check_param_gradients(layer, x)


# ----------------------------------------------------------------- mse loss

def test_mse_zero_when_equal():
    x = rng_for(40).random((2, 3))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.allclose(grad, 0.0)


def test_mse_hand_case():
    loss, grad = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert np.isclose(loss, 0.5)
    assert np.allclose(grad, [1.0, 0.0])


def test_mse_gradient_matches_finite_differences():
    rng = rng_for(41)
    pred, target = rng.random(12), rng.random(12)
    _, grad = mse_loss(pred, target)
    numeric = fd_gradient(lambda v: mse_loss(v, target)[0], pred, h=1e-6)
    assert np.max(np.abs(grad - numeric)) < 1e-8


@pytest.mark.parametrize("batch_inner", [False, True])
def test_mse_gradient_matches_its_expression_form_bit_for_bit(batch_inner):
    prediction = in_memory_order(rng_for(43).random((5, 2, 3, 4)), batch_inner)
    target = rng_for(44).random(prediction.shape)
    diff = prediction - target
    np.testing.assert_array_equal(mse_loss(prediction, target)[1], 2.0 * diff / diff.size)


def test_mse_nonnegative_and_shape_checked():
    rng = rng_for(42)
    assert mse_loss(rng.random(5), rng.random(5))[0] >= 0.0
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4))


# --------------------------------------------------------------------- Adam

def test_adam_zero_gradient_keeps_parameters():
    param = np.array([1.0, -2.0])
    opt = Adam(param, learning_rate=0.1)
    opt.step(np.zeros(2))
    assert np.allclose(param, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_first_step_is_learning_rate_sized():
    param = np.array([0.0])
    opt = Adam(param, learning_rate=0.1)
    opt.step(np.array([1.0]))
    # bias-corrected m_hat / sqrt(v_hat) is exactly 1 at t=1
    assert np.isclose(param[0], -0.1, atol=1e-8)


def test_adam_runs_identically_for_identical_inputs():
    def run():
        rng = rng_for(50)
        param = rng.normal(size=4)
        opt = Adam(param, learning_rate=0.01)
        for _ in range(25):
            opt.step(rng.normal(size=4))
        return param

    assert np.array_equal(run(), run())


def test_adam_in_place_moments_match_the_textbook_update_bit_for_bit():
    rng = rng_for(51)
    # 2300 entries are enough that a reassociated product, e.g. (1 - b2) * (g * g),
    # changes some last bit; the second buffer spans two full update blocks and a short one
    for shapes in (((40, 50), (300,)), ((2 * ADAM_BLOCK,), (123,))):
        params = np.concatenate([rng.normal(size=shape).ravel() for shape in shapes])
        expected = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        lr, b1, b2, eps = 0.01, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        opt = Adam(params, learning_rate=lr)
        for t in range(1, 9):
            g = rng.normal(size=params.shape)
            opt.step(g)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params, expected)


def test_adam_validation():
    with pytest.raises(ValueError, match="contiguous"):
        Adam(np.zeros((4, 4))[:, 1])
    opt = Adam(np.zeros(2))
    with pytest.raises(ValueError):
        opt.step(np.zeros(3))


def test_parameter_free_layers_pack_into_an_empty_buffer_adam_can_step():
    tensors, params, grads = pack_parameters([Reshape((1,))])
    assert tensors == [] and params.shape == grads.shape == (0,)
    Adam(params).step(grads)


# ------------------------------------------------------------------ weights

def test_weight_round_trip(tmp_path):
    rng = rng_for(60)
    tensors = [rng.normal(size=(3, 4)), rng.normal(size=5), rng.normal(size=(2, 1, 3, 3))]
    path = tmp_path / "weights.bin"
    save_weights(path, tensors)
    loaded = load_weights(path)
    assert len(loaded) == len(tensors)
    for a, b in zip(tensors, loaded):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def test_weight_magic_checked(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"XXXX\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="magic"):
        load_weights(path)


def test_weight_trailing_bytes_refused(tmp_path):
    path = tmp_path / "weights.bin"
    save_weights(path, [np.zeros(3)])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match=r"trailing bytes after tensor data \(offset 40\)"):
        load_weights(path)
