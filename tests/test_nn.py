"""Layer forward semantics, finite-difference gradient checks, Adam, weight I/O."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcae.nn import (
    ADAM_BLOCK,
    Adam,
    Conv2d,
    ConvTranspose2d,
    Dense,
    Flatten,
    LayerSpec,
    LeakyReLU,
    Reshape,
    Sigmoid,
    build_layer,
    conv_out_size,
    load_weights,
    mse_loss,
    save_weights,
    tconv_out_size,
)

from oracles import conv2d_direct, fd_gradient, tconv2d_direct


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
    relu = LeakyReLU(0.01)
    relu.forward(np.array([[-1.0, 2.0]]))
    grad = relu.backward(np.array([[1.0, 1.0]]))
    assert np.allclose(grad, [[0.01, 1.0]])


def test_shape_mismatch_reports_both_shapes():
    dense = Dense(3, 2, rng_for())
    with pytest.raises(ValueError, match="3"):
        dense.forward(np.zeros((1, 4)))
    conv = Conv2d(2, 1, 3, rng=rng_for())
    with pytest.raises(ValueError, match=r"\(N, 2, H, W\)"):
        conv.forward(np.zeros((1, 1, 5, 5)))


def test_backward_before_forward_is_an_error():
    with pytest.raises(ValueError, match="before forward"):
        Sigmoid().backward(np.zeros((1, 2)))


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
])
def test_tconv_forward_matches_scatter_oracle(in_c, out_c, k, stride, padding,
                                              output_padding, shape):
    tconv = ConvTranspose2d(in_c, out_c, k, stride=stride, padding=padding,
                            output_padding=output_padding, rng=rng_for(62))
    x = rng_for(63).normal(size=shape)
    expected = tconv2d_direct(x, tconv.weight, tconv.bias, stride, padding, output_padding)
    np.testing.assert_allclose(tconv.forward(x), expected, rtol=0, atol=1e-12)


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
        (LeakyReLU(0.01), (3, 5)),
        (Sigmoid(), (2, 4)),
        (Flatten(), (2, 3, 2, 2)),
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
            layer = LeakyReLU(0.01)
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
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
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
    with pytest.raises(ValueError):
        Adam(np.zeros(2), beta1=1.0)
    with pytest.raises(ValueError, match="contiguous"):
        Adam(np.zeros((4, 4))[:, 1])
    opt = Adam(np.zeros(2))
    with pytest.raises(ValueError):
        opt.step(np.zeros(3))


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


def test_layer_spec_builds_every_kind():
    rng = rng_for(70)
    specs = [
        LayerSpec("conv2d", in_channels=1, out_channels=2, kernel_size=3),
        LayerSpec("tconv2d", in_channels=2, out_channels=1, kernel_size=3),
        LayerSpec("dense", in_features=4, out_features=2),
        LayerSpec("leaky_relu"),
        LayerSpec("sigmoid"),
        LayerSpec("flatten"),
        LayerSpec("reshape", shape=(2, 1, 1)),
    ]
    for spec in specs:
        build_layer(spec, rng)
    with pytest.raises(ValueError):
        LayerSpec("pooling")
    with pytest.raises(ValueError):
        LayerSpec("conv2d", in_channels=1, out_channels=1, kernel_size=0)
