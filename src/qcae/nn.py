"""Small feed-forward toolkit with manual backpropagation.

Arrays are float64 with a leading batch axis: images (N, C, H, W), feature
vectors (N, F). conv2d is cross-correlation with zero padding; tconv2d is
its exact adjoint (with an output_padding knob so stride-2 stacks invert
cleanly). Each layer caches what its backward pass needs, so an instance
handles one forward/backward pair at a time; backward writes grad_weight and
grad_bias in place. Weight init is uniform in +-sqrt(1/fan_in) from an
explicit numpy Generator. pack_parameters makes a layer list's weights and
biases views of one flat buffer, and their gradients views of a second.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

LAYER_KINDS = ("conv2d", "tconv2d", "dense", "leaky_relu", "sigmoid", "flatten", "reshape")

WEIGHTS_MAGIC = b"NNW1"
ADAM_BLOCK = 16384  # entries per block of Adam's update pass


class NonFiniteTensor(ValueError):
    """A NaN/Inf crossed a layer boundary."""


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description used to build and persist architectures."""

    kind: str
    in_channels: int | None = None
    out_channels: int | None = None
    kernel_size: int | None = None
    stride: int = 1
    padding: int = 0
    output_padding: int = 0
    in_features: int | None = None
    out_features: int | None = None
    negative_slope: float = 0.01
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv2d", "tconv2d"):
            if self.kernel_size is None or self.kernel_size < 1:
                raise ValueError(f"{self.kind} needs kernel_size >= 1")
            if self.stride < 1:
                raise ValueError(f"{self.kind} needs stride >= 1")


def build_layer(spec: LayerSpec, rng: np.random.Generator):
    if spec.kind == "conv2d":
        return Conv2d(spec.in_channels, spec.out_channels, spec.kernel_size,
                      spec.stride, spec.padding, rng)
    if spec.kind == "tconv2d":
        return ConvTranspose2d(spec.in_channels, spec.out_channels, spec.kernel_size,
                               spec.stride, spec.padding, spec.output_padding, rng)
    if spec.kind == "dense":
        return Dense(spec.in_features, spec.out_features, rng)
    if spec.kind == "leaky_relu":
        return LeakyReLU(spec.negative_slope)
    if spec.kind == "sigmoid":
        return Sigmoid()
    if spec.kind == "flatten":
        return Flatten()
    if spec.kind == "reshape":
        return Reshape(spec.shape)
    raise ValueError(f"unknown layer kind {spec.kind!r}")


def _check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteTensor(f"{name}: non-finite values in tensor of shape {x.shape}")
    return x


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def tconv_out_size(size: int, kernel: int, stride: int, padding: int,
                   output_padding: int) -> int:
    return (size - 1) * stride - 2 * padding + kernel + output_padding


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(N, C, H, W) -> (N, C*k*k, P) patch matrix plus output dims."""
    n, c, height, width = x.shape
    h_out = conv_out_size(height, k, stride, pad)
    w_out = conv_out_size(width, k, stride, pad)
    if h_out < 1 or w_out < 1:
        raise ValueError(
            f"kernel {k} with stride {stride}, padding {pad} does not fit "
            f"input of shape {x.shape}"
        )
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :h_out, :w_out]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, h_out * w_out)
    return np.ascontiguousarray(cols), (h_out, w_out)


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int, out_hw) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patches back into (N, C, H, W)."""
    n, c, height, width = x_shape
    h_out, w_out = out_hw
    xp = np.zeros((n, c, height + 2 * pad, width + 2 * pad))
    c6 = cols.reshape(n, c, k, k, h_out, w_out)
    for u in range(k):
        for v in range(k):
            xp[:, :, u:u + stride * h_out:stride, v:v + stride * w_out:stride] += c6[:, :, u, v]
    return xp[:, :, pad:pad + height, pad:pad + width]


class Layer:
    """Base: parameter-free, shape-preserving by default."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self, name: str):
        cache = getattr(self, name, None)
        if cache is None:
            raise ValueError(f"{type(self).__name__}.backward called before forward")
        return cache


class _Weighted(Layer):
    """A layer with a weight and a bias, drawn in that order, and their gradients."""

    def __init__(self, rng: np.random.Generator, fan_in: int, weight_shape, n_bias: int):
        bound = np.sqrt(1.0 / fan_in)
        self.weight = rng.uniform(-bound, bound, weight_shape)
        self.bias = rng.uniform(-bound, bound, n_bias)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)


class Dense(_Weighted):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__(rng, in_features, (out_features, in_features), out_features)
        self._x = None

    def forward(self, x):
        _check_finite("dense input", x)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"dense expects (N, {self.weight.shape[1]}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, upstream):
        x = self._take_cache("_x")
        self.grad_weight[...] = upstream.T @ x
        self.grad_bias[...] = upstream.sum(axis=0)
        return upstream @ self.weight


class Conv2d(_Weighted):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 rng: np.random.Generator | None = None):
        k = kernel_size
        super().__init__(rng, in_channels * k * k, (out_channels, in_channels, k, k), out_channels)
        self.stride, self.padding = stride, padding
        self._cache = None

    def forward(self, x):
        _check_finite("conv2d input", x)
        out_c, in_c, k, _ = self.weight.shape
        if x.ndim != 4 or x.shape[1] != in_c:
            raise ValueError(f"conv2d expects (N, {in_c}, H, W), got {x.shape}")
        cols, out_hw = _im2col(x, k, self.stride, self.padding)
        w2 = self.weight.reshape(out_c, -1)
        y = w2 @ cols + self.bias[None, :, None]
        self._cache = (x.shape, cols, out_hw)
        return y.reshape(x.shape[0], out_c, *out_hw)

    def backward(self, upstream):
        x_shape, cols, out_hw = self._take_cache("_cache")
        out_c, _, k, _ = self.weight.shape
        d_y = upstream.reshape(upstream.shape[0], out_c, -1)
        self.grad_weight[...] = np.tensordot(d_y, cols, axes=([0, 2], [0, 2])).reshape(self.weight.shape)
        self.grad_bias[...] = d_y.sum(axis=(0, 2))
        d_cols = self.weight.reshape(out_c, -1).T @ d_y
        return _col2im(d_cols, x_shape, k, self.stride, self.padding, out_hw)


class ConvTranspose2d(_Weighted):
    """Adjoint of Conv2d; weight layout (in_channels, out_channels, k, k)."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 output_padding=0, rng: np.random.Generator | None = None):
        k = kernel_size
        if not 0 <= output_padding < stride:
            raise ValueError(f"output_padding must be in [0, stride), got {output_padding}")
        super().__init__(rng, in_channels * k * k, (in_channels, out_channels, k, k), out_channels)
        self.stride, self.padding, self.output_padding = stride, padding, output_padding
        self._cache = None

    def forward(self, x):
        _check_finite("tconv2d input", x)
        in_c, out_c, k, _ = self.weight.shape
        if x.ndim != 4 or x.shape[1] != in_c:
            raise ValueError(f"tconv2d expects (N, {in_c}, H, W), got {x.shape}")
        n, _, height, width = x.shape
        s, p = self.stride, self.padding
        h_out = tconv_out_size(height, k, s, p, self.output_padding)
        w_out = tconv_out_size(width, k, s, p, self.output_padding)
        if h_out < 1 or w_out < 1:
            raise ValueError(f"tconv2d output collapses for input shape {x.shape}")
        x2 = x.reshape(n, in_c, height * width)
        cols = self.weight.reshape(in_c, -1).T @ x2
        y = _col2im(cols, (n, out_c, h_out, w_out), k, s, p, (height, width))
        self._cache = (x2, x.shape)
        return y + self.bias[None, :, None, None]

    def backward(self, upstream):
        x2, x_shape = self._take_cache("_cache")
        in_c = self.weight.shape[0]
        d_cols, _ = _im2col(upstream, self.weight.shape[2], self.stride, self.padding)
        self.grad_weight[...] = np.tensordot(x2, d_cols, axes=([0, 2], [0, 2])).reshape(self.weight.shape)
        self.grad_bias[...] = upstream.sum(axis=(0, 2, 3))
        d_x = self.weight.reshape(in_c, -1) @ d_cols
        return d_x.reshape(x_shape)


class LeakyReLU(Layer):
    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = negative_slope
        self._mask = None

    def forward(self, x):
        _check_finite("leaky_relu input", x)
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, upstream):
        mask = self._take_cache("_mask")
        return np.where(mask, upstream, self.negative_slope * upstream)


class Sigmoid(Layer):
    def __init__(self):
        self._out = None

    def forward(self, x):
        _check_finite("sigmoid input", x)
        self._out = expit(x)
        return self._out

    def backward(self, upstream):
        out = self._take_cache("_out")
        return upstream * out * (1.0 - out)


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, upstream):
        return upstream.reshape(self._take_cache("_shape"))


class Reshape(Layer):
    """Per-sample reshape; the batch axis stays in front."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self._in_shape = None

    def forward(self, x):
        want = int(np.prod(self.shape))
        have = int(np.prod(x.shape[1:]))
        if want != have:
            raise ValueError(f"cannot reshape per-sample {x.shape[1:]} into {self.shape}")
        self._in_shape = x.shape
        return x.reshape(x.shape[0], *self.shape)

    def backward(self, upstream):
        return upstream.reshape(self._take_cache("_in_shape"))


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient 2*(p - t)/N."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape} vs target {target.shape}")
    diff = prediction - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


class Adam:
    """Adam with bias correction, updating one C-contiguous parameter array in
    place. step makes one elementwise pass in textbook operation order, in
    blocks of ADAM_BLOCK entries that keep its two temporaries in cache."""

    def __init__(self, params: np.ndarray, learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("betas must lie in (0, 1)")
        if not params.flags.c_contiguous:
            raise ValueError("Adam updates one C-contiguous parameter array")
        self.params = params
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, epsilon
        self.step_count = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self._num, self._den = np.empty((2, min(params.size, ADAM_BLOCK)))

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {self.params.shape}")
        self.step_count += 1
        b1, b2, t = self.beta1, self.beta2, self.step_count
        flat = [a.reshape(-1) for a in (self.params, grad, self.m, self.v)]
        for lo in range(0, grad.size, ADAM_BLOCK):
            p, g, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
            num, den = self._num[:g.size], self._den[:g.size]
            # m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
            m *= b1
            m += np.multiply(1 - b1, g, out=num)
            v *= b2
            np.multiply(1 - b2, g, out=num)
            v += np.multiply(num, g, out=num)
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(m, 1 - b1**t, out=num)
            num *= self.lr
            np.divide(v, 1 - b2**t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            p -= np.divide(num, den, out=num)


def pack_parameters(layers) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Move the weight and bias of every weighted layer, in order, into one
    flat buffer and their gradients into a second, rebinding all of them as
    views. Returns the weight and bias views and the two buffers."""
    owners = [(layer, name) for layer in layers if isinstance(layer, _Weighted)
              for name in ("weight", "bias")]
    params = np.empty(sum(getattr(layer, name).size for layer, name in owners))
    grads = np.zeros_like(params)
    offset = 0
    for layer, name in owners:
        tensor = getattr(layer, name)
        end = offset + tensor.size
        params[offset:end] = tensor.ravel()
        setattr(layer, name, params[offset:end].reshape(tensor.shape))
        setattr(layer, "grad_" + name, grads[offset:end].reshape(tensor.shape))
        offset = end
    return [getattr(layer, name) for layer, name in owners], params, grads


def save_weights(path, tensors: list[np.ndarray]) -> None:
    """Flat binary dump: magic 'NNW1', u32 tensor count, then per tensor a
    u32 ndim and u32 dims, followed by all data as little-endian float64."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", len(tensors)))
        for t in tensors:
            f.write(struct.pack("<I", t.ndim))
            f.write(struct.pack(f"<{t.ndim}I", *t.shape))
        for t in tensors:
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_weights(path) -> list[np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != WEIGHTS_MAGIC:
        raise ValueError(f"{path}: bad weights magic {data[:4]!r}")
    offset = 4
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    shapes = []
    for _ in range(count):
        (ndim,) = struct.unpack_from("<I", data, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}I", data, offset)
        offset += 4 * ndim
        shapes.append(shape)
    tensors = []
    for shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        t = np.frombuffer(data, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += 8 * size
        tensors.append(t.astype(np.float64))
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes after tensor data (offset {offset})")
    return tensors
