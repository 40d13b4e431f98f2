"""Small feed-forward toolkit with manual backpropagation.

Arrays are float64 with a leading batch axis: images (N, C, H, W), feature
vectors (N, F); Reshape((F,)) flattens one into the other. conv2d is
cross-correlation with zero padding; tconv2d is its exact adjoint (with an
output_padding knob so stride-2 stacks invert cleanly); both contract in one
2-D matmul with the batch axis innermost, and return (N, C, H, W) views of
(C, H, W, N) memory: never assume C-contiguity. The patch matrix comes from
a row-index plan built once per (C, H, W, k, stride, padding) and cached,
whatever the batch size: _im2col is one take of the unpadded (C*H*W, N)
rows, then zeroes the plan's padding entries, or is a view of the input when
one window covers it; _col2im adds each kernel offset, through a
zero-bordered shift plane, into one of stride x stride phase planes that
start zeroed, with one contiguous add (bit for bit the zero-filled sum),
or, when each pixel has one tap, is a reshape of cols. Layers write
straight into the arrays they return or keep. Each layer keeps what its
backward needs in one attribute, _cache: forward sets it, backward reads it
(refusing to run before a forward), and release drops it, so an instance
handles one forward/backward pair at a time and a forward-only caller can
free each layer's activations as soon as the next layer has them. backward
checks the upstream shape and writes grad_weight and grad_bias in place.
Weight init is uniform in +-sqrt(1/fan_in) from an explicit numpy
Generator. pack_parameters makes a layer list's weights and biases views of
one flat buffer, and their gradients views of a second. Sigmoid uses tanh: it
never overflows. Adam takes a learning rate; its betas and epsilon are fixed
ADAM_* constants.
"""
from __future__ import annotations

import functools
import math
import struct

import numpy as np

WEIGHTS_MAGIC = b"NNW1"
ADAM_BLOCK = 16384  # entries per block of Adam's update pass
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
LEAKY_SLOPE = 0.01  # LeakyReLU's negative slope; its np.maximum form needs a slope <= 1


class NonFiniteTensor(ValueError):
    """A NaN/Inf crossed a layer boundary."""


def _check_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteTensor(f"{name}: non-finite values in tensor of shape {x.shape}")
    return x


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def tconv_out_size(size: int, kernel: int, stride: int, padding: int,
                   output_padding: int) -> int:
    return (size - 1) * stride - 2 * padding + kernel + output_padding


@functools.lru_cache(maxsize=256)
def _patch_plan(c: int, height: int, width: int, k: int, stride: int, pad: int):
    """Row indices of every patch entry in the unpadded (C*H*W, N) rows, in
    patch-matrix order (channel, kernel row, kernel column, output position),
    0 for an entry in the padding; the flat indices of those entries; and the
    output dims. Read-only, built once per geometry of any batch size."""
    h_out = conv_out_size(height, k, stride, pad)
    w_out = conv_out_size(width, k, stride, pad)
    if h_out < 1 or w_out < 1:
        raise ValueError(f"kernel {k} with stride {stride}, padding {pad} does not fit "
                         f"a {height}x{width} input")
    ch, u, v, i, j = np.ix_(*(np.arange(m) for m in (c, k, k, h_out, w_out)))
    y, x = u + stride * i - pad, v + stride * j - pad
    inside = (0 <= y) & (y < height) & (0 <= x) & (x < width)
    plan = np.where(inside, (ch * height + y) * width + x, 0)
    padding = np.flatnonzero(np.broadcast_to(~inside, plan.shape))
    plan = plan.reshape(-1)
    for index in (plan, padding):
        index.setflags(write=False)
    return plan, padding, (h_out, w_out)


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(N, C, H, W) -> (C*k*k, P*N) patch matrix, batch innermost, plus output
    dims: one take of _patch_plan's rows, or, when one window covers the whole
    unpadded input, the input's own (C*H*W, N) rows (a view of batch-innermost
    memory)."""
    n, c, height, width = x.shape
    plan, padding, out_hw = _patch_plan(c, height, width, k, stride, pad)
    rows = x.transpose(1, 2, 3, 0).reshape(-1, n)
    if pad == 0 and k == height == width:
        return np.ascontiguousarray(rows), out_hw
    cols = np.take(rows, plan, axis=0)
    cols[padding] = 0.0
    return cols.reshape(c * k * k, -1), out_hw


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int, out_hw) -> np.ndarray:
    """Adjoint of _im2col, returned as an (N, C, H, W) view of (C, H, W, N)
    memory. When one window covers the padded map, each pixel has exactly one
    tap and the map is cols reshaped. Otherwise the taps are summed into s x s
    zeroed, contiguous (C, Hp/s, Wp/s, N) phase planes: offset (u, v) copies
    its (C, h_out, w_out, N) block into its window of the zero-bordered shift
    plane (u // s, v // s), and that whole shift plane is added into phase
    plane (u % s, v % s), one contiguous add per tap that sums bit for bit as
    the zero-filled form does, signed zeros included. The offsets go in
    ascending order, or in descending order when there are more offsets than
    output positions, which sums each pixel's taps as a loop over output
    positions would. s x s strided copies interleave the planes into the
    cropped map."""
    n, c, height, width = x_shape
    h_out, w_out = out_hw
    s = stride
    hp, wp = height + 2 * pad, width + 2 * pad
    c6 = cols.reshape(c, k, k, h_out, w_out, n)
    if h_out == w_out == 1 and k == hp == wp:
        return c6.reshape(c, k, k, n)[:, pad:pad + height, pad:pad + width].transpose(3, 0, 1, 2)
    planes = np.zeros((s, s, c, -(-hp // s), -(-wp // s), n))
    shifts = np.zeros((-(-k // s), -(-k // s), *planes.shape[2:]))
    taps = [(u, v) for u in range(k) for v in range(k)]
    for u, v in taps[::-1] if k * k > h_out * w_out else taps:
        (r, a), (q, b) = divmod(u, s), divmod(v, s)
        shifts[r, q, :, r:r + h_out, q:q + w_out] = c6[:, u, v]
        planes[a, b] += shifts[r, q]
    out = np.empty((c, height, width, n))
    for a in range(s):
        for b in range(s):  # output rows y = a - pad (mod s) live in plane rows (y + pad) // s on
            y, x = (a - pad) % s, (b - pad) % s
            out[:, y::s, x::s] = planes[a, b, :, (y + pad) // s:, (x + pad) // s:][
                :, :len(range(y, height, s)), :len(range(x, width, s))]
    return out.transpose(3, 0, 1, 2)


class Layer:
    """Base: parameter-free, shape-preserving by default."""

    _cache = None  # what backward needs from the last forward

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise ValueError(f"{type(self).__name__}.backward called before forward")
        return self._cache

    def _check_upstream(self, upstream: np.ndarray, out_shape) -> None:
        if upstream.shape != out_shape:
            raise ValueError(f"{type(self).__name__}.backward: upstream shape {upstream.shape} "
                             f"!= forward output shape {out_shape}")

    def release(self) -> None:
        self._cache = None


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

    def forward(self, x):
        _check_finite("dense input", x)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"dense expects (N, {self.weight.shape[1]}), got {x.shape}"
            )
        self._cache = x
        return x @ self.weight.T + self.bias

    def backward(self, upstream):
        x = self._take_cache()
        self._check_upstream(upstream, (x.shape[0], self.weight.shape[0]))
        np.matmul(upstream.T, x, out=self.grad_weight)
        self.grad_bias[...] = upstream.sum(axis=0)
        return upstream @ self.weight


class Conv2d(_Weighted):
    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0, *,
                 rng: np.random.Generator):
        k = kernel_size
        super().__init__(rng, in_channels * k * k, (out_channels, in_channels, k, k), out_channels)
        self.stride, self.padding = stride, padding

    def forward(self, x):
        _check_finite("conv2d input", x)
        out_c, in_c, k, _ = self.weight.shape
        if x.ndim != 4 or x.shape[1] != in_c:
            raise ValueError(f"conv2d expects (N, {in_c}, H, W), got {x.shape}")
        cols, (h_out, w_out) = _im2col(x, k, self.stride, self.padding)
        y = self.weight.reshape(out_c, -1) @ cols
        y += self.bias[:, None]
        self._cache = (x.shape, cols, (len(x), out_c, h_out, w_out))
        return y.reshape(out_c, h_out, w_out, len(x)).transpose(3, 0, 1, 2)

    def backward(self, upstream):
        d_y = self.param_backward(upstream)
        x_shape, _, out_shape = self._cache
        out_c, _, k, _ = self.weight.shape
        d_cols = self.weight.reshape(out_c, -1).T @ d_y
        return _col2im(d_cols, x_shape, k, self.stride, self.padding, out_shape[2:])

    def param_backward(self, upstream):
        """backward without the input gradient, for a layer whose input is the
        data: writes grad_weight and grad_bias and returns upstream as the
        (out_channels, P*N) matrix the input gradient would contract."""
        _, cols, out_shape = self._take_cache()
        self._check_upstream(upstream, out_shape)
        d_y = upstream.transpose(1, 2, 3, 0).reshape(self.weight.shape[0], -1)
        np.matmul(d_y, cols.T, out=self.grad_weight.reshape(len(d_y), -1))
        self.grad_bias[...] = d_y.sum(axis=1)
        return d_y


class ConvTranspose2d(_Weighted):
    """Adjoint of Conv2d; weight layout (in_channels, out_channels, k, k)."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1, padding=0,
                 output_padding=0, *, rng: np.random.Generator):
        k = kernel_size
        if not 0 <= output_padding < stride:
            raise ValueError(f"output_padding must be in [0, stride), got {output_padding}")
        super().__init__(rng, in_channels * k * k, (in_channels, out_channels, k, k), out_channels)
        self.stride, self.padding, self.output_padding = stride, padding, output_padding

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
        x2 = x.transpose(1, 2, 3, 0).reshape(in_c, -1)
        cols = self.weight.reshape(in_c, -1).T @ x2
        y = _col2im(cols, (n, out_c, h_out, w_out), k, s, p, (height, width))
        y += self.bias[:, None, None]
        self._cache = (x2, x.shape, y.shape)
        return y

    def backward(self, upstream):
        x2, x_shape, out_shape = self._take_cache()
        self._check_upstream(upstream, out_shape)
        in_c, out_c, k, _ = self.weight.shape
        d_cols, _ = _im2col(upstream, k, self.stride, self.padding)
        np.matmul(x2, d_cols.T, out=self.grad_weight.reshape(in_c, -1))
        self.grad_bias[...] = upstream.transpose(1, 2, 3, 0).reshape(out_c, -1).sum(axis=1)
        d_x = self.weight.reshape(in_c, -1) @ d_cols
        return d_x.reshape(in_c, *x_shape[2:], x_shape[0]).transpose(3, 0, 1, 2)


class LeakyReLU(Layer):
    def forward(self, x):
        _check_finite("leaky_relu input", x)
        out = LEAKY_SLOPE * x
        np.maximum(x, out, out=out)
        self._cache = out > 0  # where x > 0, as 0 < slope <= 1
        return out

    def backward(self, upstream):
        mask = self._take_cache()
        self._check_upstream(upstream, mask.shape)
        # bit-identical to np.where(mask, upstream, slope * upstream), and about 9x
        # faster on the batch-innermost views that conv layers return
        return upstream * np.maximum(mask, LEAKY_SLOPE)


class Sigmoid(Layer):
    def forward(self, x):
        _check_finite("sigmoid input", x)
        self._cache = out = 0.5 * x
        np.tanh(out, out=out)
        out *= 0.5
        out += 0.5
        return out

    def backward(self, upstream):
        out = self._take_cache()
        self._check_upstream(upstream, out.shape)
        d = upstream * out
        d *= 1.0 - out
        return d


class Reshape(Layer):
    """Per-sample reshape; the batch axis stays in front."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)

    def forward(self, x):
        want = math.prod(self.shape)
        have = math.prod(x.shape[1:])
        if want != have:
            raise ValueError(f"cannot reshape per-sample {x.shape[1:]} into {self.shape}")
        self._cache = x.shape
        return x.reshape(x.shape[0], *self.shape)

    def backward(self, upstream):
        in_shape = self._take_cache()
        self._check_upstream(upstream, (in_shape[0], *self.shape))
        return upstream.reshape(in_shape)


def mse_loss(prediction: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient 2*(p - t)/N."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: prediction {prediction.shape} vs target {target.shape}")
    diff = prediction - target
    loss = float(np.mean(diff * diff))
    diff *= 2.0
    diff /= diff.size
    return loss, diff


class Adam:
    """Adam with bias correction, updating one C-contiguous parameter array in
    place. step makes one elementwise pass in textbook operation order, in
    blocks of ADAM_BLOCK entries that keep its two temporaries in cache."""

    def __init__(self, params: np.ndarray, learning_rate: float = 1e-3):
        if not params.flags.c_contiguous:
            raise ValueError("Adam updates one C-contiguous parameter array")
        self.params = params
        self.lr = learning_rate
        self.step_count = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self._num, self._den = np.empty((2, min(params.size, ADAM_BLOCK)))

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {self.params.shape}")
        self.step_count += 1
        b1, b2, t = ADAM_BETA1, ADAM_BETA2, self.step_count
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
            den += ADAM_EPSILON
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

    def take(nbytes: int) -> memoryview:
        nonlocal offset
        if offset + nbytes > len(data):
            raise ValueError(f"{path}: truncated, {nbytes} bytes needed at offset {offset} "
                             f"but the file ends at offset {len(data)}")
        offset += nbytes
        return memoryview(data)[offset - nbytes:offset]

    (count,) = struct.unpack("<I", take(4))
    shapes = []
    for _ in range(count):
        (ndim,) = struct.unpack("<I", take(4))
        shapes.append(struct.unpack(f"<{ndim}I", take(4 * ndim)))
    tensors = [np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
               .astype(np.float64) for shape in shapes]
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes after tensor data (offset {offset})")
    return tensors
