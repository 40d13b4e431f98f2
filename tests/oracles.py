"""Independent reference implementations used only by tests.

The dense oracle builds explicit 2^n x 2^n unitaries by kron-embedding
2x2 / 4x4 blocks and multiplying them onto the state, sharing no code with
the package's bit-twiddling kernels. Its noisy form evolves a 2^n x 2^n
density matrix as U rho U^dagger and applies the depolarizing channel as an
explicit Kraus sum. Qubit ordering matches the package: qubit 0 is the least
significant bit of the basis index.

The convolution oracles loop over output pixels (conv) or scatter each input
pixel times its kernel (tconv), and the SSIM oracle sums each window
explicitly; none shares code with the package's patch matrices or its
banded-window products. im2col_padded, col2im_zero_filled and
ssim_per_image_stacked are the straightforward forms of the package's patch
gather, patch scatter and SSIM block (a zero-padded copy, a zero-filled
buffer, a stacked operand): the package's allocation-lean forms must match
them bit for bit. peak_bytes measures a call's memory high-water mark.
"""
from __future__ import annotations

import tracemalloc
from math import cos, sin

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def single_qubit_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "h":
        return H
    half = 0.5 * angle
    if kind == "rx":
        return np.array([[cos(half), -1j * sin(half)], [-1j * sin(half), cos(half)]])
    if kind == "ry":
        return np.array([[cos(half), -sin(half)], [sin(half), cos(half)]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])
    raise ValueError(kind)


def embed_1q(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    high = np.eye(2 ** (n - 1 - qubit), dtype=complex)
    low = np.eye(2**qubit, dtype=complex)
    return np.kron(high, np.kron(u, low))


def gate_matrix(gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n unitary of one package GateOp."""
    if gate.kind in ("h", "rx", "ry", "rz"):
        return embed_1q(single_qubit_matrix(gate.kind, gate.angle), gate.targets[0], n)
    if gate.kind == "cnot":
        control, target = gate.targets
        return embed_1q(P0, control, n) + embed_1q(P1, control, n) @ embed_1q(X, target, n)
    if gate.kind == "zz":
        qa, qb = gate.targets
        generator = embed_1q(Z, qa, n) @ embed_1q(Z, qb, n)
        return expm(-0.5j * gate.angle * generator)
    raise ValueError(gate.kind)


def run_dense(n: int, gates) -> np.ndarray:
    """Apply a gate list to |0...0> via explicit matrix products."""
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for gate in gates:
        state = gate_matrix(gate, n) @ state
    return state


def run_dense_mixed(n: int, gates, depolarizing_prob: float) -> np.ndarray:
    """Density matrix of a gate list on |0...0><0...0|: each gate as
    U rho U^dagger, then on each of its targets the Kraus sum
    (1 - p) rho + p/3 (X rho X + Y rho Y + Z rho Z)."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    p = depolarizing_prob
    for gate in gates:
        u = gate_matrix(gate, n)
        rho = u @ rho @ u.conj().T
        for q in gate.targets:
            paulis = [embed_1q(pauli, q, n) for pauli in (X, Y, Z)]
            rho = (1 - p) * rho + (p / 3) * sum(k @ rho @ k.conj().T for k in paulis)
    return rho


def dense_mixed_z(rho: np.ndarray, n: int, readout_flip_prob: float = 0.0) -> np.ndarray:
    """Per-qubit tr(Z rho), shrunk by (1 - 2 * readout_flip_prob)."""
    z = np.array([np.trace(embed_1q(Z, q, n) @ rho).real for q in range(n)])
    return z * (1 - 2 * readout_flip_prob)


def dense_expect_z(state: np.ndarray, qubit: int, n: int) -> float:
    z_full = embed_1q(Z, qubit, n)
    return float(np.real(np.conj(state) @ (z_full @ state)))


def dense_all_z(state: np.ndarray, n: int) -> np.ndarray:
    return np.array([dense_expect_z(state, q, n) for q in range(n)])


def fd_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (f(plus) - f(minus)) / (2 * h)
    return grad


def fd_jacobian(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a vector function; columns follow x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        cols.append((np.asarray(f(plus)) - np.asarray(f(minus))) / (2 * h))
    return np.stack(cols, axis=-1)


def random_gate_list(n: int, n_gates: int, rng: np.random.Generator):
    """Random circuit over the package's gate set, as GateOps."""
    from qcae.statevector import GateOp

    gates = []
    for _ in range(n_gates):
        kind = str(rng.choice(["h", "cnot", "rx", "ry", "rz", "zz"]))
        if kind in ("cnot", "zz") and n < 2:
            kind = "h"
        if kind in ("cnot", "zz"):
            a, b = rng.choice(n, size=2, replace=False)
            targets = (int(a), int(b))
        else:
            targets = (int(rng.integers(n)),)
        angle = None if kind in ("h", "cnot") else float(rng.uniform(-np.pi, np.pi))
        gates.append(GateOp(kind, targets, angle))
    return gates


def layered_gate_list(n: int, n_runs: int, rng: np.random.Generator):
    """Random circuit in runs of 1-6 gates of one kind, as GateOps with one
    slot per rotation, so that compiled layers hold many gates: wide
    columns, long phase runs with overlapping ZZ targets, CNOT runs."""
    from qcae.statevector import ROTATION_KINDS, GateOp

    kinds = ["h", "rx", "ry", "rz"] + (["cnot", "zz"] if n > 1 else [])
    gates, slots = [], 0
    for _ in range(n_runs):
        kind = str(rng.choice(kinds))
        for _ in range(int(rng.integers(1, 7))):
            targets = tuple(int(q) for q in rng.permutation(n)[:2 if kind in ("cnot", "zz") else 1])
            if kind in ROTATION_KINDS:
                gates.append(GateOp(kind, targets, slot=slots))
                slots += 1
            else:
                gates.append(GateOp(kind, targets))
    return gates


def conv2d_direct(x, weight, bias, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation, one output pixel at a time:
    y[n, o, i, j] = bias[o] + sum over c, u, v of
    weight[o, c, u, v] * x[n, c, i*stride + u - padding, j*stride + v - padding],
    reading input outside the image as zero."""
    n, _, height, width = x.shape
    out_c, _, k, _ = weight.shape
    h_out = (height + 2 * padding - k) // stride + 1
    w_out = (width + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    y = np.zeros((n, out_c, h_out, w_out))
    for b in range(n):
        for o in range(out_c):
            for i in range(h_out):
                for j in range(w_out):
                    patch = xp[b, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    y[b, o, i, j] = bias[o] + np.sum(weight[o] * patch)
    return y


def tconv2d_direct(x, weight, bias, stride: int = 1, padding: int = 0,
                   output_padding: int = 0) -> np.ndarray:
    """Transposed convolution, weight (in_c, out_c, k, k): every input pixel
    x[n, c, i, j] adds x[n, c, i, j] * weight[c] onto the canvas at
    (i*stride, j*stride); the output is the canvas cropped by padding on the
    top/left, output_padding extending it at the bottom/right, plus bias."""
    n, in_c, height, width = x.shape
    _, out_c, k, _ = weight.shape
    canvas = np.zeros((n, out_c, (height - 1) * stride + k + output_padding,
                       (width - 1) * stride + k + output_padding))
    for b in range(n):
        for c in range(in_c):
            for i in range(height):
                for j in range(width):
                    canvas[b, :, i * stride:i * stride + k, j * stride:j * stride + k] += (
                        x[b, c, i, j] * weight[c])
    h_out = (height - 1) * stride - 2 * padding + k + output_padding
    w_out = (width - 1) * stride - 2 * padding + k + output_padding
    return canvas[:, :, padding:padding + h_out, padding:padding + w_out] + bias[None, :, None, None]


def ssim_direct(a, b, window: str, c1: float, c2: float) -> float:
    """Mean SSIM over every valid window position, each window's weighted
    means, biased variances and covariance summed out explicitly.
    window: "gaussian11" (sigma 1.5, weights normalised to sum 1) or
    "uniform8" (each weight 1/64)."""
    if window == "gaussian11":
        d = np.arange(-5, 6, dtype=float)
        weights = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2 * 1.5**2))
    elif window == "uniform8":
        weights = np.ones((8, 8))
    else:
        raise ValueError(window)
    weights = weights / weights.sum()
    k = weights.shape[0]
    height, width = a.shape
    values = []
    for i in range(height - k + 1):
        for j in range(width - k + 1):
            pa, pb = a[i:i + k, j:j + k], b[i:i + k, j:j + k]
            mu_a, mu_b = np.sum(weights * pa), np.sum(weights * pb)
            var_a = np.sum(weights * (pa - mu_a) ** 2)
            var_b = np.sum(weights * (pb - mu_b) ** 2)
            cov = np.sum(weights * (pa - mu_a) * (pb - mu_b))
            values.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                          / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(values))


def peak_bytes(fn, *args) -> int:
    """High-water mark of the memory Python and numpy allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def im2col_padded(x, k: int, stride: int, pad: int):
    """(N, C, H, W) -> (C*k*k, P*N) patch matrix, batch innermost, and the
    output dims: the input copied into a zero-padded (C, Hp, Wp, N) buffer,
    then one take of every patch entry's row in it."""
    n, c, height, width = x.shape
    h_out = (height + 2 * pad - k) // stride + 1
    w_out = (width + 2 * pad - k) // stride + 1
    rows = x.transpose(1, 2, 3, 0)
    if pad == 0 and k == height == width:
        return np.ascontiguousarray(rows.reshape(c * k * k, n)), (h_out, w_out)
    hp, wp = height + 2 * pad, width + 2 * pad
    xp = np.zeros((c, hp, wp, n))
    xp[:, pad:pad + height, pad:pad + width] = rows
    ch, u, v, i, j = np.ix_(*(np.arange(m) for m in (c, k, k, h_out, w_out)))
    plan = ((ch * hp + u + stride * i) * wp + v + stride * j).reshape(-1)
    return np.take(xp.reshape(-1, n), plan, axis=0).reshape(c * k * k, -1), (h_out, w_out)


def col2im_zero_filled(cols, x_shape, k: int, stride: int, pad: int, out_hw) -> np.ndarray:
    """Adjoint of im2col_padded as an (N, C, H, W) array: each kernel offset
    adds its block into stride x stride phase planes of a zero-filled buffer
    (in descending order when there are more offsets than output positions),
    then strided copies interleave the planes into the cropped map."""
    n, c, height, width = x_shape
    h_out, w_out = out_hw
    s = stride
    hp, wp = height + 2 * pad, width + 2 * pad
    c6 = cols.reshape(c, k, k, h_out, w_out, n)
    if h_out == w_out == 1 and k == hp == wp:
        return c6.reshape(c, k, k, n)[:, pad:pad + height, pad:pad + width].transpose(3, 0, 1, 2)
    planes = np.zeros((c, s, s, -(-hp // s), -(-wp // s), n))
    taps = [(u, v) for u in range(k) for v in range(k)]
    for u, v in taps[::-1] if k * k > h_out * w_out else taps:
        planes[:, u % s, v % s, u // s:u // s + h_out, v // s:v // s + w_out] += c6[:, u, v]
    out = np.empty((c, height, width, n))
    for a in range(s):
        for b in range(s):
            y, x = (a - pad) % s, (b - pad) % s
            out[:, y::s, x::s] = planes[:, a, b, (y + pad) // s:, (x + pad) // s:][
                :, :len(range(y, height, s)), :len(range(x, width, s))]
    return out.transpose(3, 0, 1, 2)


def ssim_per_image_stacked(a, b, rows, cols, c1: float, c2: float) -> np.ndarray:
    """Per-image SSIM of two (N, H, W) stacks from the band matrices rows and
    cols, with the five local-mean operands built by np.stack."""
    stack = np.stack([a, b, a * a, b * b, a * b])
    mu_a, mu_b, aa, bb, ab = rows @ stack @ cols.T
    var_a = aa - mu_a * mu_a
    var_b = bb - mu_b * mu_b
    cov = ab - mu_a * mu_b
    s_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return s_map.mean(axis=(-2, -1))
