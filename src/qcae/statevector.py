"""Dense simulation of a small qubit register, pure or under noise.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
amplitude index, so the two-qubit basis state with qubit 0 set lives at
index 1. One runner does all simulation: run_rows applies a gate sequence
in place to M independent rows, fed by an (M, len(gates)) angle matrix, and
measure_rows_z reads exact per-qubit Pauli-Z expectations from every row.
run_circuit (bound gates in, one amplitude vector out) and measure_all_z are
its one-row pure case. GateOp is the one gate record: a rotation holds either
a fixed angle or, in a circuit template, a parameter slot that binding
replaces.

The noise channel is a minimal depolarizing + readout-flip model (a stand-in
for calibrated hardware noise): after a gate, each touched qubit is
depolarized, (1 - p) rho + p/3 (X rho X + Y rho Y + Z rho Z), and readout
expectations are shrunk by (1 - 2 * flip probability). run_rows simulates
the channel exactly on density matrices, so noisy runs draw no random
numbers and are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 14

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV

ROTATION_KINDS = ("rx", "ry", "rz", "zz")
GATE_KINDS = ("h", "cnot") + ROTATION_KINDS


@dataclass(frozen=True)
class GateOp:
    """One gate: kind, target qubits and, for a rotation kind, exactly one of
    a fixed angle or a parameter slot whose angle is scale * params[slot]."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_targets = 2 if self.kind in ("cnot", "zz") else 1
        if len(self.targets) != n_targets:
            raise ValueError(f"{self.kind} takes {n_targets} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct, got {self.targets}")
        if self.kind in ROTATION_KINDS:
            if (self.angle is None) == (self.slot is None):
                raise ValueError(f"{self.kind} takes exactly one of an angle and a slot")
        elif self.angle is not None or self.slot is not None:
            raise ValueError(f"{self.kind} carries no angle and no slot")
        if self.slot is None and self.scale != 1.0:
            raise ValueError(f"{self.kind} without a slot takes no scale, got {self.scale}")


def h(q: int) -> GateOp:
    return GateOp("h", (q,))


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", (control, target))


def rx(q: int, angle: float) -> GateOp:
    return GateOp("rx", (q,), float(angle))


def ry(q: int, angle: float) -> GateOp:
    return GateOp("ry", (q,), float(angle))


def rz(q: int, angle: float) -> GateOp:
    return GateOp("rz", (q,), float(angle))


def zz(qa: int, qb: int, angle: float) -> GateOp:
    """Two-qubit interaction exp(-i * angle/2 * Z(x)Z)."""
    return GateOp("zz", (qa, qb), float(angle))


@dataclass(frozen=True)
class NoiseChannel:
    """Per-gate depolarizing probability plus a readout bit-flip probability.

    (0, 0) is exactly the noiseless simulator.
    """

    depolarizing_prob: float = 0.0
    readout_flip_prob: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_prob", "readout_flip_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def _zero_rows(n_rows: int, n_qubits: int) -> np.ndarray:
    """n_rows copies of |0...0>; at most MAX_QUBITS simulated qubits bound memory."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"simulated qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros((n_rows, 2**n_qubits), dtype=complex)
    amps[:, 0] = 1.0
    return amps


def _rotation_matrix(kind: str, angles) -> np.ndarray:
    """Rotation matrices, shape angles.shape + (2, 2): one per angle."""
    half = 0.5 * np.asarray(angles, dtype=float)
    if kind == "rz":
        zero = np.zeros_like(half)
        u = [[np.exp(-1j * half), zero], [zero, np.exp(1j * half)]]
    else:
        cos, sin = np.cos(half), np.sin(half)
        u = [[cos, -1j * sin], [-1j * sin, cos]] if kind == "rx" else [[cos, -sin], [sin, cos]]
    return np.moveaxis(np.array(u, dtype=complex), (0, 1), (-2, -1))


def _apply_1q(amps: np.ndarray, q: int, u: np.ndarray) -> None:
    # u is one (2, 2) matrix for every row or an (M, 2, 2) stack, one per row;
    # each row viewed as (high bits, bit q, low bits), axis 2 is qubit q
    m = amps.reshape(amps.shape[0], -1, 2, 1 << q)
    u = u.reshape(-1, 1, 1, 2, 2)
    a0 = m[:, :, 0, :].copy()
    a1 = m[:, :, 1, :]
    m[:, :, 0, :] = u[..., 0, 0] * a0 + u[..., 0, 1] * a1
    m[:, :, 1, :] = u[..., 1, 0] * a0 + u[..., 1, 1] * a1


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    # one axis per qubit after the row axis, most significant first
    n = amps.shape[1].bit_length() - 1
    bits = amps.reshape((amps.shape[0],) + (2,) * n)
    lo, hi = [slice(None)] * (n + 1), [slice(None)] * (n + 1)
    lo[n - control] = hi[n - control] = 1
    lo[n - target], hi[n - target] = 0, 1
    bits[tuple(lo)], bits[tuple(hi)] = bits[tuple(hi)].copy(), bits[tuple(lo)].copy()


def _apply_zz(amps: np.ndarray, qa: int, qb: int, angles: np.ndarray) -> None:
    idx = np.arange(amps.shape[1])
    parity = ((idx >> qa) ^ (idx >> qb)) & 1
    phases = np.stack([np.exp(-0.5j * angles), np.exp(0.5j * angles)], axis=-1)
    amps *= phases[:, parity]


def _apply(amps: np.ndarray, kind: str, targets: tuple[int, ...], angles: np.ndarray) -> None:
    """One gate on every row; angles holds one gate angle per row."""
    n = amps.shape[1].bit_length() - 1
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"gate target {q} out of range for {n} qubits")
    if kind == "h":
        _apply_1q(amps, targets[0], _H_MATRIX)
    elif kind in ("rx", "ry", "rz"):
        _apply_1q(amps, targets[0], _rotation_matrix(kind, angles))
    elif kind == "cnot":
        _apply_cnot(amps, targets[0], targets[1])
    elif kind == "zz":
        _apply_zz(amps, targets[0], targets[1], angles)


def _depolarize(rho: np.ndarray, n: int, q: int, p: float) -> None:
    # each density row viewed as (high, bra bit q, middle, ket bit q, low);
    # the channel mixes the diagonal pair by 2p/3 and shrinks the off-diagonal
    # pair by 1 - 4p/3
    m = rho.reshape(rho.shape[0], -1, 2, 1 << (n - 1), 2, 1 << q)
    mix = (2.0 * p / 3.0) * (m[:, :, 1, :, 1] - m[:, :, 0, :, 0])
    m[:, :, 0, :, 0] += mix
    m[:, :, 1, :, 1] -= mix
    m[:, :, 0, :, 1] *= 1.0 - 4.0 * p / 3.0
    m[:, :, 1, :, 0] *= 1.0 - 4.0 * p / 3.0


def _mixed(channel: NoiseChannel | None) -> bool:
    return channel is not None and channel.depolarizing_prob > 0.0


def run_rows(n_qubits: int, gates, angles, channel: NoiseChannel | None = None) -> np.ndarray:
    """Run one gate sequence on M rows, each from |0...0>.

    Of each GateOp only kind and targets are read, so template gates run
    unbound: angles is an (M, len(gates)) matrix whose column i feeds gate
    i, and H and CNOT ignore their column. Returns (M, 2^n) amplitudes or,
    with an active depolarizing channel, (M, 4^n) density matrices rho, each a
    2n-qubit vector with the ket bits low and the bra bits high (so noisy runs
    take n <= MAX_QUBITS // 2): a gate U maps rho to U rho U^dagger, then each
    qubit it touched is depolarized. measure_rows_z with the same channel reads either.
    """
    gates = list(gates)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(gates):
        raise ValueError(f"need an (M, {len(gates)}) angle matrix, got shape {angles.shape}")
    mixed = _mixed(channel)
    rows = _zero_rows(angles.shape[0], 2 * n_qubits if mixed else n_qubits)
    for i, gate in enumerate(gates):
        _apply(rows, gate.kind, gate.targets, angles[:, i])
        if mixed:
            # conj(U) on the bra bits, whose range check bounds the targets
            # by n; conj(U(angle)) is U(-angle) but for the real H, CNOT, RY
            sign = -1.0 if gate.kind in ("rx", "rz", "zz") else 1.0
            _apply(rows, gate.kind, tuple(q + n_qubits for q in gate.targets),
                   sign * angles[:, i])
            for q in gate.targets:
                _depolarize(rows, n_qubits, q, channel.depolarizing_prob)
    return rows


def measure_rows_z(rows: np.ndarray, channel: NoiseChannel | None = None) -> np.ndarray:
    """(M, n) exact per-qubit <Z> of run_rows output: of the amplitudes, or
    of the density matrices' diagonal when depolarizing is active."""
    if _mixed(channel):
        n = (rows.shape[1].bit_length() - 1) // 2
        return _z_readout(rows[:, ::(1 << n) + 1].real, channel)
    return _z_readout(np.abs(rows) ** 2, channel)


def _z_readout(probs: np.ndarray, channel: NoiseChannel | None) -> np.ndarray:
    # +1 where a qubit's bit is 0, -1 where it is 1, times (1 - 2 * readout_flip_prob)
    n = probs.shape[1].bit_length() - 1
    z = np.empty((probs.shape[0], n))
    for q in range(n):
        split = probs.reshape(probs.shape[0], -1, 2, 1 << q)
        z[:, q] = split[:, :, 0, :].sum(axis=(1, 2)) - split[:, :, 1, :].sum(axis=(1, 2))
    if channel is not None:
        z *= 1.0 - 2.0 * channel.readout_flip_prob
    return z


def run_circuit(n_qubits: int, gates) -> np.ndarray:
    """(2^n,) amplitudes of a bound gate list run on |0...0>; a pure state
    takes no depolarizing. A gate that still has a slot is rejected."""
    gates = list(gates)
    for g in gates:
        if g.slot is not None:
            raise ValueError(f"{g.kind} on {g.targets} still has slot {g.slot}; "
                             "bind its template first")
    return run_rows(n_qubits, gates, [[0.0 if g.angle is None else g.angle for g in gates]])[0]


def measure_all_z(amplitudes: np.ndarray, channel: NoiseChannel | None = None) -> np.ndarray:
    """(n,) <Z> of one amplitude vector, each shrunk by (1 - 2 * readout_flip_prob)."""
    return _z_readout(np.abs(np.asarray(amplitudes)[None]) ** 2, channel)[0]
