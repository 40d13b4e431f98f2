"""Dense simulation of a small qubit register, pure or under noise.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
amplitude index, so the two-qubit basis state with qubit 0 set lives at
index 1. One runner does all simulation: run_rows applies a gate sequence
in place to M independent rows, fed by an (M, len(gates)) angle matrix, and
measure_rows_z reads exact per-qubit Pauli-Z expectations from every row,
and angle_gradient differentiates a weighted sum of them against every gate
angle in one reverse sweep. run_circuit (bound gates in, one amplitude vector
out) and measure_all_z are the one-row pure case. GateOp is the one gate
record: a rotation holds either a fixed angle or, in a circuit template, a
parameter slot that binding replaces.

The gate kernels are the only description of a gate: H, RX and RY are 2x2
matrices, CNOT a swap, and RZ and ZZ one phase by the parity of their target
bits. A rotation is exp(-i angle/2 G) with G^2 = 1, so U(pi) = -iG: the
sweeps take Im<lambda|G psi> as Re<lambda|U(pi) psi> through those kernels.

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
    """RX or RY matrices, shape angles.shape + (2, 2): one per angle."""
    half = 0.5 * np.asarray(angles, dtype=float)
    u = np.zeros(half.shape + (2, 2), dtype=complex)
    cos, sin = np.cos(half), np.sin(half)
    u[..., 0, 0] = u[..., 1, 1] = cos
    u[..., 0, 1], u[..., 1, 0] = (-1j * sin, -1j * sin) if kind == "rx" else (-sin, sin)
    return u


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


def _apply_phase(amps: np.ndarray, targets: tuple[int, ...], angles) -> None:
    # exp(-i angle/2 Z...Z) on the targets: e^(-i angle/2) where their bits
    # have even parity, e^(+i angle/2) where odd; one angle or one per row
    idx = np.arange(amps.shape[1])
    parity = sum(idx >> q for q in targets) & 1
    amps *= np.exp(np.multiply.outer(angles, [-0.5j, 0.5j]))[..., parity]


def _check_targets(n_qubits: int, gates) -> None:
    """Refuse a gate target outside range(n_qubits); the gate kernels do not check."""
    bad = [q for gate in gates for q in gate.targets if not 0 <= q < n_qubits]
    if bad:
        raise ValueError(f"gate target {bad[0]} out of range for {n_qubits} qubits")


def _apply(amps: np.ndarray, kind: str, targets: tuple[int, ...], angles) -> None:
    """One gate on every row; angles is one angle per row, or one for all."""
    if kind == "h":
        _apply_1q(amps, targets[0], _H_MATRIX)
    elif kind in ("rx", "ry"):
        _apply_1q(amps, targets[0], _rotation_matrix(kind, angles))
    elif kind == "cnot":
        _apply_cnot(amps, targets[0], targets[1])
    else:
        _apply_phase(amps, targets, angles)


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


def row_width(n_qubits: int, channel: NoiseChannel | None = None) -> int:
    """Entries of one run_rows row: 2^n amplitudes, or a 4^n density matrix."""
    return 1 << (2 * n_qubits if _mixed(channel) else n_qubits)


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
    _check_targets(n_qubits, gates)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(gates):
        raise ValueError(f"need an (M, {len(gates)}) angle matrix, got shape {angles.shape}")
    mixed = _mixed(channel)
    rows = _zero_rows(angles.shape[0], 2 * n_qubits if mixed else n_qubits)
    for i, gate in enumerate(gates):
        _evolve(rows, n_qubits, gate, angles[:, i])
        if mixed:
            for q in gate.targets:
                _depolarize(rows, n_qubits, q, channel.depolarizing_prob)
    return rows


def _evolve(rows: np.ndarray, n_qubits: int, gate: GateOp, angles: np.ndarray) -> None:
    """U(angles) on amplitude rows, or U rho U^dagger on density rows: then
    conj(U) acts on the bra bits, each target shifted up by n_qubits.
    Negated angles undo the gate, since every kind's U(-a) is U(a)^dagger
    (H and CNOT are their own inverses)."""
    _apply(rows, gate.kind, gate.targets, angles)
    if rows.shape[1] > 1 << n_qubits:
        # conj(U(angle)) is U(-angle) but for the real H, CNOT, RY
        sign = -1.0 if gate.kind in ("rx", "rz", "zz") else 1.0
        _apply(rows, gate.kind, tuple(q + n_qubits for q in gate.targets), sign * angles)


def _readout(n_qubits: int, channel: NoiseChannel | None) -> np.ndarray:
    """(2^n, n) map of basis probabilities onto <Z_q>: +1 where qubit q's bit
    is 0, -1 where it is 1, times (1 - 2 * readout_flip_prob)."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    flip = 0.0 if channel is None else channel.readout_flip_prob
    return (1.0 - 2.0 * bits) * (1.0 - 2.0 * flip)


def measure_rows_z(rows: np.ndarray, channel: NoiseChannel | None = None) -> np.ndarray:
    """(M, n) exact per-qubit <Z> of run_rows output: of the amplitudes, or
    of the density matrices' diagonal when depolarizing is active."""
    if _mixed(channel):
        n = (rows.shape[1].bit_length() - 1) // 2
        return rows[:, ::(1 << n) + 1].real @ _readout(n, channel)
    return measure_all_z(rows, channel)


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
    """(n,) <Z> of one amplitude vector (or (M, n) of M), readout flip applied."""
    probs = np.abs(np.asarray(amplitudes)) ** 2
    return probs @ _readout(probs.shape[-1].bit_length() - 1, channel)


def angle_gradient(n_qubits: int, gates, angles, d_z,
                   channel: NoiseChannel | None = None, rows=None) -> np.ndarray:
    """(M, len(gates)): d(sum_q d_z[q] <Z_q>)/d(angle of gate i) per row of
    run_rows(n_qubits, gates, angles, channel) as measure_rows_z reads it,
    and 0 for H and CNOT, by one reverse sweep with the costate of that
    observable (Jones & Gacon 2020, arXiv:2009.02823). rows, if the caller
    kept that run_rows output, start a pure sweep and are never written; a
    noisy sweep re-runs the forward, since depolarizing cannot be undone.
    """
    gates = list(gates)
    _check_targets(n_qubits, gates)
    angles = np.asarray(angles, dtype=float)
    d_z = np.asarray(d_z, dtype=float)
    if d_z.shape != (len(angles), n_qubits):
        raise ValueError(f"need an ({len(angles)}, {n_qubits}) downstream gradient d_z, "
                         f"one row per angle row, got shape {d_z.shape}")
    weights = d_z @ _readout(n_qubits, channel).T  # the diagonal of that observable O
    out = np.zeros(angles.shape)
    if _mixed(channel):
        _density_sweep(n_qubits, gates, angles, weights, channel.depolarizing_prob, out)
    else:
        _pure_sweep(n_qubits, gates, angles, weights, rows, out)
    return out


def _angle_term(costate: np.ndarray, state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Re<costate|U(pi) state> per row, which is Im<costate|G state>; turns
    state in place. Re(conj(a) b) is the dot of their (re, im) float views."""
    _apply(state, gate.kind, gate.targets, np.pi)
    return np.einsum("ij,ij->i", costate.view(float), state.view(float))


def _pure_sweep(n, gates, angles, weights, rows, out) -> None:
    # d<psi|O|psi>/d angle is Im<lambda|G psi>, with psi the state after the
    # gate and lambda = O psi carried back to it; psi and lambda share one array
    m = len(angles)
    rows = run_rows(n, gates, angles) if rows is None else rows
    state = np.concatenate([rows, weights * rows])
    undo = -np.concatenate([angles, angles])
    for i, gate in reversed(list(enumerate(gates))):
        if gate.kind in ROTATION_KINDS:
            out[:, i] = _angle_term(state[m:], state[:m].copy(), gate)
        _evolve(state, n, gate, undo[:, i])


def _density_sweep(n, gates, angles, weights, p, out) -> None:
    # the loss is <lambda|rho>; a gate's unitary moves the state sigma it leaves
    # (kept before depolarizing) by (-i/2)(G sigma - sigma G) per unit angle.
    # lambda and sigma are Hermitian, so <lambda|sigma G> is the conjugate of
    # <lambda|G sigma> and the term is Im<lambda|G sigma>, G on the ket bits
    rho = _zero_rows(len(angles), 2 * n)
    sigmas = {}
    for i, gate in enumerate(gates):
        _evolve(rho, n, gate, angles[:, i])
        if gate.kind in ROTATION_KINDS:
            sigmas[i] = rho.copy()
        for q in gate.targets:
            _depolarize(rho, n, q, p)
    costate = np.zeros_like(rho)
    costate[:, ::(1 << n) + 1] = weights
    for i, gate in reversed(list(enumerate(gates))):
        for q in gate.targets:  # the channel is self-adjoint
            _depolarize(costate, n, q, p)
        if i in sigmas:
            out[:, i] = _angle_term(costate, sigmas.pop(i), gate)
        _evolve(costate, n, gate, -angles[:, i])
