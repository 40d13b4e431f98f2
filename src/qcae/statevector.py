"""Dense simulation of a small qubit register, pure or under noise.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
amplitude index, so the two-qubit basis state with qubit 0 set lives at
index 1. One runner does all simulation: run_rows applies a gate sequence
to M independent rows, fed by an (M, len(gates)) angle matrix, and
measure_rows_z reads exact per-qubit Pauli-Z expectations from every row;
z_and_pullback returns them with a pullback that differentiates a weighted
sum of them against every gate angle in one reverse sweep. run_circuit
(bound gates in, one amplitude vector out) and measure_all_z are the one-row
pure case. GateOp is the one gate record: a rotation holds either a fixed
angle or, in a circuit template, a parameter slot that binding replaces.

Every <Z_q> is read from basis probabilities (|amplitude|^2, or a density
row's diagonal) in one place, _paired_z, as the sum over the x whose bit q
is 0 of p[x] - p[~x], ~x flipping every bit. A state fixed by the global
flip, as the QAOA family's always is, so reads exactly 0.0 at any n and for
any summation order of the kernels before it. The pullback's costate is
the transpose of the same linear map, _readout.

Every circuit runs as a program of layers, compiled once per gate list
(compile_circuit; only kinds and targets matter, so any angles and any row
count reuse it). A greedy pass in gate order makes three kinds of layer:
  column       H, RX and RY on distinct qubits: each 2x2 matrix applied
               elementwise to all rows;
  diagonal     a run of RZ and ZZ: one phase multiply per group of target
               bits, its (M, 2, ..., 2) table from one product of the angles
               with a fixed exponent matrix;
  permutation  a run of CNOTs: one gather by the composed basis permutation.
A rotation is exp(-i angle/2 G) with G^2 = 1 and G commutes with the rest
of its layer, so every derivative of a layer, Im<lambda|G psi>, comes from
the (psi, lambda) pair at the layer's end: a column's from reduced matrices
of kron blocks of adjacent qubits, a diagonal run's as one product of
Im(conj(lambda) * psi) with a table of each gate's Z...Z signs on the ket
bits (by Hermiticity, a density row's whole derivative). z_and_pullback's
forward keeps psi at the end of each layer with derivatives, and the
pullback's sweep undoes each layer on lambda only, stopping at the first.

The noise channel is a minimal depolarizing + readout-flip model (a stand-in
for calibrated hardware noise): after a gate, each touched qubit is
depolarized, (1 - p) rho + p/3 (X rho X + Y rho Y + Z rho Z), and readout
expectations are shrunk by (1 - 2 * flip probability). run_rows simulates
the channel exactly on density matrices, so noisy runs draw no random
numbers and are reproducible. As vec(U rho U^dagger) = (conj(U) (x) U)
vec(rho), a density row is a pure row of 2n qubits (ket bits low, bra bits
high) that runs the doubled gate list: _compile adds gate i's conjugate,
U(-angle) for RX, RZ and ZZ, on the bra bits to the layer of gate i, and
the layers know no density rows. Under a channel no two gates of a layer
share a qubit, so each gate's depolarizing can follow its layer.
"""
from __future__ import annotations

import functools
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


def _block_qubits(register: int) -> int:
    """Qubits per reduced-matrix block of a column's sweep and per phase
    table of a diagonal run, on a register of that many qubits: about a
    third of it, from 2 to 4."""
    return min(4, max(2, (register + 2) // 3))


def _bit_axes(register: int, bits) -> tuple[int, ...]:
    """Shape that splits a register row into one axis of 2 per bit of bits
    (most significant first) and one axis per run of bits between them."""
    shape, top = [], register
    for b in sorted(bits, reverse=True):
        shape += [1 << (top - 1 - b), 2]
        top = b
    shape.append(1 << top)
    return tuple(shape)


class _Column:
    """H, RX and RY gates on distinct qubits: each 2x2 matrix applied
    elementwise as u[a, 0] x_0 + u[a, 1] x_1, all rows at once. Elementwise,
    each output sums the same two products whichever way its qubit is
    flipped, so a state symmetric under a flip of every qubit stays symmetric
    bit for bit (batched BLAS products, which may fuse multiply-adds, do not
    keep that). The derivative of each gate of the run below n_gates (not of
    a density row's conjugate copies, see _compile) comes from the reduced
    matrix R[a, c] = sum conj(lambda_a) psi_c of a block of at most
    _block_qubits adjacent qubits, one batched matmul per block, and a fixed
    coefficient column: Im<lambda|X psi> or Im<lambda|Y psi>."""

    kind = "column"

    def __init__(self, register: int, ops, run, n_gates: int):
        self.gates = tuple(run)
        self.qubits = tuple(ops[i][1][0] for i in run)
        kinds = [ops[i][0] for i in run]
        # u[0, 1] and u[1, 0] are sin(angle/2) times these: RX -i, -i; RY -1, +1
        self._off = np.array([(-1j, -1j) if k == "rx" else (-1, 1) for k in kinds]).T
        self._h = [j for j, k in enumerate(kinds) if k == "h"]
        at = {q: j for j, q in enumerate(self.qubits)}  # qubit -> its gate's place in run
        self._steps = [(j, (1 << register) >> (q + 1), 1 << q) for q, j in sorted(at.items())]
        width = _block_qubits(register)
        runs = []
        for q in sorted(q for q, j in at.items() if run[j] < n_gates and kinds[j] != "h"):
            if runs and q == runs[-1][-1] + 1 and len(runs[-1]) < width:
                runs[-1].append(q)
            else:
                runs.append([q])
        self.blocks, deriv = [], []
        for qs in runs:
            d = 1 << len(qs)
            coef = []
            for t, q in enumerate(qs):
                j = at[q]
                col = np.zeros((d, d), dtype=complex)
                a = np.arange(d)
                col[a, a ^ (1 << t)] = -1j if kinds[j] == "rx" else np.where(a >> t & 1, 1.0, -1.0)
                coef.append(col.reshape(-1))
                deriv.append(run[j])
            self.blocks.append((d, 1 << qs[0], (1 << register) >> (qs[-1] + 1), np.array(coef).T))
        self.deriv = tuple(deriv)

    def apply(self, rows, angles, inverse=False):
        m = len(angles)
        half = (-0.5 if inverse else 0.5) * angles[:, self.gates]
        sin = np.sin(half)
        u = np.empty(half.shape + (2, 2), dtype=complex)
        u[..., 0, 0] = u[..., 1, 1] = np.cos(half)
        u[..., 0, 1] = sin * self._off[0]
        u[..., 1, 0] = sin * self._off[1]
        if self._h:
            u[:, self._h] = _H_MATRIX
        # u[:, j, :, c] as (M, 1, a, 1), broadcast over the (k, M, high bits,
        # qubit, low bits) view of the rows
        u = u[:, :, None, :, :, None]
        out, term = np.empty_like(rows), np.empty_like(rows)  # rows is the third buffer
        for j, hi, lo in self._steps:
            x, y, t = (a.reshape(-1, m, hi, 2, lo) for a in (rows, out, term))
            np.multiply(x[:, :, :, :1], u[:, j, ..., 0, :], out=y)
            y += np.multiply(x[:, :, :, 1:], u[:, j, ..., 1, :], out=t)
            rows, out = out, rows
        return rows

    def terms(self, psi, lam):
        m = len(psi)
        lam = lam.conj()
        out = []
        for d, lo, hi, coef in self.blocks:
            if lo == 1:
                r = lam.reshape(m, hi, d).swapaxes(1, 2) @ psi.reshape(m, hi, d)
            else:
                r = (lam.reshape(m, hi, d, lo) @ psi.reshape(m, hi, d, lo).swapaxes(2, 3)).sum(1)
            out.append((r.reshape(m, -1) @ coef).real)
        return np.concatenate(out, axis=1)


class _Diagonal:
    """RZ and ZZ gates: a phase exp(-i/2 sum_g angle_g s_g), s_g the +-1 Z...Z
    sign of gate g's target bits. The factors are grouped by target bits, at
    most _block_qubits bits a group: one product of the angles with a fixed
    exponent matrix gives every group's (M, 2, ..., 2) phase table, and each
    table multiplies the rows broadcast over its bits. The derivatives of the
    run's gates below n_gates (not of a density row's conjugate copies) are
    one product of Im(conj(lambda) * psi) with a (2^register, gates) table
    of their signs s_g."""

    kind = "diagonal"

    def __init__(self, register: int, ops, run, n_gates: int):
        self.gates, self.deriv = tuple(run), tuple(i for i in run if i < n_gates)
        self.qubits = tuple(q for i in run for q in ops[i][1])
        width = _block_qubits(register)
        groups = []  # [bits, members]
        for j, i in enumerate(run):
            for group in groups:
                if len(group[0].union(ops[i][1])) <= width:
                    break
            else:
                group = [set(), []]
                groups.append(group)
            group[0].update(ops[i][1])
            group[1].append(j)
        self.groups, exponent, start = [], [], 0
        for bits, members in groups:
            bits = sorted(bits, reverse=True)
            pattern = np.arange(1 << len(bits))[:, None] >> np.arange(len(bits) - 1, -1, -1) & 1
            block = np.zeros((len(run), len(pattern)))
            for j in members:
                targets = [bits.index(q) for q in ops[run[j]][1]]
                block[j] = -0.5 * (1.0 - 2.0 * (pattern[:, targets].sum(1) & 1))
            exponent.append(block)
            self.groups.append((slice(start, start + len(pattern)), _bit_axes(register, bits)))
            start += len(pattern)
        self._exponent = np.concatenate(exponent, axis=1)  # (gates, sum of table sizes)
        targets = np.zeros((register, len(self.deriv)), dtype=int)
        for j, i in enumerate(self.deriv):
            targets[list(ops[i][1]), j] = 1
        bits = np.arange(1 << register)[:, None] >> np.arange(register) & 1
        self._signs = 1.0 - 2.0 * ((bits @ targets) % 2)

    def apply(self, rows, angles, inverse=False):
        m = len(angles)
        phase = np.exp((-1j if inverse else 1j) * (angles[:, self.gates] @ self._exponent))
        for cols, shape in self.groups:
            view = rows.reshape(-1, m, *shape)
            view *= phase[:, cols].reshape(m, *[1, 2] * (len(shape) // 2), 1)
        return rows

    def terms(self, psi, lam):
        return (lam.real * psi.imag - lam.imag * psi.real) @ self._signs


class _Permutation:
    """CNOT gates: one index gather by the composed basis permutation; undone
    by its inverse."""

    kind = "permutation"
    deriv = ()

    def __init__(self, register: int, ops, run, n_gates: int):
        self.gates = tuple(run)
        self.qubits = tuple(q for i in run for q in ops[i][1])
        perm = index = np.arange(1 << register)
        for i in run:
            control, target = ops[i][1]
            perm = perm[index ^ ((index >> control & 1) << target)]
        self.perm, self.undo = perm, np.argsort(perm)

    def apply(self, rows, angles, inverse=False):
        return rows.take(self.undo if inverse else self.perm, axis=1)


_LAYER_KINDS = {"h": _Column, "rx": _Column, "ry": _Column,
                "rz": _Diagonal, "zz": _Diagonal, "cnot": _Permutation}
_CONJ_NEGATES = ("rx", "rz", "zz")  # conj(U(a)) = U(-a); RY, H and CNOT are real


def compile_circuit(n_qubits: int, gates, channel: NoiseChannel | None = None) -> tuple:
    """The layers that run_rows and z_and_pullback run for this gate list
    (doubled under a channel, see _compile), built once per (n_qubits, gate
    kinds and targets, channel kind) and shared by every caller: any angles
    and any number of rows reuse them. A register (2n qubits under a
    channel) beyond MAX_QUBITS is refused."""
    return _compile(n_qubits, tuple((g.kind, g.targets) for g in gates), _mixed(channel))


@functools.lru_cache(maxsize=64)
def _compile(n_qubits: int, ops: tuple, mixed: bool) -> tuple:
    # greedy, in gate order: a gate joins the last run if it is of the same
    # layer kind and, in a column or under a channel, shares no qubit with it.
    # A density row vec(rho) is a pure row of 2n qubits that conj(U) (x) U
    # maps, so under a channel gate len(ops) + i is gate i on the bra bits,
    # targets + n, and each layer runs its ket gates, then their copies
    register = 2 * n_qubits if mixed else n_qubits
    if not 1 <= register <= MAX_QUBITS:  # bounds the memory of layers and rows
        raise ValueError(f"simulated qubits must be in [1, {MAX_QUBITS}], got {register}: "
                         f"{'depolarizing noise' if mixed else 'the simulator'} caps n_qubits "
                         f"at {MAX_QUBITS // 2 if mixed else MAX_QUBITS}")
    bad = [q for _, targets in ops for q in targets if not 0 <= q < n_qubits]
    if bad:  # the layers do not check
        raise ValueError(f"gate target {bad[0]} out of range for {n_qubits} qubits")
    runs = []
    for i, (kind, targets) in enumerate(ops):
        layer = _LAYER_KINDS[kind]
        if runs and layer is _LAYER_KINDS[ops[runs[-1][0]][0]] and not (
                (layer is _Column or mixed)
                and {q for j in runs[-1] for q in ops[j][1]}.intersection(targets)):
            runs[-1].append(i)
        else:
            runs.append([i])
    n_gates = len(ops)
    if mixed:
        ops += tuple((kind, tuple(q + n_qubits for q in targets)) for kind, targets in ops)
        runs = [run + [i + n_gates for i in run] for run in runs]
    return tuple(_LAYER_KINDS[ops[run[0]][0]](register, ops, run, n_gates) for run in runs)


def _depolarize(rho: np.ndarray, n: int, qubits, p: float) -> None:
    # a layer's qubits below n, the ket bits (its conjugate gates act on the
    # bra bits): each density row viewed as (high, bra bit q, middle, ket bit
    # q, low), the channel mixes the diagonal pair by 2p/3 and shrinks the
    # off-diagonal pair by 1 - 4p/3
    for q in (q for q in qubits if q < n):
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
    return _run(n_qubits, gates, angles, channel)[2]


def _run(n: int, gates, angles, channel, kept: dict | None = None) -> tuple:
    # the forward of run_rows and of z_and_pullback: (layers, angle matrix,
    # final rows); kept, if given, gets a copy of the state each layer with
    # derivatives leaves (before its depolarizing), keyed by the layer's index
    gates = tuple(gates)
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != len(gates):
        raise ValueError(f"need an (M, {len(gates)}) angle matrix, got shape {angles.shape}")
    layers = compile_circuit(n, gates, channel)
    mixed = _mixed(channel)
    if mixed:  # the angle columns of the doubled program's conjugate gates
        negate = [g.kind in _CONJ_NEGATES for g in gates]
        angles = np.concatenate([angles, np.where(negate, -angles, angles)], axis=1)
    rows = np.zeros((len(angles), row_width(n, channel)), dtype=complex)
    rows[:, 0] = 1.0  # |0...0>
    for j, layer in enumerate(layers):
        rows = layer.apply(rows, angles)
        if kept is not None and layer.deriv:
            kept[j] = rows.copy()
        if mixed:  # a layer's gates share no qubit, so each kick can follow the layer
            _depolarize(rows, n, layer.qubits, channel.depolarizing_prob)
    return layers, angles, rows


def _readout(n_qubits: int, channel: NoiseChannel | None) -> np.ndarray:
    """(2^n, n) map of basis probabilities onto <Z_q>: +1 where qubit q's bit
    is 0, -1 where it is 1, times (1 - 2 * readout_flip_prob)."""
    bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    flip = 0.0 if channel is None else channel.readout_flip_prob
    return (1.0 - 2.0 * bits) * (1.0 - 2.0 * flip)


def _paired_z(probs: np.ndarray, channel: NoiseChannel | None) -> np.ndarray:
    """<Z_q> of (..., 2^n) basis probabilities as flip-paired sums: over the x
    whose bit q is 0, p[x] - p[~x] (~x flips every bit, so p[~x] is
    p[..., ::-1][x]), times 1 - 2 * readout_flip_prob. The same linear map as
    probs @ _readout, but a state fixed by the global flip reads exactly 0.0,
    whatever order its probabilities were summed in."""
    n = probs.shape[-1].bit_length() - 1
    return 0.5 * (probs - probs[..., ::-1]) @ _readout(n, channel)


def measure_rows_z(rows: np.ndarray, channel: NoiseChannel | None = None) -> np.ndarray:
    """(M, n) exact per-qubit <Z> of run_rows output: of the amplitudes, or
    of the density matrices' diagonal when depolarizing is active."""
    if _mixed(channel):
        n = (rows.shape[1].bit_length() - 1) // 2
        return _paired_z(rows[:, ::(1 << n) + 1].real, channel)
    return _paired_z(np.abs(rows) ** 2, channel)


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
    return _paired_z(np.abs(np.asarray(amplitudes)) ** 2, channel)


def z_and_pullback(n_qubits: int, gates, angles, channel: NoiseChannel | None = None):
    """(z, pullback) of the rows run_rows(n_qubits, gates, angles, channel)
    runs, from one forward: z their (M, n) <Z> as measure_rows_z reads it,
    pullback(d_z) the (M, len(gates)) d(sum_q d_z[q] <Z_q>)/d(angle of gate
    i) per row, 0 for H and CNOT, by one reverse sweep that carries only the
    costate of that observable back to the states the forward kept (Jones &
    Gacon 2020, arXiv:2009.02823), stopping at the first layer with
    derivatives. pullback leaves those states as they are, so it may rerun.
    """
    gates, kept = tuple(gates), {}
    layers, angles, rows = _run(n_qubits, gates, angles, channel, kept)
    mixed = _mixed(channel)
    first = min(kept, default=len(layers))

    def pullback(d_z) -> np.ndarray:
        if np.shape(d_z) != (len(angles), n_qubits):
            raise ValueError(f"need an ({len(angles)}, {n_qubits}) downstream gradient d_z, "
                             f"one row per angle row, got shape {np.shape(d_z)}")
        weights = d_z @ _readout(n_qubits, channel).T  # the diagonal of that observable O
        # a term is Im<lambda|G sigma>, G on the ket bits, with sigma the state
        # the layer leaves and lambda the costate carried back to it: O psi for
        # a pure row; for a density row O itself, as the loss is <lambda|rho>
        # and both are Hermitian. A layer's generators commute with its other
        # gates, so all its terms come from the pair at its end. The channel is
        # self-adjoint, so the costate is depolarized as the state was
        if mixed:
            costate = np.zeros_like(rows)
            costate[:, ::(1 << n_qubits) + 1] = weights
        else:
            costate = weights * rows
        out = np.zeros((len(angles), len(gates)))
        for j in reversed(range(first, len(layers))):
            layer = layers[j]
            if mixed:
                _depolarize(costate, n_qubits, layer.qubits, channel.depolarizing_prob)
            if j in kept:
                out[:, layer.deriv] = layer.terms(kept[j], costate)
            if j > first:  # no undo for the first layer with derivatives or before it
                costate = layer.apply(costate, angles, inverse=True)
        return out

    return measure_rows_z(rows, channel), pullback
