"""Circuit gradients of bound templates: the parameter-shift rule, and the
adjoint sweep that training uses.

Every parameterized gate is exp(-i angle/2 G) for a generator G squaring to
the identity (X, Y, Z, or Z(x)Z). A template parameter may feed several
gates (QAOA ties one gamma to every ring edge, one beta to every qubit); its
gradient is then the sum of per-gate terms, each times the slot's scale.

psr_gradient is the paper's parameter-shift rule, the one hardware could
run: df/dphi = (f(phi + pi/2) - f(phi - pi/2)) / 2 for each gate angle phi.
The forward pass and every shift are angle rows of one gate program, run by
one statevector.run_rows call, and give the full jacobian of per-qubit <Z>;
chain_loss_gradient contracts it with the classical side's gradient.

adjoint_gradient gives that contraction directly, as a simulator can: one
reverse sweep over the gates with the costate of sum_q downstream[q] Z_q
(Jones & Gacon 2020, arXiv:2009.02823), O(gates) work against the shift
rule's O(gates^2). The depolarizing channel depends on no angle and run_rows
simulates it exactly, so both are exact under noise and agree to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .ansatz import CircuitTemplate
from .statevector import (NoiseChannel, _apply_1q, _depolarize, _evolve, _mixed, _zero_rows,
                          measure_rows_z, run_rows)

# the generator G of each rotation kind; zz applies Z to both of its targets
_X, _Y, _Z = (np.array(m, dtype=complex)
              for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
_GENERATORS = {"rx": _X, "ry": _Y, "rz": _Z, "zz": _Z}


@dataclass(frozen=True)
class QuantumJacobian:
    """d<Z_row>/d theta_col, plus the unshifted forward expectations.

    For a batch of N parameter vectors, entries is (N, n, slot_count) and
    forward (N, n). n_executions counts circuit rows run: per vector two per
    parameterized gate occurrence plus one forward pass (equal to
    2 * slot_count + 1 whenever slots bind one gate each, as in families
    a/b/c).
    """

    entries: np.ndarray
    forward: np.ndarray
    n_executions: int


def psr_gradient(
    template: CircuitTemplate,
    params,
    channel: NoiseChannel | None = None,
) -> QuantumJacobian:
    """Jacobian of all per-qubit <Z> against the template's parameters.

    params is one vector or an (N, slot_count) batch. Each vector becomes
    1 + 2 * (bound gates) angle rows of the same gate program: row 0 is the
    forward pass, rows 1 + 2k and 2 + 2k shift the k-th bound gate by +pi/2
    and -pi/2. All rows of the batch run in one run_rows call.
    """
    base = template.gate_angles(params)
    batch = base.reshape(-1, base.shape[-1])
    bound = np.array(template.bound_gate_indices(), dtype=int)
    n_rows = 1 + 2 * len(bound)
    rows = np.repeat(batch[:, None, :], n_rows, axis=1)
    shifted = np.arange(len(bound))
    rows[:, 1 + 2 * shifted, bound] += pi / 2
    rows[:, 2 + 2 * shifted, bound] -= pi / 2
    n = template.n_qubits
    out = run_rows(n, template.gates, rows.reshape(-1, batch.shape[1]), channel)
    z = measure_rows_z(out, channel).reshape(len(batch), n_rows, n)
    entries = np.zeros((len(batch), n, template.slot_count))
    for k, gi in enumerate(bound):
        gate = template.gates[gi]
        entries[:, :, gate.slot] += gate.scale * (z[:, 1 + 2 * k] - z[:, 2 + 2 * k]) / 2.0
    lead = base.shape[:-1]
    return QuantumJacobian(entries.reshape(lead + entries.shape[1:]),
                           z[:, 0].reshape(lead + (n,)), len(batch) * n_rows)


def chain_loss_gradient(jacobian: QuantumJacobian, downstream) -> np.ndarray:
    """Loss gradient w.r.t. quantum parameters: downstream^T . jacobian.

    A batched (N, n, slot_count) jacobian takes (N, n) downstream gradients
    and returns one row per sample.
    """
    entries = jacobian.entries
    downstream = np.asarray(downstream, dtype=float)
    if entries.ndim == 2:
        downstream = downstream.ravel()
    if downstream.shape != entries.shape[:-1]:
        raise ValueError(
            f"downstream gradient of shape {downstream.shape} does not fit a jacobian "
            f"of shape {entries.shape} ({entries.shape[-2]} measured qubits)"
        )
    return (downstream[..., None, :] @ entries)[..., 0, :]


def _generator(rows: np.ndarray, kind: str, targets, transpose: bool = False) -> np.ndarray:
    """G (or G^T, which differs only for RY: Y^T = -Y) applied to a copy of rows."""
    g = _GENERATORS[kind].T if transpose else _GENERATORS[kind]
    out = rows.copy()
    for q in targets:
        _apply_1q(out, q, g)
    return out


def adjoint_gradient(template: CircuitTemplate, params, downstream,
                     channel: NoiseChannel | None = None, rows=None) -> np.ndarray:
    """chain_loss_gradient(psr_gradient(template, params, channel), downstream)
    by one reverse sweep over the gates, with no jacobian built.

    params is one vector or an (N, slot_count) batch and downstream one (n,)
    gradient per vector. rows, if the caller kept them, are run_rows's output
    for params: a pure sweep starts from them and never writes into them. A
    noisy sweep re-runs the forward, since depolarizing cannot be undone.
    """
    angles = template.gate_angles(params)
    batch = angles.reshape(-1, angles.shape[-1])
    n = template.n_qubits
    downstream = np.asarray(downstream, dtype=float)
    if downstream.shape != angles.shape[:-1] + (n,):
        raise ValueError(f"downstream gradient of shape {downstream.shape} does not fit "
                         f"{len(batch)} parameter vector(s) on {n} measured qubits")
    # diagonal of the observable O = sum_q downstream[q] (1 - 2 readout_flip) Z_q
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    weights = downstream.reshape(-1, n) @ (1.0 - 2.0 * bits)
    if channel is not None:
        weights *= 1.0 - 2.0 * channel.readout_flip_prob
    grad = np.zeros((len(batch), template.slot_count))
    if _mixed(channel):
        _density_sweep(template, batch, weights, channel.depolarizing_prob, grad)
    else:
        _pure_sweep(template, batch, weights, rows, grad)
    return grad.reshape(angles.shape[:-1] + (template.slot_count,))


def _pure_sweep(template, batch, weights, rows, grad) -> None:
    # d<psi|O|psi>/d angle is Im<lambda|G psi>, with psi the state after the
    # gate and lambda = O psi carried back to it; psi and lambda share one array
    n, m = template.n_qubits, len(batch)
    if rows is None:
        rows = run_rows(n, template.gates, batch)
    state = np.concatenate([rows, weights * rows])
    undo = -np.concatenate([batch, batch])
    for i in reversed(range(len(template.gates))):
        gate = template.gates[i]
        if gate.slot is not None:
            g_psi = _generator(state[:m], gate.kind, gate.targets)
            grad[:, gate.slot] += gate.scale * np.einsum("ij,ij->i", state[m:].conj(), g_psi).imag
        _evolve(state, n, gate, undo[:, i])


def _density_sweep(template, batch, weights, p, grad) -> None:
    # the loss is <lambda|rho>; a gate's unitary moves the state sigma it
    # leaves by (-i/2)(G sigma - sigma G) per unit angle, which is G on the
    # ket bits and G^T on the bra bits, so the term is
    # (1/2) Im<lambda|G_ket sigma - G^T_bra sigma> with sigma kept from a
    # forward re-run, after the unitary and before the depolarizing
    n = template.n_qubits
    rho = _zero_rows(len(batch), 2 * n)
    sigmas = {}
    for i, gate in enumerate(template.gates):
        _evolve(rho, n, gate, batch[:, i])
        if gate.slot is not None:
            sigmas[i] = rho.copy()
        for q in gate.targets:
            _depolarize(rho, n, q, p)
    costate = np.zeros_like(rho)
    costate[:, ::(1 << n) + 1] = weights
    for i in reversed(range(len(template.gates))):
        gate = template.gates[i]
        for q in gate.targets:  # the channel is self-adjoint
            _depolarize(costate, n, q, p)
        if gate.slot is not None:
            sigma = sigmas.pop(i)
            d_sigma = (_generator(sigma, gate.kind, gate.targets)
                       - _generator(sigma, gate.kind, [q + n for q in gate.targets], True))
            grad[:, gate.slot] += (0.5 * gate.scale
                                   * np.einsum("ij,ij->i", costate.conj(), d_sigma).imag)
        _evolve(costate, n, gate, -batch[:, i])
