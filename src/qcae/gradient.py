"""The paper's parameter-shift rule, the circuit gradient hardware could run.

Every parameterized gate is exp(-i angle/2 G) with G^2 = 1, which makes the
rule exact: df/dphi = (f(phi + pi/2) - f(phi - pi/2)) / 2 for each gate
angle phi. psr_gradient runs the forward pass and every shift as angle rows
of one gate program (statevector.run_rows, a block of rows at a time) and
gives the full jacobian of per-qubit <Z>; its per-gate rows times
template.slot_map, which holds each gate's scale at its slot, sum the terms
of gates sharing a parameter (QAOA ties one gamma to every ring edge, one
beta to every qubit). chain_loss_gradient contracts the jacobian with the
classical side's gradient.

Training takes that contraction from one reverse sweep instead (the pullback
statevector.z_and_pullback returns, times slot_map, in model.QuantumLatent):
O(gates) work against the shift rule's O(gates^2). Depolarizing depends on
no angle and run_rows simulates it exactly, so both are exact under noise
and agree to rounding; this module is the reference the sweep is tested
against.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .ansatz import CircuitTemplate
from .statevector import NoiseChannel, measure_rows_z, row_width, run_rows

PSR_BLOCK_ENTRIES = 1 << 15  # row entries per run_rows call of psr_gradient (512 KB)


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
    and -pi/2. The rows run through run_rows in blocks of at most
    PSR_BLOCK_ENTRIES row entries (one row if a row is larger), so memory
    stays flat in the batch size even for (M, 4^n) density rows.
    """
    base = template.gate_angles(params)
    batch = base.reshape(-1, base.shape[-1])
    bound = np.flatnonzero(template.slot_map.any(axis=1))
    n_rows = 1 + 2 * len(bound)
    shifts = np.kron(np.eye(batch.shape[1])[bound], [[pi / 2], [-pi / 2]])
    rows = batch[:, None, :] + np.vstack([np.zeros(batch.shape[1]), shifts])
    rows = rows.reshape(-1, batch.shape[1])
    n = template.n_qubits
    step = max(1, PSR_BLOCK_ENTRIES // row_width(n, channel))
    z = np.concatenate([measure_rows_z(run_rows(n, template.gates, rows[lo:lo + step], channel),
                                       channel) for lo in range(0, len(rows), step)])
    z = z.reshape(len(batch), n_rows, n)
    per_gate = np.zeros((len(batch), n, len(template.gates)))
    per_gate[:, :, bound] = np.swapaxes(z[:, 1::2] - z[:, 2::2], 1, 2) / 2.0
    entries = per_gate @ template.slot_map
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

