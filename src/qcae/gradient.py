"""Parameter-shift gradients for bound circuit templates.

Every parameterized gate here is generated by an operator squaring to the
identity (X, Y, Z, or Z(x)Z), so for a gate angle phi the exact two-point
rule holds: df/dphi = (f(phi + pi/2) - f(phi - pi/2)) / 2, where each f is a
full circuit evaluation. A template parameter may feed several gates (the
QAOA layers tie one gamma to every ring edge and one beta to every qubit);
the gradient with respect to that parameter is then the chain-rule sum of
per-gate shift terms, each weighted by the slot's angle scale. Shifts never
alter circuit structure and use no ancilla qubits, so the forward pass and
every shift are angle rows of one gate program, run together by
statevector.run_rows. The depolarizing channel depends on no angle, and
run_rows simulates it exactly, so the rule stays exact under noise.

The engine is loss-agnostic: it emits a jacobian of per-qubit Z expectations
against parameters, and chain_loss_gradient contracts it with whatever
downstream gradient the classical side produced (MSE for the denoiser).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .ansatz import CircuitTemplate
from .statevector import NoiseChannel, measure_rows_z, run_rows


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

