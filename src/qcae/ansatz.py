"""Parameterized circuit templates: QAOA layers and the hardware-efficient
comparison families.

A template is an immutable program of GateOps in which each rotation refers
to a parameter slot. Its slot_map turns parameter vectors into one angle per
gate (gate_angles, the rows that statevector.run_rows executes) and per-gate
derivatives into parameter gradients; bind turns one vector into a bound
GateOp list. Families:

  ours  p alternations of a ring ZZ cost layer and an RX mixer layer on a
        uniform superposition; parameter vector [g_1..g_p, b_1..b_p], 2p
        slots. Gate angles absorb a factor 2 so that ZZ(2g) and RX(2b)
        realize exp(-i g Z_i Z_{i+1}) and exp(-i b X_j). One g (or b) feeds
        every edge (or qubit) of its layer.
  a     per layer: RY on each qubit, then a CNOT chain q0->q1->...  (p*n slots)
  b     per layer: RY column, RZ column, CNOT chain                 (2*p*n slots)
  c     per layer: RY column, CNOT ring (chain plus q_{n-1}->q0),
        then RZ column                                              (2*p*n slots)
a, b and c are the rows of _FAMILY_LAYERS, one layer's steps each: a rotation
column (one new slot per qubit, in qubit order), a CNOT chain or a CNOT ring.

Slot indices follow gate order, so identical inputs give identical gate lists;
model.QuantumLatent feeds a template the angles pi * (1 + tanh).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevector import ROTATION_KINDS, GateOp

_FAMILY_LAYERS = {"a": ("ry", "chain"), "b": ("ry", "rz", "chain"), "c": ("ry", "ring", "rz")}
FAMILIES = (*_FAMILY_LAYERS, "ours")


@dataclass(frozen=True)
class CircuitTemplate:
    """Gates plus slot_map, the read-only (gates, slot_count) matrix with each
    slotted gate's scale at [gate, slot]: it maps parameters to gate angles
    (gate_angles) and per-gate derivatives back to parameters."""

    n_qubits: int
    p: int
    family: str
    gates: tuple[GateOp, ...]
    slot_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        slots = sorted({g.slot for g in self.gates if g.slot is not None})
        if slots != list(range(len(slots))):
            raise ValueError(f"template slots must be exactly 0..k-1, got {slots}")
        slot_map = np.zeros((len(self.gates), len(slots)))
        for i, g in enumerate(self.gates):
            if g.slot is not None:
                slot_map[i, g.slot] = g.scale
        slot_map.setflags(write=False)
        object.__setattr__(self, "slot_map", slot_map)
        object.__setattr__(self, "_fixed", np.array([g.angle or 0.0 for g in self.gates]))

    @property
    def slot_count(self) -> int:
        return self.slot_map.shape[1]

    def gate_angles(self, params) -> np.ndarray:
        """Angle of every gate, params @ slot_map.T plus the fixed angles (0
        for H/CNOT). An (N, slot_count) batch gives one row each."""
        params = np.asarray(params, dtype=float)
        if params.ndim not in (1, 2) or params.shape[-1] != self.slot_count:
            raise ValueError(
                f"family {self.family!r} (n={self.n_qubits}, p={self.p}) takes "
                f"{self.slot_count} parameters, got shape {params.shape}"
            )
        return params @ self.slot_map.T + self._fixed

    def bind(self, params) -> list[GateOp]:
        """Fill every slot and return the bound gate list: each rotation
        carries its angle and no slot."""
        angles = self.gate_angles(params)
        if angles.ndim != 1:
            raise ValueError(f"bind takes one parameter vector, got shape {np.shape(params)}")
        return [GateOp(g.kind, g.targets, float(a)) if g.kind in ROTATION_KINDS else g
                for g, a in zip(self.gates, angles)]


def ring_edges(n_qubits: int) -> list[tuple[int, int]]:
    """Nearest-neighbour ring; a 2-qubit ring is the single edge (0, 1)."""
    if n_qubits < 2:
        return []
    if n_qubits == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n_qubits) for i in range(n_qubits)]


def qaoa_template(n_qubits: int, p: int) -> CircuitTemplate:
    """H wall, then p rounds of ZZ(2g_k) on ring edges and RX(2b_k) on all qubits."""
    if n_qubits < 2:
        raise ValueError(f"QAOA needs n_qubits >= 2: a {n_qubits}-qubit ring has no edge "
                         "to carry the gamma slots")
    gates = [GateOp("h", (q,)) for q in range(n_qubits)]
    for k in range(p):
        for a, b in ring_edges(n_qubits):
            gates.append(GateOp("zz", (a, b), slot=k, scale=2.0))
        for q in range(n_qubits):
            gates.append(GateOp("rx", (q,), slot=p + k, scale=2.0))
    return CircuitTemplate(n_qubits, p, "ours", tuple(gates))


def family_template(family: str, n_qubits: int, p: int) -> CircuitTemplate:
    """Build one of the comparison templates (or the QAOA one for 'ours')."""
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown circuit family {family!r}; choose from {FAMILIES}")
    if family == "ours":
        return qaoa_template(n_qubits, p)

    gates: list[GateOp] = []
    slots = 0
    for step in _FAMILY_LAYERS[family] * p:
        if step in ROTATION_KINDS:
            gates += [GateOp(step, (q,), slot=slots + q) for q in range(n_qubits)]
            slots += n_qubits
        else:
            pairs = [(q, q + 1) for q in range(n_qubits - 1)]
            if step == "ring" and n_qubits > 1:
                pairs.append((n_qubits - 1, 0))
            gates += [GateOp("cnot", pair) for pair in pairs]
    return CircuitTemplate(n_qubits, p, family, tuple(gates))
