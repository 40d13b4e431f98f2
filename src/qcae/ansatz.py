"""Parameterized circuit templates: QAOA layers and the hardware-efficient
comparison families.

A template is an immutable program of GateOps in which each rotation refers
to a parameter slot. gate_angles turns parameter vectors into one angle per
gate, the rows that statevector.run_rows executes; bind turns one vector
into a bound GateOp list. Families:

  ours  p alternations of a ring ZZ cost layer and an RX mixer layer on a
        uniform superposition; parameter vector [g_1..g_p, b_1..b_p], 2p
        slots. Gate angles absorb a factor 2 so that ZZ(2g) and RX(2b)
        realize exp(-i g Z_i Z_{i+1}) and exp(-i b X_j). One g (or b) feeds
        every edge (or qubit) of its layer.
  a     per layer: RY on each qubit, then a CNOT chain q0->q1->...  (p*n slots)
  b     per layer: RY column, RZ column, CNOT chain                 (2*p*n slots)
  c     per layer: RY column, CNOT ring (chain plus q_{n-1}->q0),
        then RZ column                                              (2*p*n slots)

Slot indices follow gate order within each family, so identical inputs
always produce identical gate lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import pi

import numpy as np

from .statevector import ROTATION_KINDS, GateOp

FAMILIES = ("a", "b", "c", "ours")


@dataclass(frozen=True)
class CircuitTemplate:
    n_qubits: int
    p: int
    family: str
    gates: tuple[GateOp, ...]

    def __post_init__(self):
        slots = sorted({g.slot for g in self.gates if g.slot is not None})
        if slots != list(range(len(slots))):
            raise ValueError(f"template slots must be exactly 0..k-1, got {slots}")

    @property
    def slot_count(self) -> int:
        return len({g.slot for g in self.gates if g.slot is not None})

    def bound_gate_indices(self) -> list[int]:
        """Positions of parameterized gates, in program order."""
        return [i for i, g in enumerate(self.gates) if g.slot is not None]

    def gate_angles(self, params) -> np.ndarray:
        """Angle of every gate: scale * params[slot] if bound, else the fixed
        angle (0 for H/CNOT). An (N, slot_count) batch gives one row each."""
        params = np.asarray(params, dtype=float)
        if params.ndim not in (1, 2) or params.shape[-1] != self.slot_count:
            raise ValueError(
                f"family {self.family!r} (n={self.n_qubits}, p={self.p}) takes "
                f"{self.slot_count} parameters, got shape {params.shape}"
            )
        angles = np.zeros(params.shape[:-1] + (len(self.gates),))
        for i, g in enumerate(self.gates):
            if g.slot is not None:
                angles[..., i] = g.scale * params[..., g.slot]
            elif g.angle is not None:
                angles[..., i] = g.angle
        return angles

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


def _chain_pairs(n_qubits: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n_qubits - 1)]


def qaoa_template(n_qubits: int, p: int) -> CircuitTemplate:
    """H wall, then p rounds of ZZ(2g_k) on ring edges and RX(2b_k) on all qubits."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
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
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if family == "ours":
        return qaoa_template(n_qubits, p)

    gates: list[GateOp] = []
    slot_ids = count()

    def rotation_column(kind: str) -> None:
        for q in range(n_qubits):
            gates.append(GateOp(kind, (q,), slot=next(slot_ids)))

    for _ in range(p):
        if family == "a":
            rotation_column("ry")
            for c, t in _chain_pairs(n_qubits):
                gates.append(GateOp("cnot", (c, t)))
        elif family == "b":
            rotation_column("ry")
            rotation_column("rz")
            for c, t in _chain_pairs(n_qubits):
                gates.append(GateOp("cnot", (c, t)))
        else:  # c
            rotation_column("ry")
            entangler = _chain_pairs(n_qubits)
            if n_qubits > 1:
                entangler = entangler + [(n_qubits - 1, 0)]
            for c, t in entangler:
                gates.append(GateOp("cnot", (c, t)))
            rotation_column("rz")
    return CircuitTemplate(n_qubits, p, family, tuple(gates))


def normalize_to_angle(raw, lo: float, hi: float) -> np.ndarray:
    """Affine map of [lo, hi] onto [0, 2*pi], clamped outside the range."""
    if hi <= lo:
        raise ValueError(f"need hi > lo, got lo={lo}, hi={hi}")
    raw = np.asarray(raw, dtype=float)
    return np.clip(2.0 * pi * (raw - lo) / (hi - lo), 0.0, 2.0 * pi)
