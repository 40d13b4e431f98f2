"""Tour of the circuit templates: an RY column of angles, the QAOA family,
and the hardware-efficient comparison circuits, including the QAOA symmetry
that makes its per-qubit Z readout constant.

Run with: python3 demos/02_circuit_templates.py
"""
import numpy as np

from qcae import GateOp, family_template, measure_rows_z, qaoa_template, run_rows

print("== values as RY angles ==")
raw = np.array([0.1, 0.6, 0.9])
angles = 2 * np.pi * raw  # [0, 1] onto [0, 2*pi]
print("raw values   :", raw)
print("as angles    :", np.round(angles, 3))
column = [GateOp("ry", (q,), slot=q) for q in range(3)]
print("per-qubit <Z>:", np.round(measure_rows_z(run_rows(3, column, angles[None]))[0], 4))

print("\n== template families and their parameter budgets ==")
for family in ("a", "b", "c", "ours"):
    template = family_template(family, 4, 2)
    print(f"family {family!r}: {template.slot_count:2d} slots, "
          f"{len(template.gates):2d} gates for n=4, p=2")

print("\n== the QAOA layer structure ==")
template = qaoa_template(2, 1)
# gate_angles turns [gamma, beta] into one angle per gate (0 for H)
for g, a in zip(template.gates, template.gate_angles([0.4, 0.3])):
    angle = "" if g.slot is None else f" angle={a:.2f}"
    print(f"  {g.kind:>4} on {g.targets}{angle}")
print("(H wall, then ZZ(2*gamma) on the ring edge, then RX(2*beta) mixers)")

print("\n== a property worth knowing ==")
print("The ring cost and X mixer both commute with flipping every qubit,")
print("and that flip negates each Z. So the per-qubit readout of the QAOA")
print("family is exactly zero no matter the parameters:")
rng = np.random.default_rng(0)
template = family_template("ours", 4, 3)
params = rng.uniform(0, 2 * np.pi, (20, template.slot_count))  # one row per draw
worst = float(np.max(np.abs(measure_rows_z(run_rows(4, template.gates,
                                                    template.gate_angles(params))))))
print(f"  max |<Z>| over 20 random parameter draws: {worst}")

print("\nFamily c, by contrast, moves its readout with the parameters:")
template = family_template("c", 4, 2)
for _ in range(3):
    params = rng.uniform(0, 2 * np.pi, template.slot_count)
    z = measure_rows_z(run_rows(4, template.gates, template.gate_angles(params)[None]))[0]
    print("  <Z> =", np.round(z, 3))
