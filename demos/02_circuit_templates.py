"""Tour of the circuit templates: an RY column of angles, the QAOA family,
and the hardware-efficient comparison circuits, including the QAOA symmetry
that makes its per-qubit Z readout constant.

Run with: python3 demos/02_circuit_templates.py
"""
import numpy as np

from qcae import (
    family_template,
    measure_all_z,
    qaoa_template,
    run_circuit,
    ry,
)

print("== values as RY angles ==")
raw = np.array([0.1, 0.6, 0.9])
angles = 2 * np.pi * raw  # [0, 1] onto [0, 2*pi]
print("raw values   :", raw)
print("as angles    :", np.round(angles, 3))
state = run_circuit(3, [ry(q, a) for q, a in enumerate(angles)])
print("per-qubit <Z>:", np.round(measure_all_z(state), 4))

print("\n== template families and their parameter budgets ==")
for family in ("a", "b", "c", "ours"):
    template = family_template(family, 4, 2)
    print(f"family {family!r}: {template.slot_count:2d} slots, "
          f"{len(template.gates):2d} gates for n=4, p=2")

print("\n== the QAOA layer structure ==")
gates = qaoa_template(2, 1).bind([0.4, 0.3])  # [gamma, beta]
for g in gates:
    angle = "" if g.angle is None else f" angle={g.angle:.2f}"
    print(f"  {g.kind:>4} on {g.targets}{angle}")
print("(H wall, then ZZ(2*gamma) on the ring edge, then RX(2*beta) mixers)")

print("\n== a property worth knowing ==")
print("The ring cost and X mixer both commute with flipping every qubit,")
print("and that flip negates each Z. So the per-qubit readout of the QAOA")
print("family is exactly zero no matter the parameters:")
rng = np.random.default_rng(0)
template = family_template("ours", 4, 3)
worst = max(
    float(np.max(np.abs(measure_all_z(run_circuit(4, template.bind(
        rng.uniform(0, 2 * np.pi, template.slot_count)))))))
    for _ in range(20)
)
print(f"  max |<Z>| over 20 random parameter draws: {worst}")

print("\nFamily c, by contrast, moves its readout with the parameters:")
template = family_template("c", 4, 2)
for _ in range(3):
    params = rng.uniform(0, 2 * np.pi, template.slot_count)
    z = measure_all_z(run_circuit(4, template.bind(params)))
    print("  <Z> =", np.round(z, 3))
