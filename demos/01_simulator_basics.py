"""Walk through the statevector simulator: states, gates, measurement, noise.

Run with: python3 demos/01_simulator_basics.py
"""
import numpy as np

from qcae import (
    NoiseChannel,
    apply_gate,
    cnot,
    expect_z,
    h,
    init_zero,
    measure_all_z,
    measure_rows_z,
    run_circuit,
    run_rows,
    ry,
    zz,
)

print("== qubit registers ==")
state = init_zero(2)
print("fresh 2-qubit register:", np.round(state.amplitudes, 3))

print("\n== building a Bell pair ==")
apply_gate(state, h(0))
apply_gate(state, cnot(0, 1))
print("after H(0), CNOT(0->1):", np.round(state.amplitudes, 4))
print("per-qubit <Z> (both maximally mixed):", measure_all_z(state))
print("norm stays exactly 1:", state.norm())

print("\n== rotations and expectations ==")
theta = 0.7
state = apply_gate(init_zero(1), ry(0, theta))
print(f"RY({theta})|0> gives <Z> = cos({theta}) = {expect_z(state, 0):.6f}")

print("\n== the ZZ interaction ==")
state = run_circuit(2, [h(0), h(1), zz(0, 1, 1.2)])
print("ZZ entangles a product state; amplitudes now carry phases:")
print(np.round(state.amplitudes, 4))

print("\n== noise channel ==")
channel = NoiseChannel(depolarizing_prob=0.2, readout_flip_prob=0.1)
gates = [ry(0, theta), cnot(0, 1)]
rows = run_rows(2, gates, [[theta, 0.0]], channel)
print("noiseless <Z>:        ", np.round(measure_all_z(run_circuit(2, gates)), 4))
print("exact noisy <Z>:      ", np.round(measure_rows_z(rows, channel)[0], 4))
print("noisy rows hold the 2-qubit density matrix as a 4-qubit vector:", rows.shape)
tilted = apply_gate(init_zero(1), ry(0, theta))
print(f"readout flips shrink expectations: {expect_z(tilted, 0):.4f} -> "
      f"{expect_z(tilted, 0, channel):.4f} (factor 1 - 2*0.1)")
