"""Walk through the statevector simulator: states, gates, measurement, noise.

Run with: python3 demos/01_simulator_basics.py
"""
import numpy as np

from qcae import (
    NoiseChannel,
    cnot,
    h,
    measure_all_z,
    measure_rows_z,
    run_circuit,
    run_rows,
    ry,
    zz,
)

print("== qubit registers ==")
print("fresh 2-qubit register:", np.round(run_circuit(2, []), 3))

print("\n== building a Bell pair ==")
bell = run_circuit(2, [h(0), cnot(0, 1)])
print("after H(0), CNOT(0->1):", np.round(bell, 4))
print("per-qubit <Z> (both maximally mixed):", measure_all_z(bell))
print("norm stays 1 to rounding:", np.sum(np.abs(bell) ** 2))

print("\n== rotations and expectations ==")
theta = 0.7
tilted = run_circuit(1, [ry(0, theta)])
print(f"RY({theta})|0> gives <Z> = cos({theta}) = {measure_all_z(tilted)[0]:.6f}")

print("\n== one gate sequence, many angle rows ==")
angles = np.array([[0.0], [np.pi / 2], [np.pi]])
print("RY(0), RY(pi/2), RY(pi) as three rows of one run_rows call, <Z>:",
      np.round(measure_rows_z(run_rows(1, [ry(0, 0.0)], angles))[:, 0], 4))

print("\n== the ZZ interaction ==")
amps = run_circuit(2, [h(0), h(1), zz(0, 1, 1.2)])
print("ZZ entangles a product state; amplitudes now carry phases:")
print(np.round(amps, 4))

print("\n== noise channel ==")
channel = NoiseChannel(depolarizing_prob=0.2, readout_flip_prob=0.1)
gates = [ry(0, theta), cnot(0, 1)]
rows = run_rows(2, gates, [[theta, 0.0]], channel)
print("noiseless <Z>:        ", np.round(measure_all_z(run_circuit(2, gates)), 4))
print("exact noisy <Z>:      ", np.round(measure_rows_z(rows, channel)[0], 4))
print("noisy rows hold the 2-qubit density matrix as a 4-qubit vector:", rows.shape)
print(f"readout flips shrink expectations: {measure_all_z(tilted)[0]:.4f} -> "
      f"{measure_all_z(tilted, channel)[0]:.4f} (factor 1 - 2*0.1)")
