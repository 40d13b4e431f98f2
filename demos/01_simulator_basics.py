"""Walk through the statevector simulator: states, gates, measurement, noise.

A circuit is a list of GateOps, GateOp(kind, targets) for H and CNOT and
GateOp(kind, targets, slot=i) for a rotation whose angle is column i of the
angle matrix. run_rows runs the list once per matrix row.

Run with: python3 demos/01_simulator_basics.py
"""
import numpy as np

from qcae import GateOp, NoiseChannel, measure_rows_z, run_rows

print("== qubit registers ==")
print("fresh 2-qubit register:", np.round(run_rows(2, [], np.zeros((1, 0)))[0], 3))

print("\n== building a Bell pair ==")
bell_gates = [GateOp("h", (0,)), GateOp("cnot", (0, 1))]
bell = run_rows(2, bell_gates, np.zeros((1, 2)))
print("after H(0), CNOT(0->1):", np.round(bell[0], 4))
print("per-qubit <Z> (both maximally mixed):", measure_rows_z(bell)[0])
print("norm stays 1 to rounding:", np.sum(np.abs(bell) ** 2))

print("\n== rotations and expectations ==")
theta = 0.7
tilt = [GateOp("ry", (0,), slot=0)]
tilted = run_rows(1, tilt, [[theta]])
print(f"RY({theta})|0> gives <Z> = cos({theta}) = {measure_rows_z(tilted)[0, 0]:.6f}")

print("\n== one gate sequence, many angle rows ==")
angles = np.array([[0.0], [np.pi / 2], [np.pi]])
print("RY(0), RY(pi/2), RY(pi) as three rows of one run_rows call, <Z>:",
      np.round(measure_rows_z(run_rows(1, tilt, angles))[:, 0], 4))

print("\n== the ZZ interaction ==")
amps = run_rows(2, [GateOp("h", (0,)), GateOp("h", (1,)), GateOp("zz", (0, 1), slot=0)],
                [[0.0, 0.0, 1.2]])
print("ZZ entangles a product state; amplitudes now carry phases:")
print(np.round(amps[0], 4))

print("\n== noise channel ==")
channel = NoiseChannel(depolarizing_prob=0.2, readout_flip_prob=0.1)
gates = [GateOp("ry", (0,), slot=0), GateOp("cnot", (0, 1))]
rows = run_rows(2, gates, [[theta, 0.0]], channel)
print("noiseless <Z>:        ", np.round(measure_rows_z(run_rows(2, gates, [[theta, 0.0]]))[0], 4))
print("exact noisy <Z>:      ", np.round(measure_rows_z(rows, channel)[0], 4))
print("noisy rows hold the 2-qubit density matrix as a 4-qubit vector:", rows.shape)
print(f"readout flips shrink expectations: {measure_rows_z(tilted)[0, 0]:.4f} -> "
      f"{measure_rows_z(tilted, NoiseChannel(readout_flip_prob=0.1))[0, 0]:.4f} "
      "(factor 1 - 2*0.1)")
