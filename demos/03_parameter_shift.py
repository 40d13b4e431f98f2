"""Parameter-shift gradients: analytic check, finite-difference agreement,
shared parameters, and the chain rule into a classical loss.

Run with: python3 demos/03_parameter_shift.py
"""
import numpy as np

from qcae import family_template, measure_rows_z, mse_loss, psr_gradient, run_rows

print("== one rotation, known answer ==")
template = family_template("a", 1, 1)  # a single RY on one qubit
theta = 0.7
jac = psr_gradient(template, [theta])
print(f"d<Z>/dtheta at {theta}: PSR {jac.entries[0, 0]:+.6f}, "
      f"analytic -sin(theta) {-np.sin(theta):+.6f}")
print(f"circuit executions used: {jac.n_executions} (two per shift + forward)")


def forward(template, params):
    rows = run_rows(template.n_qubits, template.gates, template.gate_angles(params)[None])
    return measure_rows_z(rows)[0]


print("\n== full jacobians vs finite differences ==")
rng = np.random.default_rng(1)
for family in ("a", "b", "c", "ours"):
    template = family_template(family, 3, 2)
    params = rng.uniform(0, 2 * np.pi, template.slot_count)
    jac = psr_gradient(template, params)
    h = 1e-5
    fd = np.zeros_like(jac.entries)
    for i in range(template.slot_count):
        plus, minus = params.copy(), params.copy()
        plus[i] += h
        minus[i] -= h
        fd[:, i] = (forward(template, plus) - forward(template, minus)) / (2 * h)
    print(f"family {family!r}: max |PSR - FD| = {np.max(np.abs(jac.entries - fd)):.2e} "
          f"({jac.n_executions} executions for {template.slot_count} parameters)")
print("(the QAOA family ties one parameter to several gates, so its gradient")
print(" sums a shift pair per gate occurrence - more executions, still exact)")

print("\n== chaining into a classical loss ==")
template = family_template("b", 2, 1)
params = rng.uniform(0, 2 * np.pi, template.slot_count)
jac = psr_gradient(template, params)
target = np.array([1.0, -1.0])
loss, downstream = mse_loss(jac.forward, target)
full_grad = downstream @ jac.entries  # d loss/d<Z> times the jacobian d<Z>/d params
print(f"forward <Z> vector: {np.round(jac.forward, 4)} (target {target})")
print(f"mean squared error: {loss:.4f}")
print(f"loss gradient w.r.t. circuit parameters: {np.round(full_grad, 5)}")
