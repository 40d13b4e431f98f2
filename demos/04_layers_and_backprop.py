"""The classical toolkit: layer shapes through the hybrid model's one layer
list, a hand-rolled gradient check, and Adam fitting a tiny problem.

Run with: python3 demos/04_layers_and_backprop.py
"""
import numpy as np

from qcae import Adam, DenoisingAutoencoder, ModelSpec, mse_loss
from qcae.nn import Conv2d

rng = np.random.default_rng(0)

print("== shape walk through the 28x28 hybrid (family c, 4 qubits, p=2) ==")
model = DenoisingAutoencoder(ModelSpec(n_qubits=4, p=2, family="c"), seed=0)
x = rng.random((1, 1, 28, 28))
print(f"input {x.shape[1:]}")
for layer in model.layers:  # encoder, the circuit latent, decoder
    x = layer.forward(x)
    print(f"  {type(layer).__name__:<16} -> {tuple(x.shape[1:])}")

print("\n== gradient check on a strided convolution ==")
conv = Conv2d(1, 2, 3, stride=2, padding=1, rng=rng)
x = rng.normal(size=(1, 1, 6, 6))
out = conv.forward(x)
coeffs = np.ones_like(out)
conv.backward(coeffs)
analytic = conv.grad_weight[0, 0, 0, 0]
h = 1e-6
conv.weight[0, 0, 0, 0] += h
plus = float(np.sum(conv.forward(x) * coeffs))
conv.weight[0, 0, 0, 0] -= 2 * h
minus = float(np.sum(conv.forward(x) * coeffs))
conv.weight[0, 0, 0, 0] += h
print(f"analytic dL/dw[0,0,0,0] = {analytic:+.8f}")
print(f"numeric  dL/dw[0,0,0,0] = {(plus - minus) / (2 * h):+.8f}")

print("\n== Adam on a least-squares toy ==")
target_w = np.array([2.0, -3.0, 0.5])
inputs = rng.normal(size=(64, 3))
targets = inputs @ target_w
w = np.zeros(3)
opt = Adam(w, learning_rate=0.1)
for step in range(200):
    pred = inputs @ w
    loss, d_pred = mse_loss(pred, targets)
    opt.step(inputs.T @ d_pred)
    if step % 50 == 0:
        print(f"  step {step:3d}: loss {loss:.5f}, w = {np.round(w, 3)}")
print(f"recovered weights: {np.round(w, 4)} (true {target_w})")
