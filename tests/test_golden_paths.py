"""Golden training curves for the paths test_golden.py leaves out: noisy
rows, families a, b and ours, the 8x8 stack with a short last batch, and a
wider register.

Same corpus and settings as test_golden.py (48/16 synthetic images, seeds
60/61, seed 3, sigma 0.4, lr 3e-3, GOLDEN_RTOL). The values come from
train() at commit 26ad357; the commit that adds this file leaves training
arithmetic untouched and reproduces them bit for bit. Each case pins a path
that a planned rewrite touches:

  c4p2_noisy  the density rows: the doubled gate list's negated conjugate
              angle columns, depolarizing after each layer, the readout
              flip factor
  a4p2, b4p2  the chain families' recipes; b4p2's last rotation column is
              dead, so its slots train on rounding noise
  ours4p2     the QAOA latent, which reads 0 and trains on rounding noise
  c4p2_8x8    the 8x8 widths, and batch 10 over 48 images, so the last
              batch of each epoch holds 8
  c8p3        an 8-qubit register at depth 3, one epoch

The ours4p2 and b4p2 curves move with any change to how those rounding-noise
gradients are summed; a change that makes them exact zeros must re-pin them
and say so.
"""
import numpy as np
import pytest

from qcae.data_io import make_synthetic_digits
from qcae.model import ModelSpec, TrainConfig, train
from qcae.statevector import NoiseChannel

GOLDEN_RTOL = 1e-10

# name: (spec, batch size, per-epoch (train_loss, val_ssim))
GOLDEN_PATHS = {
    "c4p2_noisy": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="c", noise=NoiseChannel(0.01, 0.02)),
        16,
        [(0.19964287939188016, 0.00948142998053465),
         (0.1945105455485667, 0.0103623653900588)],
    ),
    "a4p2": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="a"),
        16,
        [(0.1946983213070698, 0.010042299960345653),
         (0.17796583090798027, 0.011757354644618807)],
    ),
    "b4p2": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="b"),
        16,
        [(0.19966155334753008, 0.00952334654805721),
         (0.19426722488101378, 0.01055014333744656)],
    ),
    "ours4p2": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="ours"),
        16,
        [(0.19679104831279112, 0.009539541200911078),
         (0.19185548267595295, 0.01015684314731645)],
    ),
    "c4p2_8x8": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="c", image_size=8),
        10,
        [(0.18834942321894124, 0.009494159338337466),
         (0.18627366467134016, 0.009520422747597937)],
    ),
    "c8p3": (
        ModelSpec(kind="qcae", n_qubits=8, p=3, family="c"),
        16,
        [(0.225741195259078, 0.009082142997018212)],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PATHS))
def test_golden_path_curve(name):
    spec, batch_size, expected = GOLDEN_PATHS[name]
    train_set = make_synthetic_digits(48, seed=60, size=spec.image_size)
    val_set = make_synthetic_digits(16, seed=61, size=spec.image_size)
    config = TrainConfig(epochs=len(expected), batch_size=batch_size, seed=3, sigma=0.4,
                         learning_rate=3e-3, sample_limit=48, val_limit=16)
    _, records = train(spec, config, train_set, val_set)
    got = [(r.train_loss, r.val_ssim) for r in records]
    np.testing.assert_allclose(got, expected, rtol=GOLDEN_RTOL, atol=0)
