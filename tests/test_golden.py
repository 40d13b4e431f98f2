"""Golden training curve: train() on a small noiseless synthetic config must
reproduce pinned per-epoch train_loss and val_ssim.

The values were produced by the code before its conv/tconv contractions
and SSIM windows moved onto matrix products. That reordering of float
operations left train_loss bit-identical and moved val_ssim by at most
1.8e-14 relative (3-epoch runs of qcae families c and ours and of ccae, at
28x28 and 8x8), so GOLDEN_RTOL leaves four orders of margin; a real change
to the arithmetic, such as a dropped bias or a transposed kernel, moves the
curve far more.
"""
import numpy as np
import pytest

from qcae.data_io import make_synthetic_digits
from qcae.model import ModelSpec, TrainConfig, train

GOLDEN_RTOL = 1e-10

GOLDEN = {
    "qcae_c": (
        ModelSpec(kind="qcae", n_qubits=4, p=2, family="c"),
        [(0.19962700753489437, 0.009529198203080288),
         (0.19430482149143757, 0.010393648705792739)],
    ),
    "ccae": (
        ModelSpec(kind="ccae", n_qubits=4),
        [(0.19671051193421563, 0.009918455116863758),
         (0.1823627687166193, 0.01663413733213457)],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_training_curve(name):
    spec, expected = GOLDEN[name]
    train_set = make_synthetic_digits(48, seed=60)
    val_set = make_synthetic_digits(16, seed=61)
    config = TrainConfig(epochs=2, batch_size=16, seed=3, sigma=0.4, learning_rate=3e-3,
                         sample_limit=48, val_limit=16)
    _, records = train(spec, config, train_set, val_set)
    got = [(r.train_loss, r.val_ssim) for r in records]
    np.testing.assert_allclose(got, expected, rtol=GOLDEN_RTOL, atol=0)
