"""Hybrid quantum-classical convolutional autoencoder for image denoising.

The package splits into small, composable pieces:

  statevector  dense n-qubit simulator running one gate sequence on a batch
               of angle rows, exact Z expectations, and an optional exact
               depolarizing/readout noise channel
  ansatz       circuit templates of GateOps (QAOA layers plus comparison
               families) and the map of squashed values onto angles
  gradient     parameter-shift jacobians and classical chain-rule glue
  nn           conv/tconv/dense layers with manual backprop, MSE, Adam
  model        the assembled denoisers (classical and hybrid) and training
  data_io      IDX datasets, Gaussian noising, PGM export, synthetic corpus
  metrics      SSIM and CSV run reporting
  cli          train / denoise / sweep / eval entry points
"""

from .ansatz import (
    CircuitTemplate,
    family_template,
    normalize_to_angle,
    qaoa_template,
)
from .data_io import (
    MnistSet,
    NoiseSpec,
    add_gaussian_noise,
    export_pgm,
    filter_classes,
    load_idx,
    make_synthetic_digits,
    montage,
    write_idx,
)
from .gradient import QuantumJacobian, chain_loss_gradient, psr_gradient
from .metrics import RunRecord, SsimConfig, mean_ssim, ssim, write_csv
from .model import (
    DenoisingAutoencoder,
    ModelSpec,
    QuantumLatent,
    TrainConfig,
    TrainingAborted,
    train,
)
from .nn import Adam, LayerSpec, load_weights, mse_loss, save_weights
from .statevector import (
    GateOp,
    NoiseChannel,
    cnot,
    h,
    measure_all_z,
    measure_rows_z,
    run_circuit,
    run_rows,
    rx,
    ry,
    rz,
    zz,
)

__version__ = "0.1.0"
