"""Hybrid quantum-classical convolutional autoencoder for image denoising.

The package splits into small, composable pieces:

  statevector  dense n-qubit simulator running one gate sequence on a batch
               of angle rows, exact Z expectations with their pullback to
               every gate angle, and an exact depolarizing/readout channel
  ansatz       circuit templates of GateOps (QAOA layers plus comparison
               families)
  gradient     parameter-shift jacobians, the reference that the training
               sweep (statevector.z_and_pullback) matches
  nn           conv/tconv/dense layers with manual backprop, MSE, Adam
  model        the assembled denoisers (classical and hybrid) and training
  data_io      IDX datasets, Gaussian noising, PGM export, synthetic corpus
  metrics      SSIM and the per-epoch run record
  cli          train / denoise / sweep / eval entry points, run ids and CSVs
"""

from .ansatz import CircuitTemplate, family_template, qaoa_template
from .data_io import (MnistSet, NoiseSpec, add_gaussian_noise, export_pgm, filter_classes,
                      load_idx, make_synthetic_digits, montage, write_idx)
from .gradient import QuantumJacobian, psr_gradient
from .metrics import RunRecord, mean_ssim
from .model import (DenoisingAutoencoder, ModelSpec, QuantumLatent, TrainConfig,
                    TrainingAborted, train)
from .nn import Adam, load_weights, mse_loss, save_weights
from .statevector import (GateOp, NoiseChannel, measure_all_z, measure_rows_z, run_circuit,
                          run_rows, z_and_pullback)

__version__ = "0.1.0"
