"""End-to-end denoising autoencoders.

Two kinds share one skeleton: a convolutional encoder compresses the noisy
image to a short feature vector, and a transposed-convolutional decoder
rebuilds a [0, 1] image from a short latent vector. The classical model
(ccae) wires those vectors together directly. The hybrid model (qcae)
instead squashes the encoder output through tanh, maps it affinely onto
[0, 2*pi], uses the result as the rotation parameters of a circuit
template, runs the batch from |0...0> as one angle row per sample (the QAOA
family applies its own H wall), and feeds the per-qubit Z expectations to
the decoder.

Gradients: the decoder and encoder backpropagate classically; the circuit
contributes a parameter-shift jacobian, whose shift rows for the whole batch
run in one call, contracted with the decoder's input gradient. With
psr_enabled=False the quantum jacobian is taken as zero, so only the decoder
trains - that is the "no gradient refinement" ablation.

Training minimizes MSE between the reconstruction and the clean image
(inputs are the noised versions) with one Adam over model.params, recording
per-epoch loss and validation SSIM. The layers' weights and biases are views
of that one flat buffer (encoder then decoder, weight then bias: the order of
weights.bin), their gradients views of model.grads. Everything is seeded,
and the circuit noise channel is simulated exactly, so runs are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .ansatz import CircuitTemplate, family_template, normalize_to_angle
from .data_io import MnistSet, NoiseSpec, add_gaussian_noise
from .gradient import chain_loss_gradient, psr_gradient
from .metrics import RunRecord, mean_ssim, ssim_config_for
from .nn import (Adam, LayerSpec, NonFiniteTensor, build_layer, load_weights, mse_loss,
                 pack_parameters, save_weights)
from .statevector import MAX_QUBITS, NoiseChannel, measure_rows_z, run_rows

SQUASH_LO, SQUASH_HI = -1.0, 1.0  # tanh range fed to the angle map


@dataclass
class ModelSpec:
    """Architecture description for either model kind."""

    kind: str = "qcae"  # "qcae" | "ccae"
    n_qubits: int = 4
    p: int = 2
    family: str = "ours"
    psr_enabled: bool = True
    latent_width: int | None = None  # ccae only; defaults to n_qubits
    noise: NoiseChannel = field(default_factory=NoiseChannel)
    image_size: int = 28
    encoder: list[LayerSpec] | None = None  # None picks the default stack
    decoder: list[LayerSpec] | None = None

    def __post_init__(self):
        if self.kind not in ("qcae", "ccae"):
            raise ValueError(f"kind must be qcae or ccae, got {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        noisy = self.noise.depolarizing_prob > 0
        # depolarizing simulates 2n-qubit density matrices
        cap = MAX_QUBITS // 2 if noisy else MAX_QUBITS
        if self.kind == "qcae" and self.n_qubits > cap:
            raise ValueError(f"{'depolarizing noise' if noisy else 'the simulator'} caps "
                             f"n_qubits at {cap}, got {self.n_qubits}")


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    seed: int = 0
    sigma: float = 0.5
    learning_rate: float = 1e-3
    sample_limit: int = 2000
    val_limit: int = 100

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


class TrainingAborted(RuntimeError):
    """Raised on a non-finite loss; carries the records collected so far."""

    def __init__(self, message: str, records: list[RunRecord]):
        super().__init__(message)
        self.records = records


# per supported image size: the three encoder widths, and the kernel of the
# last convolution, which reaches 1x1 after two stride-2 halvings
_WIDTHS = {28: ((16, 32, 64), 7), 8: ((4, 8, 16), 2)}


def _widths(image_size: int):
    if image_size not in _WIDTHS:
        raise ValueError(f"no default architecture for image_size={image_size}; pass explicit specs")
    return _WIDTHS[image_size]


def default_encoder(latent_dim: int, image_size: int = 28) -> list[LayerSpec]:
    """Three stride-reducing convolutions down to 1x1, then a dense head."""
    (c1, c2, c3), k = _widths(image_size)
    return [
        LayerSpec("conv2d", in_channels=1, out_channels=c1, kernel_size=3, stride=2, padding=1),
        LayerSpec("leaky_relu"),
        LayerSpec("conv2d", in_channels=c1, out_channels=c2, kernel_size=3, stride=2, padding=1),
        LayerSpec("leaky_relu"),
        LayerSpec("conv2d", in_channels=c2, out_channels=c3, kernel_size=k),
        LayerSpec("flatten"),
        LayerSpec("dense", in_features=c3, out_features=latent_dim),
    ]


def default_decoder(input_dim: int, image_size: int = 28) -> list[LayerSpec]:
    """Mirror of the encoder: dense seed, three transposed convs, sigmoid."""
    (c1, c2, c3), k = _widths(image_size)
    return [
        LayerSpec("dense", in_features=input_dim, out_features=c3),
        LayerSpec("reshape", shape=(c3, 1, 1)),
        LayerSpec("tconv2d", in_channels=c3, out_channels=c2, kernel_size=k),
        LayerSpec("leaky_relu"),
        LayerSpec("tconv2d", in_channels=c2, out_channels=c1, kernel_size=3,
                  stride=2, padding=1, output_padding=1),
        LayerSpec("leaky_relu"),
        LayerSpec("tconv2d", in_channels=c1, out_channels=1, kernel_size=3,
                  stride=2, padding=1, output_padding=1),
        LayerSpec("sigmoid"),
    ]


class _Stack:
    def __init__(self, specs: list[LayerSpec], rng: np.random.Generator):
        self.layers = [build_layer(s, rng) for s in specs]

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class QuantumLatent:
    """tanh -> [0, 2*pi] angles -> bound circuit -> per-qubit <Z>.

    forward runs the whole batch as one run_rows call, one angle row per
    sample; backward runs every sample's parameter-shift rows in one
    psr_gradient call. Both are deterministic, noise channel included.
    """

    def __init__(self, template: CircuitTemplate, psr_enabled: bool = True,
                 channel: NoiseChannel | None = None):
        self.template = template
        self.psr_enabled = psr_enabled
        self.channel = channel
        self._squashed = None
        self._angles = None

    @property
    def n_qubits(self) -> int:
        return self.template.n_qubits

    @property
    def n_parameters(self) -> int:
        return self.template.slot_count

    def forward(self, y: np.ndarray) -> np.ndarray:
        if y.ndim != 2 or y.shape[1] != self.n_parameters:
            raise ValueError(
                f"quantum latent expects (N, {self.n_parameters}), got {y.shape}"
            )
        self._squashed = np.tanh(y)
        self._angles = normalize_to_angle(self._squashed, SQUASH_LO, SQUASH_HI)
        rows = run_rows(self.n_qubits, self.template.gates,
                        self.template.gate_angles(self._angles), self.channel)
        return measure_rows_z(rows, self.channel)

    def backward(self, d_z: np.ndarray) -> np.ndarray:
        squashed = self._squashed
        if squashed is None:
            raise ValueError("QuantumLatent.backward called before forward")
        if not self.psr_enabled:
            return np.zeros_like(squashed)
        jac = psr_gradient(self.template, self._angles, channel=self.channel)
        d_theta = chain_loss_gradient(jac, d_z)
        angle_scale = 2.0 * pi / (SQUASH_HI - SQUASH_LO)
        return d_theta * angle_scale * (1.0 - squashed ** 2)


class DenoisingAutoencoder:
    """Encoder + (quantum or identity) latent + decoder, with manual backprop."""

    def __init__(self, spec: ModelSpec, seed=0):
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        (init_ss,) = ss.spawn(1)
        rng = np.random.default_rng(init_ss)
        self.spec = spec
        if spec.kind == "qcae":
            self.template = family_template(spec.family, spec.n_qubits, spec.p)
            latent_dim = self.template.slot_count
            decoder_in = spec.n_qubits
            self.quantum = QuantumLatent(self.template, spec.psr_enabled, spec.noise)
        else:
            self.template = None
            self.quantum = None
            latent_dim = spec.latent_width if spec.latent_width else spec.n_qubits
            decoder_in = latent_dim
        encoder_specs = spec.encoder or default_encoder(latent_dim, spec.image_size)
        decoder_specs = spec.decoder or default_decoder(decoder_in, spec.image_size)
        self.encoder = _Stack(encoder_specs, rng)
        self.decoder = _Stack(decoder_specs, rng)
        self._tensors, self.params, self.grads = pack_parameters(
            self.encoder.layers + self.decoder.layers)

    def forward(self, images: np.ndarray) -> np.ndarray:
        latent = self.encoder.forward(images)
        if self.quantum is not None:
            latent = self.quantum.forward(latent)
        return self.decoder.forward(latent)

    def backward(self, loss_gradient: np.ndarray) -> None:
        grad = self.decoder.backward(loss_gradient)
        if self.quantum is not None:
            grad = self.quantum.backward(grad)
        self.encoder.backward(grad)

    def denoise(self, images: np.ndarray) -> np.ndarray:
        """Forward pass clamped to [0, 1], order preserved."""
        return np.clip(self.forward(images), 0.0, 1.0)

    def save(self, path) -> None:
        save_weights(path, self._tensors)

    def load(self, path) -> None:
        """Copy saved weights in, or refuse them before copying any."""
        tensors = load_weights(path)
        got, want = [t.shape for t in tensors], [p.shape for p in self._tensors]
        if got != want:
            raise ValueError(f"{path}: tensor shapes {got} != the model's {want}")
        self.params[...] = np.concatenate([t.ravel() for t in tensors])


def derive_seeds(seed: int):
    """train()'s (init, shuffle) seed sequences and (train, val) Gaussian
    noise seeds; the val seed re-noises validation images as train() did."""
    init_ss, shuffle_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    train_noise_seed, val_noise_seed = (int(s) for s in noise_ss.generate_state(2))
    return init_ss, shuffle_ss, train_noise_seed, val_noise_seed


def train(spec: ModelSpec, config: TrainConfig, train_set: MnistSet,
          val_set: MnistSet | None = None, config_id: str = "") -> tuple[DenoisingAutoencoder, list[RunRecord]]:
    """Fit a model on noised inputs against clean targets; returns per-epoch records."""
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    init_ss, shuffle_ss, train_noise_seed, val_noise_seed = derive_seeds(config.seed)

    clean = train_set.images[:config.sample_limit]
    noisy = add_gaussian_noise(clean, NoiseSpec(config.sigma, train_noise_seed))
    if val_set is not None and len(val_set) > 0:
        val_clean = val_set.images[:config.val_limit]
        val_noisy = add_gaussian_noise(val_clean, NoiseSpec(config.sigma, val_noise_seed))
    else:
        val_clean = val_noisy = None

    model = DenoisingAutoencoder(spec, init_ss)
    optimizer = Adam(model.params, config.learning_rate)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    records: list[RunRecord] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(clean))
        batch_losses = []
        for start in range(0, len(clean), config.batch_size):
            idx = order[start:start + config.batch_size]
            try:
                recon = model.forward(noisy[idx])
                loss, grad = mse_loss(recon, clean[idx])
                finite = np.isfinite(loss)
            except NonFiniteTensor:
                finite = False
            if not finite:
                records.append(RunRecord(epoch, float("nan"), float("nan"), config_id))
                raise TrainingAborted(
                    f"non-finite loss at epoch {epoch}, batch starting {start}", records
                )
            model.backward(grad)
            optimizer.step(model.grads)
            batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses))
        if val_clean is not None:
            val_ssim = mean_ssim(model.denoise(val_noisy), val_clean,
                                 ssim_config_for(val_clean.shape))
        else:
            val_ssim = float("nan")
        records.append(RunRecord(epoch, epoch_loss, val_ssim, config_id))
    return model, records

