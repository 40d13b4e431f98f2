"""End-to-end denoising autoencoders.

A model is one ordered layer list: a convolutional encoder compresses the
noisy image to a short feature vector, the latent layer (hybrid only) maps
it to a short latent vector, and a transposed-convolutional decoder rebuilds
a [0, 1] image from that. The classical model (ccae) has no latent layer.
The hybrid model (qcae) has QuantumLatent: it squashes the encoder output
through tanh, maps it onto [0, 2*pi] as pi * (1 + tanh), uses the result as
the rotation parameters of a circuit template, runs the batch from |0...0>
as one angle row per sample (the QAOA family applies its own H wall), and
feeds the per-qubit Z expectations to the decoder.

Gradients: backward runs the list in reverse; the circuit parameters get the
decoder's input gradient contracted with the circuit's jacobian. The latent
runs its circuit once per batch (statevector.z_and_pullback): that forward
keeps each layer's state, and backward differentiates through the pullback
it returned, one reverse adjoint sweep over the layers, mapped onto the
parameters by the template's slot_map. It equals the paper's
parameter-shift rule, which gradient.psr_gradient keeps as the rule
hardware could run. With psr_enabled=False the circuit gradient is taken
as zero, so only the decoder trains - that is the "no gradient refinement"
ablation.

Training minimizes MSE between the reconstruction and the clean image
(inputs are the noised versions) with one Adam over model.params, recording
per-epoch loss and validation SSIM. The layers' weights and biases are views
of that one flat buffer (in list order, weight then bias: the order of
weights.bin), their gradients views of model.grads. Everything is seeded,
and the circuit noise channel is simulated exactly, so runs are
bit-reproducible at a fixed BLAS thread count (BLAS may split a product
differently at another count, which moves the last bits).

forward keeps each layer's backward cache; denoise, which never runs
backward, releases each layer's cache as soon as that layer has run, so it
holds at most one layer's activations at a time and leaves none behind.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from math import pi

import numpy as np

from .ansatz import CircuitTemplate, family_template
from .data_io import MnistSet, NoiseSpec, add_gaussian_noise
from .metrics import RunRecord, eval_blocks, mean_ssim
from .nn import (Adam, Conv2d, ConvTranspose2d, Dense, Layer, LeakyReLU, NonFiniteTensor,
                 Reshape, Sigmoid, load_weights, mse_loss, pack_parameters, save_weights)
from .statevector import NoiseChannel, compile_circuit, z_and_pullback

# per supported image size: the three encoder widths, and the kernel of the
# last convolution, which reaches 1x1 after two stride-2 halvings
_WIDTHS = {28: ((16, 32, 64), 7), 8: ((4, 8, 16), 2)}


def _refuse_non_integers(config) -> None:
    """Refuse, naming it, a field annotated int that holds no integer, as
    GateOp refuses its targets; numpy integers pass, an `int | None` None too."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" or (f.type == "int | None" and value is not None):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{f.name} must be an integer, got {value!r}") from None


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
    image_size: int = 28  # a key of _WIDTHS

    def __post_init__(self):
        _refuse_non_integers(self)
        if self.kind not in ("qcae", "ccae"):
            raise ValueError(f"kind must be qcae or ccae, got {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.latent_width is not None and (self.kind == "qcae" or self.latent_width < 1):
            raise ValueError(f"latent_width is a ccae width >= 1, got {self.latent_width} "
                             f"on {self.kind} (qcae's latent is n_qubits wide)")
        if self.image_size not in _WIDTHS:
            raise ValueError(f"image_size must be one of {tuple(_WIDTHS)}, got {self.image_size}")
        if self.kind == "qcae":  # refuses too many qubits, an unknown family, a 1-qubit QAOA
            compile_circuit(self.n_qubits, (), self.noise)
            family_template(self.family, self.n_qubits, self.p)


@dataclass
class TrainConfig:
    """sample_limit and val_limit keep the first that many images of the sets
    train() is given: the default 2000 silently truncates a larger set."""

    epochs: int = 10
    batch_size: int = 16
    seed: int = 0
    sigma: float = 0.5
    learning_rate: float = 1e-3
    sample_limit: int = 2000
    val_limit: int = 100

    def __post_init__(self):
        _refuse_non_integers(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.sigma < float("inf"):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.sample_limit < 1 or self.val_limit < 1:
            raise ValueError("sample_limit and val_limit must be >= 1")


class TrainingAborted(RuntimeError):
    """Raised on a non-finite loss; carries the records collected so far."""

    def __init__(self, message: str, records: list[RunRecord]):
        super().__init__(message)
        self.records = records


def default_encoder(latent_dim: int, image_size: int, rng: np.random.Generator) -> list:
    """Three stride-reducing convolutions down to 1x1, then a dense head."""
    (c1, c2, c3), k = _WIDTHS[image_size]
    return [
        Conv2d(1, c1, 3, 2, 1, rng=rng), LeakyReLU(),
        Conv2d(c1, c2, 3, 2, 1, rng=rng), LeakyReLU(),
        Conv2d(c2, c3, k, rng=rng), Reshape((c3,)),
        Dense(c3, latent_dim, rng),
    ]


def default_decoder(input_dim: int, image_size: int, rng: np.random.Generator) -> list:
    """Mirror of the encoder: dense seed, three transposed convs, sigmoid."""
    (c1, c2, c3), k = _WIDTHS[image_size]
    return [
        Dense(input_dim, c3, rng), Reshape((c3, 1, 1)),
        ConvTranspose2d(c3, c2, k, rng=rng), LeakyReLU(),
        ConvTranspose2d(c2, c1, 3, 2, 1, 1, rng=rng), LeakyReLU(),
        ConvTranspose2d(c1, 1, 3, 2, 1, 1, rng=rng), Sigmoid(),
    ]


class QuantumLatent(Layer):
    """tanh -> [0, 2*pi] angles -> bound circuit -> per-qubit <Z>.

    forward runs the whole batch as one z_and_pullback call, one gate-angle
    row per sample, and keeps the pullback it returns; backward takes the
    vector-Jacobian product of the whole batch from that pullback, with no
    circuit run of its own, and maps its per-gate terms onto the parameters
    with template.slot_map. Both are deterministic, noise channel included.
    """

    def __init__(self, template: CircuitTemplate, psr_enabled: bool = True,
                 channel: NoiseChannel | None = None):
        self.template = template
        self.psr_enabled = psr_enabled
        self.channel = channel

    def forward(self, y: np.ndarray) -> np.ndarray:
        t = self.template
        if y.ndim != 2 or y.shape[1] != t.slot_count:
            raise ValueError(f"quantum latent expects (N, {t.slot_count}), got {y.shape}")
        squashed = np.tanh(y)
        z, pullback = z_and_pullback(t.n_qubits, t.gates, t.gate_angles(pi * (1.0 + squashed)),
                                     self.channel)
        self._cache = squashed, pullback
        return z

    def backward(self, d_z: np.ndarray) -> np.ndarray:
        squashed, pullback = self._take_cache()
        self._check_upstream(d_z, (len(squashed), self.template.n_qubits))
        if not self.psr_enabled:
            return np.zeros_like(squashed)
        return pullback(d_z) @ self.template.slot_map * pi * (1.0 - squashed ** 2)


class DenoisingAutoencoder:
    """Encoder, circuit latent (qcae only) and decoder as one layer list, with manual backprop."""

    def __init__(self, spec: ModelSpec, seed=0):
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        (init_ss,) = ss.spawn(1)
        rng = np.random.default_rng(init_ss)
        self.spec = spec
        if spec.kind == "qcae":
            self.quantum = QuantumLatent(family_template(spec.family, spec.n_qubits, spec.p),
                                         spec.psr_enabled, spec.noise)
            latent = [self.quantum]
            latent_dim, decoder_in = self.quantum.template.slot_count, spec.n_qubits
        else:
            self.quantum, latent = None, []
            latent_dim = decoder_in = spec.latent_width or spec.n_qubits
        # encoder first: the rng draws and the weights.bin order follow the list
        self.layers = (default_encoder(latent_dim, spec.image_size, rng) + latent
                       + default_decoder(decoder_in, spec.image_size, rng))
        self._tensors, self.params, self.grads = pack_parameters(self.layers)

    def forward(self, images: np.ndarray) -> np.ndarray:
        x = images
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, loss_gradient: np.ndarray) -> None:
        grad = loss_gradient
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].param_backward(grad)  # its input is the data: no input gradient

    def denoise(self, images: np.ndarray) -> np.ndarray:
        """Forward pass in order over the blocks of metrics.eval_blocks, so memory
        does not grow with the image count; each layer's cache goes once it has
        run. No clip: the last layer's 0.5 * tanh(0.5 x) + 0.5 lies in [0, 1]."""
        size = self.spec.image_size
        out = np.empty((len(images), 1, size, size))
        for block in eval_blocks(len(images)):
            x = images[block]
            for layer in self.layers:
                x = layer.forward(x)
                layer.release()
            out[block] = x
        return out

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
          val_set: MnistSet) -> tuple[DenoisingAutoencoder, list[RunRecord]]:
    """Fit a model on noised inputs against clean targets; returns per-epoch
    records. Both sets are required and must hold at least one image."""
    for name, dataset in (("training", train_set), ("validation", val_set)):
        if len(dataset) == 0:
            raise ValueError(f"{name} set is empty")
    init_ss, shuffle_ss, train_noise_seed, val_noise_seed = derive_seeds(config.seed)

    clean = train_set.images[:config.sample_limit]
    noisy = add_gaussian_noise(clean, NoiseSpec(config.sigma, train_noise_seed))
    val_clean = val_set.images[:config.val_limit]
    val_noisy = add_gaussian_noise(val_clean, NoiseSpec(config.sigma, val_noise_seed))

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
                records.append(RunRecord(epoch, float("nan"), float("nan")))
                raise TrainingAborted(
                    f"non-finite loss at epoch {epoch}, batch starting {start}", records
                )
            model.backward(grad)
            optimizer.step(model.grads)
            batch_losses.append(loss)
        val_ssim = mean_ssim(model.denoise(val_noisy), val_clean)
        records.append(RunRecord(epoch, float(np.mean(batch_losses)), val_ssim))
    return model, records
