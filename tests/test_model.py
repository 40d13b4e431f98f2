"""Hybrid and classical autoencoders: forward semantics, gradient flow,
end-to-end finite-difference agreement, and training behaviour."""
import re
from collections import Counter

import numpy as np
import pytest

import qcae.model
import qcae.nn
import qcae.statevector
from qcae.ansatz import family_template
from qcae.data_io import MnistSet, export_pgm, make_synthetic_digits, write_idx
from qcae.gradient import psr_gradient
from qcae.metrics import EVAL_BLOCK, eval_blocks
from qcae.model import (
    DenoisingAutoencoder,
    ModelSpec,
    QuantumLatent,
    TrainConfig,
    TrainingAborted,
    default_encoder,
    train,
)
from qcae.nn import mse_loss
from qcae.statevector import NoiseChannel, compile_circuit, z_and_pullback

from oracles import fd_gradient, peak_bytes

TOY = dict(image_size=8, n_qubits=2, p=1)


def toy_spec(**kw) -> ModelSpec:
    merged = {**TOY, **kw}
    return ModelSpec(**merged)


def stack_tensors(layers, prefix=""):
    """Every weight and bias (or, with prefix "grad_", gradient) of a layer list."""
    return [getattr(layer, prefix + name) for layer in layers
            for name in ("weight", "bias") if hasattr(layer, name)]


def halves(model):
    """(encoder, decoder) of a hybrid: the layers before and after its latent."""
    cut = model.layers.index(model.quantum)
    return model.layers[:cut], model.layers[cut + 1:]


def run_forward(layers, x):
    for layer in layers:
        x = layer.forward(x)
    return x


def run_backward(layers, grad):
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


def toy_images(count=2, seed=0, size=8):
    rng = np.random.default_rng(seed)
    return rng.random((count, 1, size, size))


# -------------------------------------------------------------- forward pass

def test_forward_is_deterministic():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=1)
    x = toy_images()
    a, b = model.forward(x), model.forward(x)
    assert np.array_equal(a, b)
    assert a.shape == x.shape


def test_zero_weights_send_all_angles_to_pi(monkeypatch):
    model = DenoisingAutoencoder(toy_spec(family="ours"), seed=2)
    encoder = halves(model)[0]
    for p in stack_tensors(encoder):
        p[...] = 0.0
    ran = []  # the gate angles the latent runs its circuit at

    def recording_z_and_pullback(n, gates, angles, channel=None):
        ran.append(angles.copy())
        return z_and_pullback(n, gates, angles, channel)

    monkeypatch.setattr(qcae.model, "z_and_pullback", recording_z_and_pullback)
    x = np.zeros((1, 1, 8, 8))
    out1 = model.forward(x)
    y = run_forward(encoder, x)
    template = model.quantum.template
    gate_angles = ran[0]
    assert np.array_equal(gate_angles, template.gate_angles(np.pi * (1.0 + np.tanh(y))))
    assert np.allclose(gate_angles, template.gate_angles(np.full(template.slot_count, np.pi)))
    out2 = model.forward(x)
    assert np.array_equal(out1, out2)


def test_qaoa_latent_expectations_are_zero():
    # ring cost + X mixer + H wall commute with global bit flip, which
    # anticommutes with every Z: the per-qubit readout vanishes identically
    model = DenoisingAutoencoder(toy_spec(family="ours"), seed=3)
    model.forward(toy_images(3, seed=4))
    latent = halves(model)[1][0]._cache  # the decoder's first dense keeps its input
    assert np.allclose(latent, 0.0, atol=1e-12)


def test_family_b_latent_carries_signal():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=3)
    model.forward(toy_images(3, seed=4))
    latent = halves(model)[1][0]._cache
    assert not np.allclose(latent, 0.0, atol=1e-6)
    assert np.all(np.abs(latent) <= 1.0 + 1e-12)


def test_latent_contract_for_qaoa_grid():
    for n in (2, 3, 4):
        for p in (1, 2):
            spec = ModelSpec(image_size=8, n_qubits=n, p=p, family="ours")
            model = DenoisingAutoencoder(spec, seed=5)
            assert model.quantum.template.slot_count == 2 * p
            encoded = run_forward(halves(model)[0], toy_images(2, seed=6))
            assert encoded.shape == (2, 2 * p)
            z = model.quantum.forward(encoded)
            assert z.shape == (2, n)
            assert np.all(np.abs(z) <= 1.0 + 1e-12)


def test_ccae_latent_width_defaults_to_n_qubits():
    model = DenoisingAutoencoder(toy_spec(kind="ccae", n_qubits=3), seed=7)
    encoder = model.layers[:len(default_encoder(3, 8, np.random.default_rng()))]
    encoded = run_forward(encoder, toy_images(2, seed=8))
    assert encoded.shape == (2, 3)
    assert model.forward(toy_images(2, seed=8)).shape == (2, 1, 8, 8)


@pytest.mark.parametrize("image_size", [8, 28])
@pytest.mark.parametrize("kind, family", [("ccae", "ours"), ("qcae", "a"), ("qcae", "b"),
                                          ("qcae", "c"), ("qcae", "ours")])
def test_model_is_one_layer_list(kind, family, image_size):
    spec = ModelSpec(kind=kind, family=family, n_qubits=4, p=2, image_size=image_size)
    model = DenoisingAutoencoder(spec, seed=3)
    latents = [layer for layer in model.layers if isinstance(layer, QuantumLatent)]
    if kind == "ccae":
        assert latents == [] and model.quantum is None
    else:
        assert len(latents) == 1 and latents[0] is model.quantum
    # the flat buffer (and weights.bin) holds each weight then bias, in list order
    assert np.array_equal(model.params,
                          np.concatenate([t.ravel() for t in stack_tensors(model.layers)]))


# ------------------------------------------------------------- backward pass

def test_zero_loss_gradient_gives_zero_parameter_gradients():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=9)
    x = toy_images()
    out = model.forward(x)
    model.backward(np.zeros_like(out))
    assert np.allclose(model.grads, 0.0)


def test_psr_disabled_freezes_encoder():
    spec = toy_spec(family="b", psr_enabled=False)
    model = DenoisingAutoencoder(spec, seed=10)
    x = toy_images(2, seed=11)
    out = model.forward(x)
    _, grad = mse_loss(out, np.zeros_like(out))
    model.backward(grad)
    encoder, decoder = halves(model)
    for g in stack_tensors(encoder, "grad_"):
        assert np.allclose(g, 0.0)
    assert any(np.max(np.abs(g)) > 0 for g in stack_tensors(decoder, "grad_"))


def test_backward_never_forms_the_image_gradient(monkeypatch):
    # nothing reads d(loss)/d(input image), so the first conv skips its
    # W.T @ d_y and the 9-offset scatter back onto the 28x28 grid
    model = DenoisingAutoencoder(ModelSpec(kind="ccae"), seed=12)
    x = toy_images(3, seed=13, size=28)
    out = model.forward(x)
    scattered = []

    def spy(cols, x_shape, *args):
        scattered.append(tuple(x_shape))
        return col2im(cols, x_shape, *args)

    col2im = qcae.nn._col2im
    monkeypatch.setattr(qcae.nn, "_col2im", spy)
    model.backward(np.ones_like(out))
    assert scattered, "the spy saw no conv input gradient at all"
    assert x.shape not in scattered


def _total_loss(model, x, target):
    recon = model.forward(x)
    return mse_loss(recon, target)[0]


@pytest.mark.parametrize("family", ["b", "ours"])
def test_end_to_end_gradient_matches_finite_differences(family):
    spec = toy_spec(family=family)
    model = DenoisingAutoencoder(spec, seed=12)
    x = toy_images(1, seed=13)
    target = toy_images(1, seed=14)

    recon = model.forward(x)
    _, loss_grad = mse_loss(recon, target)
    model.backward(loss_grad)
    analytic = model.grads.copy()
    saved = model.params.copy()

    def scalar(flat):
        model.params[...] = flat
        value = _total_loss(model, x, target)
        model.params[...] = saved
        return value

    numeric = fd_gradient(scalar, saved, h=1e-5)
    assert np.max(np.abs(analytic - numeric)) < 1e-4


def test_quantum_path_gradient_matches_finite_differences_tightly():
    # isolate the quantum latent: d loss / d encoder-output via PSR chain
    spec = toy_spec(family="b")
    model = DenoisingAutoencoder(spec, seed=15)
    x = toy_images(1, seed=16)
    target = toy_images(1, seed=17)

    encoder, decoder = halves(model)
    encoded = run_forward(encoder, x)
    z = model.quantum.forward(encoded)
    recon = run_forward(decoder, z)
    _, loss_grad = mse_loss(recon, target)
    d_z = run_backward(decoder, loss_grad)
    d_y = model.quantum.backward(d_z)

    def scalar(y_flat):
        z_val = model.quantum.forward(y_flat.reshape(encoded.shape))
        return mse_loss(run_forward(decoder, z_val), target)[0]

    numeric = fd_gradient(scalar, encoded.ravel(), h=1e-5).reshape(encoded.shape)
    assert np.max(np.abs(d_y - numeric)) < 1e-6


@pytest.mark.parametrize("depolarizing", [0.0, 0.05])
@pytest.mark.parametrize("family", ["a", "b", "c"])
def test_quantum_backward_equals_the_psr_chain(family, depolarizing):
    noise = NoiseChannel(depolarizing_prob=depolarizing, readout_flip_prob=0.02)
    model = DenoisingAutoencoder(toy_spec(family=family, n_qubits=3, p=2, noise=noise), seed=18)
    latent = model.quantum
    rng = np.random.default_rng(19)
    y = rng.normal(size=(4, latent.template.slot_count))
    d_z = rng.normal(size=latent.forward(y).shape)
    angles = np.pi * (1.0 + np.tanh(y))

    d_y = latent.backward(d_z)
    jac = psr_gradient(model.quantum.template, angles, noise)
    squash = np.pi * (1.0 - np.tanh(y) ** 2)
    expected = (d_z[:, None, :] @ jac.entries)[:, 0] * squash
    assert np.max(np.abs(expected)) > 1e-3
    assert np.max(np.abs(d_y - expected)) <= 1e-12
    # backward is repeatable: it writes into nothing that it reads
    assert np.array_equal(latent.backward(d_z), d_y)


@pytest.mark.parametrize("noise", [NoiseChannel(), NoiseChannel(0.05, 0.02)],
                         ids=["pure", "noisy"])
def test_a_training_batch_runs_each_circuit_layer_forward_once(monkeypatch, noise):
    # backward differentiates through the states the latent's forward kept
    model = DenoisingAutoencoder(toy_spec(family="c", n_qubits=3, p=2, noise=noise), seed=4)
    applies = Counter()  # (layer, inverse) -> calls
    for kind in (qcae.statevector._Column, qcae.statevector._Diagonal,
                 qcae.statevector._Permutation):
        def counting(self, rows, angles, inverse=False, apply=kind.apply):
            applies[id(self), inverse] += 1
            return apply(self, rows, angles, inverse)

        monkeypatch.setattr(kind, "apply", counting)
    x = toy_images(3, seed=5)
    model.backward(mse_loss(model.forward(x), x)[1])
    t = model.quantum.template
    layers = compile_circuit(t.n_qubits, t.gates, noise)
    assert {layer for layer, _ in applies} == {id(layer) for layer in layers}
    assert [applies[id(layer), False] for layer in layers] == [1] * len(layers)
    assert max(applies[id(layer), True] for layer in layers) <= 1


def test_quantum_latent_refuses_an_input_of_the_wrong_width():
    latent = DenoisingAutoencoder(toy_spec(family="c"), seed=0).quantum
    slots = latent.template.slot_count
    with pytest.raises(ValueError, match=rf"expects \(N, {slots}\), got \(2, {slots + 1}\)"):
        latent.forward(np.zeros((2, slots + 1)))


@pytest.mark.parametrize("psr_enabled", [True, False])
@pytest.mark.parametrize("d_z_shape", [(3, 5), (2, 4), (3,)])
def test_quantum_latent_backward_refuses_a_wrong_upstream(psr_enabled, d_z_shape):
    # with the gradient off, backward used to return zeros for any d_z
    latent = QuantumLatent(family_template("c", 4, 1), psr_enabled)
    latent.forward(np.zeros((3, latent.template.slot_count)))
    with pytest.raises(ValueError, match=re.escape(
            f"upstream shape {d_z_shape} != forward output shape (3, 4)")):
        latent.backward(np.zeros(d_z_shape))


# ------------------------------------------------------------------ training

def synthetic_sets(train_n=64, val_n=16, seed=20):
    return make_synthetic_digits(train_n, seed=seed), make_synthetic_digits(val_n, seed=seed + 1)


def small_train_config(**kw) -> TrainConfig:
    merged = dict(epochs=2, batch_size=8, seed=0, sigma=0.3, learning_rate=3e-3,
                  sample_limit=64, val_limit=16)
    merged.update(kw)
    return TrainConfig(**merged)


def test_training_is_reproducible():
    spec = ModelSpec(kind="ccae", image_size=28, n_qubits=4)
    train_set, val_set = synthetic_sets()
    _, records_a = train(spec, small_train_config(), train_set, val_set)
    _, records_b = train(spec, small_train_config(), train_set, val_set)
    assert records_a == records_b


def test_ccae_loss_decreases_over_training():
    spec = ModelSpec(kind="ccae", image_size=28, n_qubits=4)
    train_set, val_set = synthetic_sets(128, 16)
    _, records = train(spec, small_train_config(epochs=8, sample_limit=128),
                       train_set, val_set)
    assert records[-1].train_loss < records[0].train_loss
    assert len(records) == 8
    assert all(np.isfinite(r.val_ssim) for r in records)


def test_qcae_training_improves_loss_and_ssim_on_toy_budget():
    # a 3-epoch toy budget cannot beat the noisy baseline (the acceptance
    # suite does that at full desk scale); it must still move the right way
    spec = ModelSpec(kind="qcae", image_size=28, n_qubits=2, p=1, family="b")
    train_set, val_set = synthetic_sets(48, 12, seed=30)
    config = small_train_config(epochs=3, sample_limit=48, val_limit=12, sigma=0.4)
    model, records = train(spec, config, train_set, val_set)
    assert records[-1].train_loss < records[0].train_loss
    assert records[-1].val_ssim > records[0].val_ssim
    # clean inputs through the trained denoiser hold the trained-quality bound
    from qcae.metrics import mean_ssim

    val_clean = val_set.images[:12]
    clean_in_ssim = mean_ssim(model.denoise(val_clean), val_clean)
    assert clean_in_ssim >= records[-1].val_ssim - 0.05


def test_noisy_training_end_to_end():
    spec = ModelSpec(kind="qcae", image_size=8, n_qubits=2, p=1, family="c",
                     noise=NoiseChannel(depolarizing_prob=0.05, readout_flip_prob=0.02))
    train_set = make_synthetic_digits(16, seed=50, size=8)
    val_set = make_synthetic_digits(8, seed=51, size=8)
    config = small_train_config(epochs=1, sample_limit=16, val_limit=8)
    _, records = train(spec, config, train_set, val_set)
    assert len(records) == 1
    assert all(np.isfinite(r.train_loss) and np.isfinite(r.val_ssim) for r in records)
    _, again = train(spec, config, train_set, val_set)
    assert again == records
    noiseless = ModelSpec(kind="qcae", image_size=8, n_qubits=2, p=1, family="c")
    _, clean_records = train(noiseless, config, train_set, val_set)
    assert clean_records != records


def test_training_aborts_on_poisoned_weights():
    spec = ModelSpec(kind="ccae", image_size=8, n_qubits=2)
    train_set = make_synthetic_digits(16, seed=20, size=8)
    val_set = make_synthetic_digits(4, seed=21, size=8)
    model_spec = spec

    # poison by injecting nan through a custom spec is awkward; train a fresh
    # model whose first weight is nan via monkeypatched init
    from qcae import model as model_module

    original = model_module.DenoisingAutoencoder

    class Poisoned(original):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.layers[0].weight[0] = np.nan

    model_module.DenoisingAutoencoder, saved = Poisoned, original
    try:
        with pytest.raises(TrainingAborted) as info:
            model_module.train(model_spec, small_train_config(sample_limit=16),
                               train_set, val_set)
        assert np.isnan(info.value.records[-1].train_loss)
    finally:
        model_module.DenoisingAutoencoder = saved


def test_empty_training_set_rejected():
    spec = ModelSpec(kind="ccae", image_size=8)
    empty = MnistSet(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="training set is empty"):
        train(spec, small_train_config(), empty, make_synthetic_digits(4, seed=21, size=8))


def test_empty_validation_set_rejected():
    # every run has a validation curve: no nan val_ssim from an empty set
    spec = ModelSpec(kind="ccae", image_size=8)
    empty = MnistSet(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="validation set is empty"):
        train(spec, small_train_config(), make_synthetic_digits(16, seed=20, size=8), empty)


# ------------------------------------------------------------------- denoise

def test_denoise_repeats_identically_and_clamps():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=40)
    x = toy_images(3, seed=41)
    a, b = model.denoise(x), model.denoise(x)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


@pytest.mark.parametrize("spec", [ModelSpec(n_qubits=4, p=2, family="c"), ModelSpec(kind="ccae")],
                         ids=["qcae-c4", "ccae"])
@pytest.mark.parametrize("count", [1, 31, 32, 33, 70])
def test_denoise_is_the_block_loop_of_forward(spec, count):
    model = DenoisingAutoencoder(spec, seed=14)
    x = toy_images(count, seed=15, size=28)
    denoised = model.denoise(x)
    assert denoised.shape == x.shape and denoised.flags.c_contiguous
    for block in eval_blocks(count):
        assert np.array_equal(denoised[block], np.clip(model.forward(x[block]), 0.0, 1.0))
    one_call = np.clip(model.forward(x), 0.0, 1.0)
    if count <= EVAL_BLOCK:  # one block
        assert np.array_equal(denoised, one_call)
    else:  # BLAS rounds a product by its shape, so blocks may move the last bit
        np.testing.assert_allclose(denoised, one_call, rtol=0, atol=1e-14)


def test_denoise_memory_does_not_grow_with_the_image_count():
    model = DenoisingAutoencoder(ModelSpec(n_qubits=4, p=2, family="c"), seed=16)
    few, many = toy_images(32, seed=17, size=28), toy_images(256, seed=18, size=28)
    model.denoise(few)  # warm-up
    # one call over all 256 images peaks about 8x the 32-image pass
    assert peak_bytes(model.denoise, many) <= 2 * peak_bytes(model.denoise, few)


def test_denoise_holds_one_layer_of_activations():
    model = DenoisingAutoencoder(ModelSpec(n_qubits=4, p=2, family="c"), seed=16)
    x = toy_images(100, seed=17, size=28)
    model.forward(x[:25])  # training caches, as a validation pass finds them
    # 6.6 MiB while each layer kept its backward cache, 3.3 MiB with them released
    assert peak_bytes(model.denoise, x) <= 4.5 * 2**20
    assert all(layer._cache is None for layer in model.layers)


@pytest.mark.parametrize("spec", [ModelSpec(n_qubits=4, p=2, family="c"), ModelSpec(kind="ccae")],
                         ids=["qcae-c4", "ccae"])
def test_backward_after_denoise_is_an_error(spec):
    model = DenoisingAutoencoder(spec, seed=19)
    x = toy_images(3, seed=20, size=28)
    model.forward(x)
    model.denoise(x)  # drops what the forward kept
    with pytest.raises(ValueError, match="before forward"):
        model.backward(np.zeros_like(x))


def test_denoise_preserves_batch_order():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=42)
    x = toy_images(4, seed=43)
    batch = model.denoise(x)
    singles = np.concatenate([model.denoise(x[i:i + 1]) for i in range(4)])
    assert np.allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("spec", [toy_spec(family="b"), ModelSpec(kind="ccae")],
                         ids=["qcae-8", "ccae-28"])
def test_outputs_do_not_depend_on_input_memory_order(spec):
    model = DenoisingAutoencoder(spec, seed=46)
    x = toy_images(3, seed=47, size=spec.image_size)
    assert np.array_equal(model.forward(x), model.forward(np.asfortranarray(x)))


def test_denoised_images_write_the_bytes_of_their_c_ordered_copy(tmp_path):
    # conv layers hand back views of batch-innermost memory; files must not see it
    model = DenoisingAutoencoder(ModelSpec(kind="ccae"), seed=48)
    denoised = model.denoise(toy_images(3, seed=49, size=28))
    labels = np.arange(3)
    written = []
    for i, images in enumerate((denoised, np.ascontiguousarray(denoised))):
        paths = [tmp_path / f"{i}{end}" for end in (".pgm", "-images", "-labels")]
        export_pgm(images[1], paths[0])
        write_idx(MnistSet(images, labels), paths[1], paths[2])
        written.append([path.read_bytes() for path in paths])
    assert written[0] == written[1]


def test_weight_save_load_round_trip(tmp_path):
    spec = toy_spec(family="b")
    model = DenoisingAutoencoder(spec, seed=44)
    x = toy_images(2, seed=45)
    expected = model.forward(x)
    path = tmp_path / "weights.bin"
    model.save(path)
    fresh = DenoisingAutoencoder(spec, seed=999)
    assert not np.allclose(fresh.forward(x), expected)
    fresh.load(path)
    assert np.array_equal(fresh.forward(x), expected)


def test_refused_load_changes_no_weight(tmp_path):
    # an 8x8 ccae shares its three encoder convolutions (6 of 16 tensors) with
    # an 8x8 qcae-c4p2 and differs from the dense head on
    path = tmp_path / "weights.bin"
    DenoisingAutoencoder(ModelSpec(kind="ccae", image_size=8, n_qubits=4), seed=46).save(path)
    model = DenoisingAutoencoder(ModelSpec(image_size=8, n_qubits=4, p=2, family="c"), seed=47)
    x = toy_images(2, seed=48)
    before, expected = model.params.copy(), model.forward(x)
    with pytest.raises(ValueError, match="shape"):
        model.load(path)
    assert np.array_equal(model.params, before)
    assert np.array_equal(model.forward(x), expected)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="vae")
    with pytest.raises(ValueError, match="p must"):
        ModelSpec(p=0)
    with pytest.raises(ValueError, match="n_qubits must be >= 1, got 0"):
        ModelSpec(n_qubits=0)
    for kind, width in (("ccae", 0), ("ccae", -2), ("qcae", 4)):
        with pytest.raises(ValueError, match="latent_width"):
            ModelSpec(kind=kind, latent_width=width)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(sigma=-1.0)
