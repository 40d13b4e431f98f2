"""Hybrid and classical autoencoders: forward semantics, gradient flow,
end-to-end finite-difference agreement, and training behaviour."""
import numpy as np
import pytest

from qcae.data_io import MnistSet, make_synthetic_digits
from qcae.model import (
    DenoisingAutoencoder,
    ModelSpec,
    TrainConfig,
    TrainingAborted,
    train,
)
from qcae.nn import LayerSpec, mse_loss
from qcae.statevector import NoiseChannel

from oracles import fd_gradient

TOY = dict(image_size=8, n_qubits=2, p=1)


def toy_spec(**kw) -> ModelSpec:
    merged = {**TOY, **kw}
    return ModelSpec(**merged)


def stack_tensors(stack, prefix=""):
    """Every weight and bias (or, with prefix "grad_", gradient) of a stack."""
    return [getattr(layer, prefix + name) for layer in stack.layers
            for name in ("weight", "bias") if hasattr(layer, name)]


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


def test_zero_weights_send_all_angles_to_pi():
    model = DenoisingAutoencoder(toy_spec(family="ours"), seed=2)
    for p in stack_tensors(model.encoder):
        p[...] = 0.0
    out1 = model.forward(np.zeros((1, 1, 8, 8)))
    assert np.allclose(model.quantum._angles, np.pi)
    out2 = model.forward(np.zeros((1, 1, 8, 8)))
    assert np.array_equal(out1, out2)


def test_qaoa_latent_expectations_are_zero():
    # ring cost + X mixer + H wall commute with global bit flip, which
    # anticommutes with every Z: the per-qubit readout vanishes identically
    model = DenoisingAutoencoder(toy_spec(family="ours"), seed=3)
    model.forward(toy_images(3, seed=4))
    latent = model.decoder.layers[0]._x
    assert np.allclose(latent, 0.0, atol=1e-12)


def test_family_b_latent_carries_signal():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=3)
    model.forward(toy_images(3, seed=4))
    latent = model.decoder.layers[0]._x
    assert not np.allclose(latent, 0.0, atol=1e-6)
    assert np.all(np.abs(latent) <= 1.0 + 1e-12)


def test_latent_contract_for_qaoa_grid():
    for n in (2, 3, 4):
        for p in (1, 2):
            spec = ModelSpec(image_size=8, n_qubits=n, p=p, family="ours")
            model = DenoisingAutoencoder(spec, seed=5)
            assert model.quantum.n_parameters == 2 * p
            encoded = model.encoder.forward(toy_images(2, seed=6))
            assert encoded.shape == (2, 2 * p)
            z = model.quantum.forward(encoded)
            assert z.shape == (2, n)
            assert np.all(np.abs(z) <= 1.0 + 1e-12)


def test_ccae_latent_width_defaults_to_n_qubits():
    model = DenoisingAutoencoder(toy_spec(kind="ccae", n_qubits=3), seed=7)
    encoded = model.encoder.forward(toy_images(2, seed=8))
    assert encoded.shape == (2, 3)
    assert model.forward(toy_images(2, seed=8)).shape == (2, 1, 8, 8)


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
    for g in stack_tensors(model.encoder, "grad_"):
        assert np.allclose(g, 0.0)
    assert any(np.max(np.abs(g)) > 0 for g in stack_tensors(model.decoder, "grad_"))


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

    encoded = model.encoder.forward(x)
    z = model.quantum.forward(encoded)
    recon = model.decoder.forward(z)
    _, loss_grad = mse_loss(recon, target)
    d_z = model.decoder.backward(loss_grad)
    d_y = model.quantum.backward(d_z)

    def scalar(y_flat):
        z_val = model.quantum.forward(y_flat.reshape(encoded.shape))
        return mse_loss(model.decoder.forward(z_val), target)[0]

    numeric = fd_gradient(scalar, encoded.ravel(), h=1e-5).reshape(encoded.shape)
    assert np.max(np.abs(d_y - numeric)) < 1e-6


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


def test_parameter_free_stacks_train_on_an_empty_buffer():
    spec = ModelSpec(kind="ccae", image_size=28, encoder=[LayerSpec("flatten")],
                     decoder=[LayerSpec("reshape", shape=(1, 28, 28))])
    model, records = train(spec, small_train_config(epochs=1), *synthetic_sets())
    assert model.params.shape == model.grads.shape == (0,)
    assert np.isfinite(records[0].train_loss)


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
    train_set, _ = synthetic_sets(16, 4)
    train_set = MnistSet(train_set.images[:, :, ::4, ::4][:, :, :8, :8],
                         train_set.labels)  # make cheap 8x8-ish inputs
    train_set = MnistSet(np.resize(train_set.images, (16, 1, 8, 8)), train_set.labels[:16])
    model_spec = spec

    # poison by injecting nan through a custom spec is awkward; train a fresh
    # model whose first weight is nan via monkeypatched init
    from qcae import model as model_module

    original = model_module.DenoisingAutoencoder

    class Poisoned(original):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.encoder.layers[0].weight[0] = np.nan

    model_module.DenoisingAutoencoder, saved = Poisoned, original
    try:
        with pytest.raises(TrainingAborted) as info:
            model_module.train(model_spec, small_train_config(sample_limit=16),
                               train_set, None)
        assert np.isnan(info.value.records[-1].train_loss)
    finally:
        model_module.DenoisingAutoencoder = saved


def test_empty_training_set_rejected():
    spec = ModelSpec(kind="ccae", image_size=8)
    empty = MnistSet(np.zeros((0, 1, 8, 8)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        train(spec, small_train_config(), empty)


# ------------------------------------------------------------------- denoise

def test_denoise_repeats_identically_and_clamps():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=40)
    x = toy_images(3, seed=41)
    a, b = model.denoise(x), model.denoise(x)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_denoise_preserves_batch_order():
    model = DenoisingAutoencoder(toy_spec(family="b"), seed=42)
    x = toy_images(4, seed=43)
    batch = model.denoise(x)
    singles = np.concatenate([model.denoise(x[i:i + 1]) for i in range(4)])
    assert np.allclose(batch, singles, atol=1e-12)


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
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(sigma=-1.0)
