"""End-to-end denoising: train the classical and hybrid autoencoders on the
synthetic digit corpus, compare SSIM against the noisy baseline, and write
comparison panels as PGM images.

Uses the bundled synthetic 0/1 corpus so it runs anywhere; point the CLI at
real MNIST IDX files for the full-size experience. Takes a few seconds, and
writes its panels to demo_output/ in the working directory.

Run with: python3 demos/05_train_denoiser.py
"""
from pathlib import Path

from qcae import (
    ModelSpec,
    NoiseSpec,
    TrainConfig,
    add_gaussian_noise,
    export_pgm,
    make_synthetic_digits,
    mean_ssim,
    montage,
    train,
)

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

print("== data ==")
train_set = make_synthetic_digits(200, seed=0)
val_set = make_synthetic_digits(60, seed=1)
sigma = 0.5
val_clean = val_set.images[:60]
val_noisy = add_gaussian_noise(val_clean, NoiseSpec(sigma, seed=2))
baseline = mean_ssim(val_noisy, val_clean)
print(f"{len(train_set)} training digits, noise sigma {sigma}")
print(f"noisy-input baseline ssim: {baseline:.4f}")

config = TrainConfig(epochs=10, batch_size=16, seed=7, sigma=sigma,
                     learning_rate=3e-3, sample_limit=200, val_limit=60)

print("\n== classical autoencoder (dense latent) ==")
ccae_spec = ModelSpec(kind="ccae", n_qubits=4)
ccae, ccae_records = train(ccae_spec, config, train_set, val_set)
for r in ccae_records:
    print(f"  epoch {r.epoch}: loss {r.train_loss:.4f}, val ssim {r.val_ssim:.4f}")

print("\n== hybrid autoencoder (circuit family c latent, 4 qubits, p=2) ==")
qcae_spec = ModelSpec(kind="qcae", n_qubits=4, p=2, family="c")
qcae, qcae_records = train(qcae_spec, config, train_set, val_set)
for r in qcae_records:
    print(f"  epoch {r.epoch}: loss {r.train_loss:.4f}, val ssim {r.val_ssim:.4f}")

print("\n== results ==")
print(f"noisy baseline : {baseline:.4f}")
print(f"classical      : {ccae_records[-1].val_ssim:.4f}")
print(f"hybrid         : {qcae_records[-1].val_ssim:.4f}")

ccae_out = ccae.denoise(val_noisy[:6])
qcae_out = qcae.denoise(val_noisy[:6])
for i in range(6):
    panel = montage([val_clean[i], val_noisy[i], ccae_out[i], qcae_out[i]])
    export_pgm(panel, OUT / f"panel_{i}.pgm")
print(f"\nwrote 6 panels (clean | noisy | classical | hybrid) to {OUT}/")
