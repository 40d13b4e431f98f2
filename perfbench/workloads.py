"""The benchmark's workloads, their set-up, closed loop and output checks.

Every workload is a closed loop with one client: a step starts when the
previous one ends. A step is one `train()` call for one epoch, followed by
one eval pass of the model it returns, as `qcae eval` runs it: `denoise`
over the whole validation set in one call, then `mean_ssim` against the
clean images. Epoch cost does not depend on weight values, so each step
trains a fresh model, each from its own init seed.

Untraced steps call only qcae's public entry points. The traced run
alternates untraced and traced steps in one process, so the tracing
overhead is measured against steps that ran in the same conditions.

Each step runs pinned to one usable core, taking the cores in turn. On a
shared host each core speeds up and slows down on its own, for seconds to
minutes at a time, so a run that visits every core is likelier to time
some steps on a fast one (README.md, "Host noise").
"""
from __future__ import annotations

import json
import math
import os
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qcae
from qcae.metrics import ssim_config_for

SIGMA = 0.5
LEARNING_RATE = 3e-3
BATCH_SIZE = 16
FD_STEP = 1e-5
FD_TOLERANCE = 1e-7
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict  # ModelSpec keyword arguments
    n_train: int
    n_val: int

    @property
    def hybrid(self) -> bool:
        return self.model["kind"] == "qcae"


WORKLOADS = {w.name: w for w in (
    Workload("train_hybrid_c4", dict(kind="qcae", n_qubits=4, p=2, family="c", image_size=28),
             n_train=200, n_val=100),
    Workload("train_classical", dict(kind="ccae", n_qubits=4, latent_width=4, image_size=28),
             n_train=200, n_val=100),
    Workload("train_hybrid_b8", dict(kind="qcae", n_qubits=8, p=3, family="b", image_size=8),
             n_train=32, n_val=100),
)}


@dataclass
class Inputs:
    """Everything generated from the workload seed before the first step."""

    spec: qcae.ModelSpec
    train_set: object
    val_set: object
    val_noisy: np.ndarray
    init_seed: int


def set_up(w: Workload, seed: int) -> Inputs:
    """Corpus, noise and model spec: all a step needs."""
    corpus_seed, val_seed, noise_seed, init_seed = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(4))
    size = w.model["image_size"]
    train_set = qcae.make_synthetic_digits(w.n_train, seed=corpus_seed, size=size)
    val_set = qcae.make_synthetic_digits(w.n_val, seed=val_seed, size=size)
    val_noisy = qcae.add_gaussian_noise(val_set.images, qcae.NoiseSpec(SIGMA, noise_seed))
    return Inputs(qcae.ModelSpec(**w.model), train_set, val_set, val_noisy, init_seed)


@dataclass
class Log:
    """Timings and outcomes of the steps of one run."""

    epoch_s: list[float] = field(default_factory=list)
    traced_epoch_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    traced_steps: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


def _no_span(name):
    return nullcontext()


def _fails(log: Log, what: str) -> None:
    log.attempted += 1
    log.failed += 1
    log.notes.append(f"{what} raised: {traceback.format_exc().strip().splitlines()[-1]}")
    traceback.print_exc(file=sys.stderr)


def _eval_pass(inputs, model, log, span, j):
    """Denoise the validation set in one call and score it; (seconds, ssim)."""
    clean = inputs.val_set.images
    try:
        t0 = perf_counter()
        with span("bench.eval"):
            denoised = model.denoise(inputs.val_noisy)
            score = qcae.mean_ssim(denoised, clean, ssim_config_for(clean.shape))
        elapsed = perf_counter() - t0
    except Exception:  # noqa: BLE001 - a failed pass is counted, the run goes on
        _fails(log, f"eval pass {j}")
        return None
    ok = (denoised.shape == clean.shape and bool(np.isfinite(denoised).all())
          and denoised.min() >= 0.0 and denoised.max() <= 1.0 and math.isfinite(score))
    log.outcome(ok, f"eval pass {j} output")
    return elapsed, score


def _train_step(w, inputs, j, log, span):
    """One epoch of train() on a fresh model; (seconds, model, last record)."""
    config = qcae.TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=inputs.init_seed + j,
                              sigma=SIGMA, learning_rate=LEARNING_RATE,
                              sample_limit=w.n_train, val_limit=w.n_val)
    try:
        t0 = perf_counter()
        with span("bench.train"):
            model, records = qcae.train(inputs.spec, config, inputs.train_set, inputs.val_set)
        elapsed = perf_counter() - t0
    except Exception:  # noqa: BLE001 - a failed step is counted, the run goes on
        _fails(log, f"train step {j}")
        return None
    ok = bool(records) and all(math.isfinite(r.train_loss) and math.isfinite(r.val_ssim)
                               for r in records)
    log.outcome(ok, f"train step {j} loss/val_ssim finite")
    return elapsed, model, records[-1]


def reference(w: Workload, log: Log) -> dict | None:
    """Train loss and val_ssim of one full epoch on the fixed reference input.

    Untimed; it also warms every code path. The reference input comes from
    REFERENCE_SEED whatever the run's seed, so the figures repeat for the
    same code. Each is checked against the value stored in REFERENCE_FILE,
    so any change in the numbers, up or down, fails the run.
    """
    inputs = set_up(w, REFERENCE_SEED)
    done = _train_step(w, inputs, 0, log, _no_span)
    if done is None:
        return None
    _, model, record = done
    _eval_pass(inputs, model, log, _no_span, "reference")
    return {"train_loss": float(record.train_loss), "val_ssim": float(record.val_ssim)}


def check_reference(w: Workload, figures: dict | None, log: Log) -> None:
    stored = json.loads(REFERENCE_FILE.read_text()).get(w.name, {}) if REFERENCE_FILE.is_file() else {}
    for key in ("train_loss", "val_ssim"):
        got = math.nan if figures is None else figures[key]
        want = stored.get(key)
        ok = want is not None and math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
        log.outcome(ok, f"reference {key} {got!r} against stored {want!r}")


def record_reference(w: Workload, figures: dict) -> None:
    """Store the reference figures of one workload in REFERENCE_FILE."""
    stored = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    stored[w.name] = figures
    REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def run_loop(w: Workload, inputs: Inputs, seconds: float, tracer=None, pause=None) -> Log:
    """Closed loop for `seconds`; with a tracer, odd steps are traced.

    A traced step runs on the same core as the untraced step before it.
    `pause`, if given, is called before each step with the share of the
    measuring time used so far; the time it takes does not count.
    """
    log = Log()
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + seconds
    j = 0
    last = 0.0
    # stop once a step like the last one would end more than half past the deadline
    while j < (2 if tracer else 1) or perf_counter() + 0.5 * last < deadline:
        if pause is not None:
            t1 = perf_counter()
            pause(1.0 - (deadline - t1) / seconds)
            deadline += perf_counter() - t1
        traced = tracer is not None and j % 2 == 1
        os.sched_setaffinity(0, {cpus[(j // 2 if tracer else j) % len(cpus)]})
        context = tracer.installed() if traced else nullcontext()
        span = tracer.span if traced else _no_span
        t0 = perf_counter()
        with context:
            if traced:
                tracer.step_id = j
                log.traced_steps.append(j)
            done = _train_step(w, inputs, j, log, span)
            if done is not None:
                (log.traced_epoch_s if traced else log.epoch_s).append(done[0])
                evaluated = _eval_pass(inputs, done[1], log, span, j)
                if evaluated is not None and not traced:
                    log.eval_s.append(evaluated[0])
        last = perf_counter() - t0
        j += 1
    os.sched_setaffinity(0, cpus)
    return log


def check_psr(w: Workload, seed: int, log: Log) -> None:
    """One PSR jacobian against a central finite difference of the same circuit.

    Uses the package's public circuit API; if a later refactor removes one
    of those names the check is reported absent, not failed.
    """
    if not w.hybrid:
        return
    try:
        template_of, psr = qcae.family_template, qcae.psr_gradient
        run_circuit, measure = qcae.run_circuit, qcae.measure_all_z
    except AttributeError as exc:
        log.notes.append(f"psr check absent: {exc}")
        return
    try:
        m = w.model
        template = template_of(m["family"], m["n_qubits"], m["p"])
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, template.slot_count)
        jac = psr(template, theta).entries

        def expect(params):
            return measure(run_circuit(m["n_qubits"], template.bind(params)))

        fd = np.empty_like(jac)
        for k in range(template.slot_count):
            shift = np.zeros_like(theta)
            shift[k] = FD_STEP
            fd[:, k] = (expect(theta + shift) - expect(theta - shift)) / (2.0 * FD_STEP)
        error = float(np.max(np.abs(jac - fd)))
    except Exception:  # noqa: BLE001 - a failed check is counted, the run goes on
        _fails(log, "psr check")
        return
    log.outcome(error <= FD_TOLERANCE, f"psr jacobian vs finite difference (max error {error:.2e})")
    log.notes.append(f"psr jacobian {jac.shape}: max |psr - fd| = {error:.2e}")
