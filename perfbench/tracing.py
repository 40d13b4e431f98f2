"""Span tracing for the traced benchmark run, installed from outside qcae.

Each entry of BOUNDARIES names a function binding where its caller looks
it up (a module global, or a method on a class) and the span it records.
Installing a Tracer swaps every binding it can find for a wrapper that
records one span per call; uninstalling puts the originals back, so traced
and untraced steps can alternate in one process. A binding that no longer
exists (a later refactor removed or renamed it) is listed in
Tracer.missing and the metrics built on it are reported absent.

A span is (name, start, end, parent span, step id), kept in flat arrays in
memory and written out once at the end. Hooks on some boundaries add
computed counts (circuit evaluations, amplitude bytes, conv MACs) derived
from the call's arguments and result shapes, never from timing.
"""
from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

AMP_BYTES = 16  # complex128


def _psr_evals(args, result):
    return {"gradient.circuit_evals": int(result.n_executions)}


def _gate_bytes(args, result):
    # one read and one write of the whole amplitude vector per gate
    return {"statevector.amp_bytes": 2 * AMP_BYTES * (1 << int(args[0].n_qubits))}


def _conv_fwd_macs(args, result):
    layer = args[0]
    out_c, in_c, k, _ = layer.weight.shape
    n, _, h, w = result.shape
    return {"nn.conv_macs": n * out_c * h * w * in_c * k * k}


def _conv_bwd_macs(args, result):
    # weight gradient plus input gradient, each the size of the forward
    layer, upstream = args[0], args[1]
    out_c, in_c, k, _ = layer.weight.shape
    n, _, h, w = upstream.shape
    return {"nn.conv_macs": 2 * n * out_c * h * w * in_c * k * k}


def _tconv_fwd_macs(args, result):
    layer, x = args[0], args[1]
    in_c, out_c, k, _ = layer.weight.shape
    n, _, h, w = x.shape
    return {"nn.conv_macs": n * in_c * h * w * out_c * k * k}


def _tconv_bwd_macs(args, result):
    layer = args[0]
    in_c, out_c, k, _ = layer.weight.shape
    n, _, h, w = result.shape
    return {"nn.conv_macs": 2 * n * in_c * h * w * out_c * k * k}


# (module, attribute path, span name, hook). Names looked up in several
# modules are patched at each site: model and gradient hold their own
# bindings of run_circuit and measure_all_z.
BOUNDARIES = (
    ("qcae", "make_synthetic_digits", "data_io.synthetic", None),
    ("qcae", "add_gaussian_noise", "data_io.noise", None),
    ("qcae.model", "add_gaussian_noise", "data_io.noise", None),
    ("qcae", "mean_ssim", "metrics.mean_ssim", None),
    ("qcae.model", "mean_ssim", "metrics.mean_ssim", None),
    ("qcae.metrics", "ssim", "metrics.ssim", None),
    ("qcae.model", "DenoisingAutoencoder.__init__", "model.init", None),
    ("qcae.model", "DenoisingAutoencoder.forward", "model.forward", None),
    ("qcae.model", "DenoisingAutoencoder.backward", "model.backward", None),
    ("qcae.model", "DenoisingAutoencoder.denoise", "model.denoise", None),
    ("qcae.model", "QuantumLatent.forward", "model.quantum.fwd", None),
    ("qcae.model", "QuantumLatent.backward", "model.quantum.bwd", None),
    ("qcae.model", "mse_loss", "nn.loss", None),
    ("qcae.model", "psr_gradient", "gradient.psr", _psr_evals),
    ("qcae.model", "run_circuit", "statevector.run_circuit", None),
    ("qcae.gradient", "run_circuit", "statevector.run_circuit", None),
    ("qcae.model", "measure_all_z", "statevector.measure_all_z", None),
    ("qcae.gradient", "measure_all_z", "statevector.measure_all_z", None),
    ("qcae.statevector", "apply_gate", "statevector.apply_gate", _gate_bytes),
    ("qcae.ansatz", "CircuitTemplate.bind", "ansatz.bind", None),
    ("qcae.ansatz", "CircuitTemplate.bind_with_shift", "ansatz.bind", None),
    ("qcae.nn", "Conv2d.forward", "nn.conv2d.fwd", _conv_fwd_macs),
    ("qcae.nn", "Conv2d.backward", "nn.conv2d.bwd", _conv_bwd_macs),
    ("qcae.nn", "ConvTranspose2d.forward", "nn.tconv2d.fwd", _tconv_fwd_macs),
    ("qcae.nn", "ConvTranspose2d.backward", "nn.tconv2d.bwd", _tconv_bwd_macs),
    ("qcae.nn", "Dense.forward", "nn.dense.fwd", None),
    ("qcae.nn", "Dense.backward", "nn.dense.bwd", None),
    ("qcae.nn", "LeakyReLU.forward", "nn.act", None),
    ("qcae.nn", "LeakyReLU.backward", "nn.act", None),
    ("qcae.nn", "Sigmoid.forward", "nn.act", None),
    ("qcae.nn", "Sigmoid.backward", "nn.act", None),
    ("qcae.nn", "Adam.step", "nn.adam", None),
)

COMPUTED_COUNTS = ("gradient.circuit_evals", "statevector.apply_gate.calls",
                   "statevector.amp_bytes", "nn.conv_macs")


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value, whether owner itself defines it),
    or None if the binding is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    # read class attributes from __dict__ so a plain function comes back,
    # not a bound method, and an inherited one is recognised as such
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return owner, attr, klass.__dict__[attr], klass is owner
        return None
    return owner, attr, getattr(owner, attr), True


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []
        self.step_id = -1  # -1 marks set-up, before the first step
        self.missing: list[str] = []  # bindings not found
        self.failed_hooks: set[str] = set()  # counts whose hook raised
        self.spans_installed: set[str] = set()
        self._patches = []
        for module_name, path, span_name, hook in BOUNDARIES:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original, own = found
            self.spans_installed.add(span_name)
            self._patches.append((owner, attr, original, own,
                                  self._wrap(span_name, original, hook)))

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, span_name: str, fn, hook):
        nid = self._id(span_name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    counted = hook(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # the call's signature or result changed shape
                    tracer.failed_hooks.add(span_name)
                    return result
                for key, value in counted.items():
                    slot = (tracer.step_id, key)
                    tracer.counts[slot] = tracer.counts.get(slot, 0) + value
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one train() call."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self):
        """Swap every found binding for its traced wrapper, then restore."""
        for owner, attr, _, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, own, _ in self._patches:
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns; durations in seconds."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "step": np.frombuffer(self.step, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# Per-layer metrics read straight off one span name, per step:
# "calls" counts the spans, "time" sums their durations, "self" sums their
# self time, and "count" sums what the span's hook computed.
SPAN_METRICS = {
    "statevector.run_circuit.calls": ("calls", "statevector.run_circuit", "count"),
    "statevector.run_circuit_s": ("time", "statevector.run_circuit", "s"),
    "statevector.apply_gate.calls": ("calls", "statevector.apply_gate", "count"),
    "statevector.apply_gate_s": ("time", "statevector.apply_gate", "s"),
    "statevector.measure_all_z_s": ("time", "statevector.measure_all_z", "s"),
    "statevector.amp_bytes": ("count", "statevector.apply_gate", "B"),
    "ansatz.bind.calls": ("calls", "ansatz.bind", "count"),
    "ansatz.bind_s": ("time", "ansatz.bind", "s"),
    "gradient.psr.calls": ("calls", "gradient.psr", "count"),
    "gradient.psr_s": ("time", "gradient.psr", "s"),
    "gradient.psr_self_s": ("self", "gradient.psr", "s"),
    "gradient.circuit_evals": ("count", "gradient.psr", "count"),
    "nn.conv2d.fwd_s": ("time", "nn.conv2d.fwd", "s"),
    "nn.conv2d.bwd_s": ("time", "nn.conv2d.bwd", "s"),
    "nn.tconv2d.fwd_s": ("time", "nn.tconv2d.fwd", "s"),
    "nn.tconv2d.bwd_s": ("time", "nn.tconv2d.bwd", "s"),
    "nn.dense.fwd_s": ("time", "nn.dense.fwd", "s"),
    "nn.dense.bwd_s": ("time", "nn.dense.bwd", "s"),
    "nn.act_s": ("time", "nn.act", "s"),
    "nn.adam_s": ("time", "nn.adam", "s"),
    "nn.conv_macs": ("count", "nn.conv2d.fwd", "MAC"),
    "model.quantum.fwd_s": ("time", "model.quantum.fwd", "s"),
    "model.quantum.bwd_s": ("time", "model.quantum.bwd", "s"),
    "model.denoise_s": ("time", "model.denoise", "s"),
    "metrics.ssim.calls": ("calls", "metrics.ssim", "count"),
    "metrics.ssim_s": ("time", "metrics.mean_ssim", "s"),
}
LAYERS = ("statevector", "ansatz", "gradient", "nn", "model", "metrics", "data_io")
# metrics that are not one span's figure, and the spans they need
DERIVED_SPANS = {
    "gradient.evals_per_sample": ("gradient.psr",),
    "model.steps": ("model.forward", "nn.adam"),
    "model.step_ms_p50": ("model.forward", "nn.adam"),
    "model.step_ms_p90": ("model.forward", "nn.adam"),
    "data_io.synthetic_s": ("data_io.synthetic",),
    "data_io.noise_s": ("data_io.noise",),
}
# counts that must come out identical in every step of a run
REPEATING = ("statevector.run_circuit.calls", "statevector.apply_gate.calls",
             "ansatz.bind.calls", "gradient.psr.calls", "metrics.ssim.calls",
             "gradient.circuit_evals", "statevector.amp_bytes", "nn.conv_macs",
             "model.steps")


def absent_metrics(tracer: Tracer) -> list[str]:
    """Per-layer metrics whose spans or counting hooks are missing."""
    absent = []
    for metric, (kind, span, _) in SPAN_METRICS.items():
        if span not in tracer.spans_installed or (kind == "count" and span in tracer.failed_hooks):
            absent.append(metric)
    for metric, spans in DERIVED_SPANS.items():
        if not all(s in tracer.spans_installed for s in spans) or (
                metric == "gradient.evals_per_sample" and "gradient.psr" in tracer.failed_hooks):
            absent.append(metric)
    for lay in LAYERS:
        if not any(s.startswith(lay + ".") for s in tracer.spans_installed):
            absent.append(f"{lay}.self_s")
    return absent


def summarize(tracer: Tracer, steps: list[int]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced steps.

    Per-step figures are the median over the traced steps; step latencies
    pool the training steps of every traced step; data_io.synthetic_s and
    data_io.noise_s are set-up figures (step -1). trace.coverage is the
    share of the train() spans' time covered by their direct child spans.
    Returns ({metric: (value, unit)}, metrics in REPEATING whose value
    differed between steps).
    """
    cols = tracer.arrays()
    names = np.array(tracer.names)
    name_of = names[cols["name_id"]]
    parent, step = cols["parent"], cols["step"]
    dur = cols["end"] - cols["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    parent_name = np.where(has_parent, name_of[np.maximum(parent, 0)], "")
    layer = np.array([n.split(".")[0] for n in tracer.names])[cols["name_id"]]
    # bind calls bind_with_shift: a span directly inside one of the same
    # name is part of that call, not a second one
    outer = parent_name != name_of

    per_step: dict[str, list[float]] = {}
    step_ms: list[float] = []
    covered = root_time = 0.0
    for s in steps:
        in_step = step == s
        for metric, (kind, span, _) in SPAN_METRICS.items():
            sel = in_step & (name_of == span)
            if kind == "calls":
                value = np.count_nonzero(sel & outer)
            elif kind == "time":
                value = dur[sel & outer].sum()
            elif kind == "self":
                value = self_time[sel].sum()
            else:
                value = tracer.counts.get((s, metric), 0)
            per_step.setdefault(metric, []).append(float(value))
        for lay in LAYERS:
            per_step.setdefault(f"{lay}.self_s", []).append(
                float(self_time[in_step & (layer == lay)].sum()))
        calls = per_step["gradient.psr.calls"][-1]
        per_step.setdefault("gradient.evals_per_sample", []).append(
            per_step["gradient.circuit_evals"][-1] / calls if calls else 0.0)
        # a training step runs from a forward that train() itself calls
        # (validation forwards sit under model.denoise) to its Adam update
        roots = np.flatnonzero(in_step & (name_of == "bench.train"))
        direct = in_step & np.isin(parent, roots)
        fwd_start = cols["start"][direct & (name_of == "model.forward")]
        adam_end = cols["end"][direct & (name_of == "nn.adam")]
        per_step.setdefault("model.steps", []).append(float(len(adam_end)))
        step_ms.extend(1e3 * (adam_end - fwd_start[:len(adam_end)]))
        covered += dur[direct].sum()
        root_time += dur[roots].sum()

    units = {m: unit for m, (_, _, unit) in SPAN_METRICS.items()}
    units.update({"gradient.evals_per_sample": "1/sample", "model.steps": "count"})
    out = {m: (float(np.median(v)), units.get(m, "s")) for m, v in per_step.items()}
    out["model.step_ms_p50"] = (float(np.percentile(step_ms, 50)) if step_ms else 0.0, "ms")
    out["model.step_ms_p90"] = (float(np.percentile(step_ms, 90)) if step_ms else 0.0, "ms")
    setup = (step == -1) & outer
    out["data_io.synthetic_s"] = (float(dur[setup & (name_of == "data_io.synthetic")].sum()), "s")
    out["data_io.noise_s"] = (float(dur[setup & (name_of == "data_io.noise")].sum()), "s")
    out["trace.coverage"] = (covered / root_time if root_time else 0.0, "ratio")
    unsteady = [m for m in REPEATING if len(set(per_step[m])) > 1]
    return out, unsteady
