"""Benchmark of the qcae denoiser: training epochs and eval throughput.

    python3 perfbench/run.py --workload train_hybrid_c4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable report, and the full record (environment included) is
written to perfbench/out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 10  # spread over the timed loop; see SetupProbes
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_qcae():
    """Import qcae from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import qcae

    if Path(qcae.__file__).resolve().parent != ROOT / "src" / "qcae":
        raise ImportError(f"qcae imported from {qcae.__file__}, not from {ROOT / 'src'}")
    return qcae


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
    return elapsed


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over the timed loop.

    Host slowdowns come in phases of seconds to minutes, so probes bunched
    at one end of a run all land in the same phase; spread out, the fastest
    of them is as likely as the fastest epoch to fall in a quiet one. Each
    probe is pinned to one core, taking the cores in turn as the timed steps
    do.
    """

    def __init__(self, workload: str, seed: int, log):
        self.workload, self.seed, self.log = workload, seed, log
        self.times: list[float] = []
        self.done = 0

    def probe(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[self.done % len(cpus)]})  # the probe inherits it
        self.done += 1
        try:
            self.times.append(probe_setup(self.workload, self.seed))
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            self.log.outcome(False, f"set-up probe: {exc}")
        finally:
            os.sched_setaffinity(0, cpus)

    def pause(self, fraction: float) -> None:
        """Between steps: probe if the loop is `fraction` through and behind plan."""
        if self.done < SETUP_PROBES and self.done < 1 + fraction * (SETUP_PROBES - 1):
            self.probe()

    def finish(self) -> list[float]:
        while self.done < SETUP_PROBES:
            self.probe()
        return self.times


def end_to_end(w, log, setup_s: list[float], val_ssim: float) -> dict:
    """Timings come from the run's least-disturbed samples: the fastest
    epoch, the fastest eval pass and the fastest set-up. Interference from
    the shared host only adds time, and it comes in phases of seconds to
    minutes that a run's median does not average out (see README.md,
    "Host noise")."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "epoch_s": (min(log.epoch_s), "s"),
        "eval_images_per_s": (w.n_val / min(log.eval_s), "images/s"),
        "setup_s": (min(setup_s), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "val_ssim": (val_ssim, "ssim"),
    }


def run_one(args, blas_threads: int) -> int:
    import numpy as np
    import workloads as wl
    import tracing

    w = wl.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    log = wl.Log()
    probes = None if args.trace else SetupProbes(w.name, args.seed, log)
    if tracer:
        with tracer.installed():
            inputs = wl.set_up(w, args.seed)
    else:
        inputs = wl.set_up(w, args.seed)
    figures = wl.reference(w, log)
    if args.record_reference and figures:
        wl.record_reference(w, figures)
    wl.check_reference(w, figures, log)
    val_ssim = figures["val_ssim"] if figures else math.nan
    wl.check_psr(w, args.seed, log)
    loop = wl.run_loop(w, inputs, args.seconds, tracer, probes and probes.pause)
    setup_s = probes.finish() if probes else []
    log.attempted += loop.attempted
    log.failed += loop.failed
    log.notes += loop.notes
    measured = bool(loop.epoch_s and loop.eval_s
                    and (loop.traced_epoch_s if args.trace else setup_s))
    if not measured:
        log.outcome(False, "no step completed")

    report = [f"workload {w.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
              f"{len(loop.epoch_s)} untraced steps, {len(loop.traced_epoch_s)} traced, "
              f"{len(loop.eval_s)} timed eval passes of {w.n_val} images"]
    extra = {}
    if measured:
        if args.trace:
            metrics, unsteady = tracing.summarize(tracer, loop.traced_steps)
            base = statistics.median(loop.epoch_s)
            metrics["trace.overhead"] = (statistics.median(loop.traced_epoch_s) / base, "ratio")
            metrics["trace.base_epoch_s"] = (base, "s")
            for name in unsteady:
                log.outcome(False, f"computed count {name} differs between steps")
            log.attempted += len(tracing.REPEATING) - len(unsteady)
            absent = tracing.absent_metrics(tracer)
            for name in absent:
                metrics[name] = (0.0, metrics.get(name, (0, "count"))[1])
            extra = {"absent_metrics": absent, "missing_bindings": tracer.missing,
                     "failed_hooks": sorted(tracer.failed_hooks),
                     "computed_counts": list(tracing.COMPUTED_COUNTS)}
            report.append(f"trace: {len(loop.traced_steps)} traced steps; overhead is the traced "
                          f"over the untraced median epoch_s ({base:.4f} s); training-step "
                          f"latencies pool {int(metrics['model.steps'][0]) * len(loop.traced_steps)}"
                          f" steps")
            if absent:
                report.append("absent (binding gone, reported as 0): " + ", ".join(absent))
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"trace-{w.name}.npz")
        else:
            metrics = end_to_end(w, loop, setup_s, val_ssim)
            eval_ms = [1e3 * t for t in loop.eval_s]
            report.append(f"not gated: epoch median {statistics.median(loop.epoch_s):.4f} s; "
                          f"eval pass latency p50 {statistics.median(eval_ms):.3f} ms, "
                          f"p90 {float(np.percentile(eval_ms, 90)):.3f} ms")
            report.append(f"samples: epoch_s over {len(loop.epoch_s)} steps, eval latency over "
                          f"{len(loop.eval_s)} passes of {w.n_val} images, setup_s over "
                          f"{len(setup_s)} fresh interpreters; val_ssim after one epoch on the "
                          f"reference input (seed {wl.REFERENCE_SEED})")
    else:
        metrics = {}
    report.append(f"error_rate = {log.failed}/{log.attempted} "
                  f"(steps, eval passes and output checks)")
    for name, (value, unit) in sorted(metrics.items()):
        label = " (computed)" if name in tracing.COMPUTED_COUNTS else ""
        report.append(f"  {name} = {value:.6g} {unit}{label}")
    report += [f"  note: {n}" for n in log.notes]

    env = environment(blas_threads)
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, report=report, **extra, result=result,
                  samples={"epoch_s": loop.epoch_s, "traced_epoch_s": loop.traced_epoch_s,
                           "eval_s": loop.eval_s, "setup_s": setup_s})
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args, names) -> int:
    """Every workload in its own interpreter, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's reference figures in perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(HERE))
    import_qcae()
    import workloads as wl

    if args.workload == "all":
        return run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(wl.WORKLOADS)} or all")
    if args.setup_probe:
        wl.set_up(wl.WORKLOADS[args.workload], args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
