"""Command-line front end: train, denoise, sweep, and eval.

One flat key=value config file drives everything; flags override file
values, and an ExperimentConfig refuses a bad value however it is made.
Its hash, config_id, names the output directory and the rows of each CSV
(all written by _write_csv), so runs never overwrite differing setups.
Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .data_io import filter_classes, load_idx, make_synthetic_digits
from .data_io import NoiseSpec, add_gaussian_noise, export_pgm, montage
from .metrics import mean_ssim
from .model import (DenoisingAutoencoder, ModelSpec, TrainConfig, TrainingAborted,
                    derive_seeds, train)
from .statevector import NoiseChannel

IDX_FILES = {"train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
             "val": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")}
# per dataset, the ExperimentConfig fields that load_split reads
_DATA_KEYS = {"idx": ("data_dir", "classes", "limit", "val_limit", "image_size"),
              "synthetic": ("classes", "limit", "val_limit", "seed", "image_size")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of a run; each field has a working default (a model or
    training field reads ModelSpec's, TrainConfig's or NoiseChannel's), and a
    value train would refuse is refused here, at construction or replace()."""

    dataset: str = "idx"  # idx | synthetic
    data_dir: str = "data/mnist"  # holds the four IDX files under their standard names
    classes: str = "0,1"
    limit: int = TrainConfig.sample_limit
    val_limit: int = TrainConfig.val_limit
    model: str = ModelSpec.kind  # qcae | ccae
    qubits: int = ModelSpec.n_qubits
    p: int = ModelSpec.p
    family: str = ModelSpec.family
    psr: bool = ModelSpec.psr_enabled
    sigma: float = TrainConfig.sigma
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    seed: int = TrainConfig.seed
    depolarizing_prob: float = NoiseChannel.depolarizing_prob
    readout_flip_prob: float = NoiseChannel.readout_flip_prob
    image_size: int = ModelSpec.image_size
    output_dir: str = "runs"

    def __post_init__(self):
        if self.dataset not in ("idx", "synthetic"):
            raise ValueError(f"dataset must be idx or synthetic, got {self.dataset!r}")
        if self.model not in ("qcae", "ccae"):
            raise ValueError(f"model must be qcae or ccae, got {self.model!r}")
        # fail fast on numeric ranges, naming the offending key
        _model_spec(self)
        _train_config(self)
        classes = _parsed_classes(self)
        if not classes:
            raise ValueError("classes must name at least one class")
        if self.dataset == "synthetic" and not set(classes) <= {0, 1}:
            raise ValueError(f"classes {self.classes!r}: "
                             "the synthetic corpus only provides 0 and 1")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    kind = _FIELD_TYPES[key]
    if kind == "str":
        return raw.strip()
    if kind == "bool":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
    else:
        try:
            return (int if kind == "int" else float)(raw)
        except ValueError:
            pass
    raise ValueError(f"config key {key!r}: cannot parse {kind} from {raw!r}")


def load_config_file(path) -> dict:
    """Parse `key = value` lines; # starts a comment, blank lines skipped."""
    overrides = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        overrides[key] = _coerce(key, value)
    return overrides


def resolve_config(config_path=None, flag_overrides: dict | None = None) -> ExperimentConfig:
    values = asdict(ExperimentConfig())
    if config_path:
        values.update(load_config_file(config_path))
    for key, raw in (flag_overrides or {}).items():
        if raw is not None:
            values[key] = _coerce(key, raw)
    return ExperimentConfig(**values)


def config_id(cfg: ExperimentConfig) -> str:
    canonical = "\n".join(f"{k}={v}" for k, v in sorted(asdict(cfg).items()))
    return hashlib.sha256(canonical.encode()).hexdigest()[:10]


def _model_spec(cfg: ExperimentConfig) -> ModelSpec:
    return ModelSpec(
        kind=cfg.model,
        n_qubits=cfg.qubits,
        p=cfg.p,
        family=cfg.family,
        psr_enabled=cfg.psr,
        noise=NoiseChannel(cfg.depolarizing_prob, cfg.readout_flip_prob),
        image_size=cfg.image_size,
    )


def _train_config(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        sigma=cfg.sigma,
        learning_rate=cfg.learning_rate,
        sample_limit=cfg.limit,
        val_limit=cfg.val_limit,
    )


def _parsed_classes(cfg: ExperimentConfig) -> list[int]:
    try:
        return [int(c) for c in cfg.classes.split(",") if c.strip() != ""]
    except ValueError as e:
        raise ValueError(f"classes must be comma-separated integers: {e}") from None


def load_split(cfg: ExperimentConfig, split: str):
    """The "train" or "val" split, filtered to the configured classes: its IDX
    pair under data_dir, or the synthetic corpus drawn from seed (seed + 1 for
    val). A split with no image of those classes is refused here, for every verb."""
    classes = _parsed_classes(cfg)
    limit = cfg.limit if split == "train" else cfg.val_limit
    if cfg.dataset == "synthetic":  # it draws limit >= 1 images of classes in {0, 1}
        return make_synthetic_digits(limit, classes, cfg.seed + (split == "val"), cfg.image_size)
    data_dir = Path(cfg.data_dir)
    dataset = load_idx(*(data_dir / name for name in IDX_FILES[split]))
    if dataset.images.shape[2:] != (cfg.image_size, cfg.image_size):
        raise ValueError(f"{data_dir}: IDX images are {dataset.images.shape[2]}x"
                         f"{dataset.images.shape[3]}, image_size is {cfg.image_size}")
    dataset = filter_classes(dataset, classes, limit)
    if len(dataset) == 0:
        raise ValueError(f"{data_dir}: the {split} split has no image of classes {cfg.classes}")
    return dataset


def _write_csv(path: Path, header, rows) -> None:
    """A header line and one line per row as csv.writer writes them; no rows is refused."""
    if not rows:
        raise ValueError(f"no rows to write to {path}")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, cid: str) -> None:
    manifest = {"config_id": cid, "config": asdict(cfg)}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _read_manifest(run_dir: Path) -> ExperimentConfig:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return ExperimentConfig(**{k: _coerce(k, v) for k, v in manifest["config"].items()})


def _train_run(cfg: ExperimentConfig, loaded=None) -> tuple[Path, float]:
    """Shared by train and sweep: fit, persist, return (run dir, final ssim).
    loaded, if given, keeps the (train, val) splits of each data configuration
    across calls."""
    spec, train_config = _model_spec(cfg), _train_config(cfg)
    loaded = {} if loaded is None else loaded
    key = (cfg.dataset, *(getattr(cfg, k) for k in _DATA_KEYS[cfg.dataset]))
    if key not in loaded:  # a data error leaves no run directory
        loaded[key] = load_split(cfg, "train"), load_split(cfg, "val")
    train_set, val_set = loaded[key]
    cid = config_id(cfg)
    out_dir = Path(cfg.output_dir) / cid
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, cfg, cid)
    aborted = None
    try:
        model, records = train(spec, train_config, train_set, val_set)
    except TrainingAborted as exc:  # keep the curve up to its non-finite row
        aborted, records = exc, exc.records
    _write_csv(out_dir / "curve.csv", ("config_id", "epoch", "train_loss", "val_ssim"),
               [(cid, r.epoch, f"{r.train_loss:.6f}", f"{r.val_ssim:.6f}") for r in records])
    if aborted is not None:
        raise aborted
    model.save(out_dir / "weights.bin")
    return out_dir, records[-1].val_ssim


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    out_dir, final_ssim = _train_run(cfg)
    print(f"run {out_dir.name}: artifacts in {out_dir}")
    print(f"final val_ssim {final_ssim:.6f}")
    return 0


def _load_run(run_dir: Path, sigma=None):
    """(cfg, model with weights, clean and noisy validation images), the
    images noised as train() noised them; sigma, if given, overrides."""
    cfg = _read_manifest(run_dir)
    if sigma is not None:
        cfg = replace(cfg, sigma=float(sigma))
    init_ss, _, _, val_noise_seed = derive_seeds(cfg.seed)
    model = DenoisingAutoencoder(_model_spec(cfg), seed=init_ss)
    model.load(run_dir / "weights.bin")
    clean = load_split(cfg, "val").images
    return cfg, model, clean, add_gaussian_noise(clean, NoiseSpec(cfg.sigma, val_noise_seed))


def cmd_denoise(args) -> int:
    run_dir = Path(args.run)
    _, model, clean, noisy = _load_run(run_dir, args.sigma)
    count = min(args.count, len(clean))
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    denoised = model.denoise(noisy[:count])
    for i in range(count):
        panel = montage([clean[i], noisy[i], denoised[i]])
        path = run_dir / f"denoised_{i:03d}.pgm"
        export_pgm(panel, path)
        print(f"wrote {path}")
    return 0


def _parse_axis(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise ValueError(f"axis must look like name=v1,v2,... or name=v1;v2;... got {text!r}")
    name, values = (part.strip() for part in text.split("=", 1))
    parsed = [_coerce(name, v) for v in values.split(";" if ";" in values else ",")
              if v.strip() != ""]
    if not parsed:
        raise ValueError(f"axis {name!r} has no values")
    return name, parsed


def cmd_sweep(args) -> int:
    cfg = resolve_config(args.config, _flag_overrides(args))
    axes = [_parse_axis(a) for a in args.axis]
    if not axes:
        raise ValueError("sweep needs at least one --axis")
    names = [name for name, _ in axes]
    if len(set(names)) < len(names):
        raise ValueError(f"sweep axis {max(names, key=names.count)!r} is given more than once")
    points = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        try:  # refuse the whole grid before anything trains or any directory exists
            points.append((combo, replace(cfg, **dict(zip(names, combo)))))
        except ValueError as e:
            raise ValueError(f"grid point {dict(zip(names, combo))}: {e}") from None
    out_root = Path(cfg.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    rows, loaded = [], {}
    for combo, point in points:
        cid = config_id(point)
        try:
            _, final_ssim = _train_run(point, loaded)
            rows.append([cid, *combo, f"{final_ssim:.6f}", "ok"])
        except Exception as e:  # keep sweeping; mark the grid point failed
            rows.append([cid, *combo, "", "FAILED"])
            print(f"grid point {combo} failed: {e}", file=sys.stderr)
    grid = f"{config_id(cfg)}\n{axes!r}"  # a different axis or value list, a different CSV
    sweep_path = out_root / f"sweep_{hashlib.sha256(grid.encode()).hexdigest()[:10]}.csv"
    _write_csv(sweep_path, ["config_id", *names, "final_val_ssim", "status"], rows)
    print(f"wrote {sweep_path} ({len(rows)} grid points)")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    cfg, model, clean, noisy = _load_run(run_dir)
    ssim_noisy = mean_ssim(noisy, clean)
    ssim_denoised = mean_ssim(model.denoise(noisy), clean)
    path = run_dir / "eval.csv"
    _write_csv(path, ("config_id", "n_images", "ssim_noisy", "ssim_denoised"),
               [(config_id(cfg), len(clean), f"{ssim_noisy:.6f}", f"{ssim_denoised:.6f}")])
    print(f"ssim noisy->clean     {ssim_noisy:.6f}")
    print(f"ssim denoised->clean  {ssim_denoised:.6f}")
    print(f"wrote {path}")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_OVERRIDE_FLAGS = [f.name for f in fields(ExperimentConfig)]


def _flag_overrides(args) -> dict:
    return {name: getattr(args, name, None) for name in _OVERRIDE_FLAGS}


def _add_override_flags(parser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                            metavar="V", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcae", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_train = sub.add_parser("train", help="fit a model and persist weights/curve")
    _add_override_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_denoise = sub.add_parser("denoise", help="write clean|noisy|denoised panels")
    p_denoise.add_argument("--run", required=True, help="training output directory")
    p_denoise.add_argument("--count", type=int, default=4)
    p_denoise.add_argument("--sigma", default=None)
    p_denoise.set_defaults(func=cmd_denoise)

    p_sweep = sub.add_parser("sweep", help="train a grid over any config keys")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--axis", action="append", default=[], metavar="NAME=V1,V2",
                         help="repeatable sweep axis (V1;V2 if a value has commas)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="SSIM of a trained run on the validation set")
    p_eval.add_argument("--run", required=True)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return 1
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, NotADirectoryError, KeyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - map anything else to runtime failure
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
