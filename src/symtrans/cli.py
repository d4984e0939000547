"""Command-line surface: data generation, training, registration, evaluation,
verification, and model accounting.

Exit codes: 0 ok, 2 usage/validation (bad configs, malformed volumes, shape
mismatches), 3 I/O failure, 4 numeric divergence. Every command that writes
artifacts also writes a canonical-JSON run manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .configio import ConfigError, from_dict, to_canonical_json
from .deformation import integrate, jacobian_determinant
from .losses import metrics_report
from .model import (
    PLACEMENTS,
    CheckpointError,
    ModelConfig,
    load_checkpoint,
    model_count_flops,
    model_count_parameters,
)
from .svol import (
    KIND_DISPLACEMENT,
    KIND_IMAGE,
    KIND_LABELS,
    KIND_VELOCITY,
    SvolError,
    read_field,
    read_labels,
    read_svol,
    write_svol,
)
from .tensor import Tensor
from .training import (
    SyntheticSpec,
    TrainConfig,
    TrainingDiverged,
    UnsatisfiableWarp,
    generate_pair,
    pair_rng,
    register,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path, command, config, seed, inputs, outputs):
    manifest = {
        "command": command,
        "config": dataclasses.asdict(config) if dataclasses.is_dataclass(config)
        else config,
        "seed": seed,
        "tool_version": __version__,
        # what produced the file: same-seed runs agree byte for byte only
        # under the same numpy, scipy and Python
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
    }
    Path(out_path).write_text(to_canonical_json(manifest) + "\n")


def _load_json(path, what):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {what} {path}: {e}", EXIT_IO)
    try:
        return json.loads(text)
    # ValueError also covers integers past the interpreter's digit limit
    except (ValueError, RecursionError) as e:
        raise CliError(f"{what} {path} is not valid JSON: {e}", EXIT_USAGE)


def _load_config(path, cls, what):
    data = _load_json(path, what)
    try:
        return from_dict(cls, data)
    except ConfigError as e:
        raise CliError(f"invalid {what} {path}: {e}", EXIT_USAGE)


def _count(minimum):
    """argparse type: an integer of at least ``minimum``, else exit 2."""
    def count(text):
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    return count


def cmd_gen_data(args) -> int:
    spec = (_load_config(args.spec, SyntheticSpec, "generator spec")
            if args.spec else SyntheticSpec())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for k in range(args.pairs):
        rng = pair_rng(args.seed, k)
        try:
            moving, fixed, lm, lf, u_true = generate_pair(spec, rng)
        except UnsatisfiableWarp as e:
            raise CliError(f"generator spec {args.spec or '(defaults)'}: {e}", EXIT_USAGE)
        pair_dir = out / f"pair_{k:03d}"
        pair_dir.mkdir(exist_ok=True)
        files = [
            ("moving.svol", moving, KIND_IMAGE),
            ("fixed.svol", fixed, KIND_IMAGE),
            ("moving_labels.svol", lm.astype(np.float32), KIND_LABELS),
            ("fixed_labels.svol", lf.astype(np.float32), KIND_LABELS),
            ("true_field.svol", u_true, KIND_DISPLACEMENT),
        ]
        for name, data, kind in files:
            path = pair_dir / name
            write_svol(path, data, kind)
            outputs.append(path.relative_to(out))
    write_manifest(out / "manifest.json", "gen-data", spec, args.seed, [], outputs)
    print(f"wrote {args.pairs} pair(s) under {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config, TrainConfig, "train config")
    out = Path(args.out)
    try:
        result = train(cfg, out_dir=out, resume=args.resume, log=args.log)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except UnsatisfiableWarp as e:  # from the pair producer or inline
        raise CliError(f"train config {args.config}, section data: {e}", EXIT_USAGE)
    outputs = [p.relative_to(out) for p in sorted(out.glob("checkpoint_*"))]
    outputs.append(Path("loss.csv"))
    write_manifest(out / "manifest.json", "train", cfg, cfg.seed,
                   [args.config], outputs)
    final = result.curve[-1][1] if result.curve else float("nan")
    print(f"trained {len(result.curve)} iteration(s), final loss {final}")
    return EXIT_OK


def _read_image(path):
    data, kind = read_svol(path)
    if kind != KIND_IMAGE:
        raise SvolError(f"{path}: expected an image volume")
    return data


def _read_label_pair(args, extents, against):
    """Both label maps as ``register``/``metrics_report`` keywords, or none.

    Each map must have the given extents; a mismatch names its file.
    """
    if bool(args.moving_labels) != bool(args.fixed_labels):
        raise CliError("provide both --moving-labels and --fixed-labels or neither",
                       EXIT_USAGE)
    if not args.moving_labels:
        return {}
    labels = {}
    for key in ("moving_labels", "fixed_labels"):
        path = getattr(args, key)
        labels[key] = read_labels(path)
        if labels[key].shape != tuple(extents):
            raise CliError(
                f"{path}: label extents {labels[key].shape} do not match the "
                f"{against} extents {tuple(extents)}", EXIT_USAGE)
    return labels


def cmd_register(args) -> int:
    moving = _read_image(args.moving)
    fixed = _read_image(args.fixed)
    cfg, _, params, _ = load_checkpoint(args.checkpoint)
    if moving.shape != (1,) + cfg.input_shape or fixed.shape != moving.shape:
        raise CliError(
            f"volume shapes {moving.shape}/{fixed.shape} do not match the "
            f"checkpoint input shape {(1,) + cfg.input_shape}", EXIT_USAGE)
    labels = _read_label_pair(args, cfg.input_shape, "volume")
    mode = ({"disp": "displacement", "diff": "diffeomorphic"}[args.mode]
            if args.mode else cfg.mode)
    inputs = [args.moving, args.fixed, args.checkpoint]
    if labels:
        inputs += [args.moving_labels, args.fixed_labels]
    u, warped, metrics = register(moving, fixed, params, cfg, mode=mode, **labels)
    outputs = []
    if args.out_field:
        write_svol(args.out_field, u, KIND_DISPLACEMENT)
        outputs.append(args.out_field)
    if args.out_warped:
        write_svol(args.out_warped, warped, KIND_IMAGE)
        outputs.append(args.out_warped)
    if outputs:
        manifest_path = str(outputs[0]) + ".manifest.json"
        write_manifest(manifest_path, "register", {"mode": mode}, None, inputs,
                       outputs)
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    u, kind = read_field(args.field)
    if min(u.shape[1:]) < 3:
        raise CliError(f"{args.field}: extents {u.shape[1:]} too small for differences",
                       EXIT_USAGE)
    labels = _read_label_pair(args, u.shape[1:], "field")
    if kind == KIND_VELOCITY:
        u = integrate(Tensor(u)).data
    metrics = metrics_report(u, None, **labels)
    det, _ = jacobian_determinant(u)
    metrics["det_interior_mean"] = float(det[1:-1, 1:-1, 1:-1].mean())
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES, run_checks

    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_checks([check for name in names for check in SUITES[name]])
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name} - {detail}")
        failed += 0 if ok else 1
    summary = {
        "suites": names,
        "total": len(checks),
        "failed": failed,
        "checks": [{"name": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in checks],
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if failed == 0 else 1


def cmd_count(args) -> int:
    cfg = (_load_config(args.config, ModelConfig, "model config")
           if args.config else ModelConfig())
    if args.placement:
        cfg = dataclasses.replace(cfg, placement=args.placement)
    params = model_count_parameters(cfg, by_module=True)
    flops = model_count_flops(cfg, by_module=True)
    report = {
        "placement": cfg.placement,
        "per_module_params": dict(params),
        "per_module_flops": dict(flops),
        "total_params": sum(params.values()),
        "total_flops": sum(flops.values()),
    }
    if args.compare_msa:
        from .cemsa import cemsa_param_shapes, count_parameters, msa_count_parameters

        stages = []
        for i in range(3):
            blk = cfg.cemsa_config(i)
            cemsa_total = count_parameters(blk)
            gconv_shape, _ = cemsa_param_shapes(blk)["g_kv.weight"]
            msa_total = msa_count_parameters(blk.dim)
            stages.append({
                "stage": i + 1,
                "dim": blk.dim,
                "heads": blk.heads,
                "kernel": blk.kernel,
                "cemsa_params": cemsa_total,
                "msa_params": msa_total,
                "reduction": 1.0 - cemsa_total / msa_total,
                "gconv_weight_params": math.prod(gconv_shape),
                "gconv_weight_params_dense": blk.dim * blk.dim,
            })
        report["msa_comparison"] = stages
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"placement: {report['placement']}")
        print(f"{'module':<10} {'params':>12} {'flops':>16}")
        for mod in report["per_module_params"]:
            print(f"{mod:<10} {report['per_module_params'][mod]:>12} "
                  f"{report['per_module_flops'][mod]:>16}")
        print(f"{'total':<10} {report['total_params']:>12} "
              f"{report['total_flops']:>16}")
        for stage in report.get("msa_comparison", []):
            r = stage["reduction"]
            word = "fewer" if r >= 0 else "more"
            print(f"stage {stage['stage']}: dim {stage['dim']} heads "
                  f"{stage['heads']} kernel {stage['kernel']}  CEMSA "
                  f"{stage['cemsa_params']} vs MSA {stage['msa_params']} "
                  f"({100 * abs(r):.1f}% {word})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtrans",
        description="Symmetric transformer network for deformable 3D registration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic volume pairs")
    p.add_argument("--spec", help="generator spec JSON (defaults used if omitted)")
    p.add_argument("--pairs", type=_count(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a registration model")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--resume", help="checkpoint stem to continue from")
    p.add_argument("--log", type=_count(1), default=None,
                   help="print the loss every N iterations")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="register a moving volume to a fixed one")
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", choices=("disp", "diff"),
                   help="field the network predicts (default: the checkpoint's mode)")
    p.add_argument("--out-field")
    p.add_argument("--out-warped")
    p.add_argument("--moving-labels")
    p.add_argument("--fixed-labels")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("eval", help="evaluate a field (folding, optional Dice)")
    p.add_argument("--field", required=True)
    p.add_argument("--moving-labels")
    p.add_argument("--fixed-labels")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", choices=("gradcheck", "oracles", "diffeo", "all"),
                   default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="parameter and FLOP accounting")
    p.add_argument("--config", help="ModelConfig JSON (defaults used if omitted)")
    p.add_argument("--placement", choices=PLACEMENTS)
    p.add_argument("--compare-msa", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ConfigError, SvolError, CheckpointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
