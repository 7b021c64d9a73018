"""Command-line batch runner.

Subcommands: scaling, cool, frustration, interference, fig1, bounds-check.
Tabular scans emit CSV, scalar reports JSON, plot data TSV.  Every file
output gets a run-manifest JSON written next to it; reruns with the same
manifest reproduce the bytes exactly.

Exit codes: 0 success, 2 usage, validation or out-of-memory error, 3
numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, fields

import numpy as np

from . import __version__, models
from .spin_core import Bipartition, ValidationError, span_entropies
from .models import ModelSpec, default_initial_pairs, mg_span_blocks
from .cooling import (
    GROUND,
    cooled_entropy_scan,
    maximize_cooled_entropy,
    reports_to_csv,
)
from .frustration import InternalConsistencyError, frustration_degree_model
from .closed_forms import (
    heisenberg_gas_block_entropy,
    heisenberg_gas_bound,
    ising_gas_spectra,
    mg_bounds,
    single_bond_block_entropy,
)
from .interference import covering_interference, curve_to_tsv, rvb_interference_curve

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

_MODELS = {
    "ising-gas": models.IsingGasLR,
    "heisenberg-gas": models.HeisenbergGasLR,
    "mg": models.MajumdarGhosh,
    "single-bond": models.SingleBondIsing,
    "shastry": models.ShastrySutherland,
}


# the most values a range or a density grid may hold: a million ints or
# floats take about 36 MB as a list
_MAX_VALUES = 1_000_000


def parse_range(text: str) -> list:
    """Parse "a", "a..b", or "a..b..step" (a <= b, step > 0) into an
    inclusive integer list; more than ``_MAX_VALUES`` values are refused
    before the list is built."""
    parts = text.split("..")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad range {text!r}") from exc
    if len(nums) == 1:
        return nums
    if len(nums) == 2:
        nums.append(1)
    if len(nums) == 3 and nums[0] <= nums[1] and nums[2] > 0:
        a, b, step = nums
        if (b - a) // step >= _MAX_VALUES:
            raise ValidationError(f"range {text!r} has more than {_MAX_VALUES} values")
        return list(range(a, b + 1, step))
    raise ValidationError(f"bad range {text!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".frustra-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(args, path: str, outputs: dict) -> None:
    """Write the run manifest: subcommand, parameters, outputs, seed, version."""
    manifest = {
        "subcommand": args.command,
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "func") and v is not None
        },
        "outputs": outputs,
        "seed": args.seed,
        "version": __version__,
    }
    _atomic_write(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _emit(args, text: str) -> None:
    """Write the payload to --output (plus manifest) or stdout."""
    if args.output is None:
        sys.stdout.write(text)
        return
    _atomic_write(args.output, text)
    _write_manifest(args, args.output + ".manifest.json", {"main": os.path.abspath(args.output)})


def _refuse(args, names) -> None:
    """Refuse any of the options ``names`` (argparse dests) that was given."""
    for name in names:
        if getattr(args, name, None) is not None:
            flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            raise ValidationError(f"--model {args.model} does not take {flag}")


def _spec_from_args(args, n=None) -> ModelSpec:
    """The spec of --model, sized by n (a site count), --n or --m (the
    lattice size L for shastry), with the model options given; the model
    refuses an option it does not take."""
    model = _MODELS[args.model]
    n = args.n if n is None else n
    if n is None and args.m is None:
        raise ValidationError("need --m or --n")
    try:
        size = int(args.m if n is None else n)
    except ValueError as exc:
        raise ValidationError(f"--m and --n take an integer: {exc}") from None
    if n is not None and args.model != "shastry":
        if size % 2:
            raise ValidationError("--n (site count) must be even")
        size //= 2
    taken = {f.name for f in fields(model)}
    _refuse(args, [k for k in ("lam", "j1", "j2", "sign") if k not in taken])
    options = {k: getattr(args, k) for k in ("lam", "j1", "j2", "sign") if k in taken}
    return model(size, **{k: v for k, v in options.items() if v is not None})


def cmd_scaling(args) -> int:
    sizes = parse_range(args.n) if args.n else [2 * m for m in parse_range(args.m)]
    ks = parse_range(args.k)
    rows = ["size,k,entropy,source,lower_bound,upper_bound"]
    for n in sizes:
        spec = _spec_from_args(args, n)
        for k in ks:
            if not (0 < k < n):
                raise ValidationError(f"cut k={k} invalid for {n} sites")
        bounds = [("", "")] * len(ks)
        if args.source == "analytic":
            if args.sign == "unfrustrated":
                raise ValidationError("the closed forms describe --sign frustrated only")
            if args.model == "ising-gas":
                es = [d.entropy() for d in ising_gas_spectra(spec.m, spec.lam, ks)]
            elif args.model == "single-bond":
                es = [single_bond_block_entropy(spec.m, k) for k in ks]
            elif args.model == "heisenberg-gas":
                es = [heisenberg_gas_block_entropy(spec.m, k) for k in ks]
            else:
                raise ValidationError(f"no analytic source for model {args.model}")
        elif args.model == "mg":
            es = [e for e, _ in maximize_cooled_entropy(spec, ks)]
            bounds = [tuple(f"{b:.12g}" for b in mg_bounds(k, n)) for k in ks]
        else:
            cuts = [Bipartition.contiguous(k) for k in ks]
            reports = cooled_entropy_scan(spec, default_initial_pairs(spec), GROUND, cuts)
            es = [r.entropy for r in reports]
        for k, e, (lower, upper) in zip(ks, es, bounds):
            rows.append(f"{n},{k},{e:.12g},{args.source},{lower},{upper}")
    _emit(args, "\n".join(rows) + "\n")
    return 0


def cmd_cool(args) -> int:
    spec = _spec_from_args(args)
    pairs = default_initial_pairs(spec)
    threshold = GROUND if args.threshold is None else args.threshold
    ks = parse_range(args.k) if args.k else [len(pairs) // 2]
    cuts = [Bipartition.contiguous(k) for k in ks]
    reports = cooled_entropy_scan(spec, pairs, threshold, cuts)
    _emit(args, reports_to_csv(reports))
    return 0


def cmd_frustration(args) -> int:
    spec = _spec_from_args(args)
    report = frustration_degree_model(spec)
    _emit(args, report.to_json() + "\n")
    return 0


def cmd_interference(args) -> int:
    _refuse(args, ("m", "n", "k") if args.model == "rvb" else ("shape", "d_min", "d_max", "d_step"))
    if args.model == "heisenberg-gas":
        m = _spec_from_args(args).m
        ks = parse_range(args.k) if args.k else list(range(1, m + 1))
        rows = [{"k": k, **asdict(covering_interference(m, k))} for k in ks]
        _emit(args, json.dumps(rows, sort_keys=True, indent=2) + "\n")
        return 0
    grid = _d_grid(args)
    curve = rvb_interference_curve(args.shape or "square", grid)
    _emit(args, curve_to_tsv(curve))
    return 0


def _d_grid(args):
    """Densities from --d-min up to at most --d-max in --d-step steps."""
    lo = 0.02 if args.d_min is None else args.d_min
    hi = 0.98 if args.d_max is None else args.d_max
    step = 0.02 if args.d_step is None else args.d_step
    if not step > 0:
        raise ValidationError("--d-step must be positive")
    if hi < lo:
        raise ValidationError("--d-max must not be below --d-min")
    steps = (hi - lo) / step
    if not steps < _MAX_VALUES:  # also NaN and inf, before the grid is built
        raise ValidationError(f"--d-step {step:g} gives more than {_MAX_VALUES} densities")
    n = int(steps + 1e-9)
    return [lo + i * step for i in range(n + 1)]


def cmd_fig1(args) -> int:
    grid = _d_grid(args)
    outdir = args.output or "."
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ValidationError(f"--output {outdir!r} is a file; fig1 writes a directory")
    os.makedirs(outdir, exist_ok=True)
    outputs = {}
    for shape in ("square", "horizontal"):
        curve = rvb_interference_curve(shape, grid)
        path = os.path.join(outdir, f"fig1_{shape}.tsv")
        _atomic_write(path, curve_to_tsv(curve))
        outputs[shape] = os.path.abspath(path)
    _write_manifest(args, os.path.join(outdir, "fig1.manifest.json"), outputs)
    return 0


def cmd_bounds_check(args) -> int:
    spec = _spec_from_args(args)
    n = 2 * spec.m
    rng = np.random.default_rng(args.seed)
    results = []
    if spec.kind == "MajumdarGhosh":
        samples = 20 if args.samples is None else args.samples
        if samples < 1:
            raise ValidationError("--samples must be at least 1")
        # the stream of a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        # drawn sample by sample
        x = rng.normal(size=(samples, 2, 2))
        coords = x[:, 0] + 1j * x[:, 1]
        entropies = [span_entropies(blocks, coords)
                     for blocks in mg_span_blocks(spec, range(1, n))]
        bounds = [mg_bounds(k, n) for k in range(1, n)]
        for s in range(samples):
            for k, es, (lo, up) in zip(range(1, n), entropies, bounds):
                e = float(es[s])
                if k % 2 == 0:
                    # 2 bounds only the maximised entropy; G+ alone gives 0
                    lo = 0.0
                results.append(
                    {"k": k, "entropy": e, "lower": lo, "upper": up,
                     "ok": bool(lo - 1e-9 <= e <= up + 1e-9)}
                )
    elif spec.kind == "HeisenbergGasLR":
        _refuse(args, ["samples"])
        cuts = [Bipartition.contiguous(k) for k in range(1, n)]
        reports = cooled_entropy_scan(spec, default_initial_pairs(spec), GROUND, cuts)
        for cut, r in zip(cuts, reports):
            blacks = sum(1 for s in cut.system_sites if s < spec.m)
            up = heisenberg_gas_bound(blacks, r.k - blacks)
            results.append(
                {"k": r.k, "entropy": r.entropy, "upper": up, "ok": bool(r.entropy <= up + 1e-9)}
            )
    else:
        raise ValidationError(f"bounds-check does not support {args.model}")
    summary = {
        "model": args.model,
        "checked": len(results),
        "violations": [r for r in results if not r["ok"]],
        "all_ok": all(r["ok"] for r in results),
    }
    _emit(args, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--seed", type=int, default=0)


def _add_model_params(p: argparse.ArgumentParser, choices) -> None:
    p.add_argument("--model", required=True, choices=choices)
    p.add_argument("--m", default=None, help="half the site count (or lattice size for shastry)")
    p.add_argument("--n", default=None, help="site count (or lattice size for shastry)")
    p.add_argument("--lambda", type=float, dest="lam", help="ising-gas only (default 0)")
    p.add_argument("--j1", type=float, help="shastry only (default 1)")
    p.add_argument("--j2", type=float, help="shastry only (default 0.5)")
    p.add_argument("--sign", choices=["frustrated", "unfrustrated"], help="ising-gas, single-bond")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="frustra", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scaling", help="block-entropy scaling scans")
    _add_model_params(p, ["ising-gas", "heisenberg-gas", "mg", "single-bond"])
    p.add_argument("--k", required=True, help="cut size or range a..b[..step]")
    p.add_argument("--source", default="ed", choices=["ed", "analytic"])
    _add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("cool", help="cool a model and report cut entropies")
    _add_model_params(p, ["ising-gas", "heisenberg-gas", "mg", "single-bond"])
    p.add_argument("--k", default=None, help="cut size or range")
    p.add_argument("--threshold", type=float, default=None, help="absolute energy threshold")
    _add_common(p)
    p.set_defaults(func=cmd_cool)

    p = sub.add_parser("frustration", help="frustration-degree report")
    _add_model_params(p, ["ising-gas", "heisenberg-gas", "mg", "single-bond", "shastry"])
    _add_common(p)
    p.set_defaults(func=cmd_frustration)

    p = sub.add_parser("interference", help="interference ratios")
    p.add_argument("--model", default="rvb", choices=["rvb", "heisenberg-gas"])
    p.add_argument("--m", type=int, default=None, help="heisenberg-gas: half the site count")
    p.add_argument("--n", default=None, help="heisenberg-gas: site count")
    p.add_argument("--k", default=None, help="heisenberg-gas: cut size or range")
    p.add_argument("--shape", choices=["square", "horizontal", "vertical"], help="rvb (square)")
    p.add_argument("--d-min", type=float, default=None, help="rvb: lowest density (0.02)")
    p.add_argument("--d-max", type=float, default=None, help="rvb: highest density (0.98)")
    p.add_argument("--d-step", type=float, default=None, help="rvb: density step (0.02)")
    _add_common(p)
    p.set_defaults(func=cmd_interference)

    p = sub.add_parser("fig1", help="write both interference ratio curves as TSV")
    p.add_argument("--d-min", type=float, default=None, help="lowest density (0.02)")
    p.add_argument("--d-max", type=float, default=None, help="highest density (0.98)")
    p.add_argument("--d-step", type=float, default=None, help="density step (0.02)")
    _add_common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("bounds-check", help="verify analytic entropy bounds")
    _add_model_params(p, ["mg", "heisenberg-gas"])
    p.add_argument("--samples", type=int, default=None, help="mg only (default 20)")
    _add_common(p)
    p.set_defaults(func=cmd_bounds_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # fig1 writes a directory, and checks its --output itself
        if args.command != "fig1" and args.output is not None:
            for path in (args.output, args.output + ".manifest.json"):
                if os.path.exists(path) and not os.path.isfile(path):
                    raise ValidationError(f"--output writes {path!r}, which is not a regular file")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return USAGE_ERROR
    except (InternalConsistencyError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
