"""driftguard command line: simulate, bounds, oracle, fisher."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .bodies import (
    Box,
    _integer,
    _number,
    cube_eigen_density,
    dirichlet_lambda1_box,
    fisher_closed_form_cube,
    fisher_monte_carlo,
    fisher_operator_norm,
    fisher_quadrature,
)
from .bounds import _bound_pass, _bound_reports, lower_bound_1d, matching_bounds
from .harness import (
    REPORT_FORMATS,
    ExperimentConfig,
    StepGenerator,
    emit_report,
    run_experiment,
)
from .metropolis import ContainmentError
from .oracle1d import (
    _DP_LIMIT,
    _ENUM_LIMIT,
    _RATIONAL_STATE_LIMIT,
    dp_longest_valid,
    exact_chain_expectation,
    exact_chain_expectation_fraction,
    exhaustive_failures,
    reflected_walk,
    signs_from_string,
    verify_lex_optimality,
)

_SIM_DEFAULTS = {
    "dim": 1,
    "half_width": 1.0,
    "half_widths": None,
    "density": "cube_eigen",
    "generator": "unit",
    "rademacher": True,
    "steps": 1000,
    "trials": 100,
    "seed": 0,
    "out": "",
    "format": "csv",
}

def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_step_file(path: str, dim: int) -> np.ndarray:
    with warnings.catch_warnings():
        # empty files are reported below, not via loadtxt's UserWarning
        warnings.simplefilter("ignore")
        vectors = np.loadtxt(path, ndmin=2, dtype=float)
    if vectors.size == 0:
        raise ValueError(f"step file {path} is empty")
    if vectors.shape[1] != dim:
        raise ValueError(
            f"step file {path} has vectors of dimension {vectors.shape[1]}, expected {dim}"
        )
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"step file {path} has non-finite entries")
    return vectors


def _parse_generator(choice: str, dim: int, rademacher: bool) -> StepGenerator:
    if choice == "unit":
        return StepGenerator("random_unit_sphere", dim, rademacher)
    if choice == "isotropic":
        return StepGenerator("isotropic_custom", dim, rademacher)
    if choice == "pm1":
        return StepGenerator("coordinate_basis_cycle", dim, rademacher)
    if choice.startswith("file:"):
        vectors = _load_step_file(choice[len("file:"):], dim)
        return StepGenerator("fixed_list", dim, rademacher, vectors)
    raise ValueError(f"unknown generator {choice!r} (use unit|isotropic|pm1|file:<path>)")


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = dict(_SIM_DEFAULTS)
    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, not {type(raw).__name__}")
        unknown = sorted(set(raw) - set(_SIM_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        settings.update(raw)
    flags = {key: value for key, value in vars(args).items()
             if key in _SIM_DEFAULTS and value is not None}
    if "dim" in flags or "half_width" in flags:
        flags["half_widths"] = None  # a cube flag forces the cube path
    settings.update(flags)
    for key in ("dim", "steps", "trials", "seed"):
        settings[key] = _integer(key, settings[key])
    if not isinstance(settings["out"], str):
        raise ValueError(f"out must be a path string, not {settings['out']!r}")
    if settings["format"] not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {settings['format']!r} (use csv|json)")
    settings["half_width"] = _number("half_width", settings["half_width"])
    if settings["half_widths"] is not None:
        box = Box(settings["half_widths"])
        if "dim" in raw and settings["dim"] != box.dimension:
            raise ValueError(f"dim {settings['dim']} does not match {box.dimension} half_widths")
    else:
        box = Box.cube(settings["dim"], settings["half_width"])
    if settings["density"] != "cube_eigen":
        raise ValueError(f"unknown density {settings['density']!r} (only cube_eigen)")
    generator = _parse_generator(str(settings["generator"]), box.dimension, settings["rademacher"])
    config = ExperimentConfig(
        body=box,
        generator=generator,
        n_steps=settings["steps"],
        n_trials=settings["trials"],
        seed=settings["seed"],
    )
    stats = run_experiment(config)
    text = emit_report(stats, settings["format"])
    if settings["out"]:
        Path(settings["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.norms is not None and args.steps is not None:
        raise ValueError("--steps does not apply with --norms, whose file gives the steps")
    box = Box.cube(args.dim, args.half_width)
    if args.norms is not None:
        if not args.norms.startswith("file:"):
            raise ValueError("--norms expects file:<path>")
        reports = matching_bounds(box, _load_step_file(args.norms[len("file:"):], box.dimension))
    else:
        steps = _integer("--steps", args.steps or 0, 0)
        try:
            n = float(steps)
        except OverflowError:
            raise ValueError("--steps too large: the bounds overflow") from None
        # --steps N is N rows of e_1: one row's pass, its sum times N (exact below 2**53)
        row, unit = _bound_pass(box, np.eye(1, box.dimension))
        reports = _bound_reports(box, row * n, unit, steps)
    for report in reports:
        _emit(vars(report))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.signs is not None and args.mode != "single":
        raise ValueError(f"--signs does not apply with --mode {args.mode}, only with single")
    t, n = args.T, _integer("--n", args.n or 0, 0)  # single mode reads n off --signs
    if args.mode == "single":
        if args.signs is None:
            raise ValueError("--signs is required in single mode")
        eps = signs_from_string(args.signs)
        if args.n not in (None, len(eps)):
            raise ValueError(f"--n {n} does not match {len(eps)} signs")
        start = args.start if args.start is not None else 0
        walk = reflected_walk(eps, t, start)
        n = len(eps)
        record = {
            "mode": "single",
            "T": t,
            "start": start,
            "signs": args.signs,
            "kept_indices": list(walk.indices),
            "discards": n - len(walk.indices),
            "longest_valid": dp_longest_valid(eps, t, start) if n <= _DP_LIMIT else None,
            "lex_minimal": verify_lex_optimality(eps, t, start) if n <= _ENUM_LIMIT else None,
        }
        _emit(record)
        return 0
    if args.mode == "chain":
        start = args.start if args.start is not None else "uniform"
        record = {
            "mode": "chain",
            "T": t,
            "n": n,
            "start": start,
            "lower_bound": lower_bound_1d(t, n).value,
        }
        if 2 * t + 1 <= _RATIONAL_STATE_LIMIT:
            exact = exact_chain_expectation_fraction(t, n, start)
            try:
                record["exact"] = f"{exact.numerator}/{exact.denominator}"
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                record["exact"] = None
            record["expected_discards"] = float(exact)
        else:
            record["expected_discards"] = exact_chain_expectation(t, n, start)
        _emit(record)
        return 0
    # exhaustive: argparse allows no other --mode
    starts = [args.start] if args.start is not None else list(range(-t, t + 1))
    failures = exhaustive_failures(n, t, starts)
    for eps, start in failures:
        signs = "".join("+" if e > 0 else "-" for e in eps)
        _emit(dict(mode="exhaustive", T=t, start=start, signs=signs, ok=False))
    _emit({"mode": "exhaustive", "T": t, "n": n, "instances": len(starts) << n,
           "failures": len(failures)})
    return 0 if not failures else 2


def _off_diagonal(std_error) -> list:
    """The standard errors as nested lists with null on the diagonal, where
    the squared score's infinite variance leaves no valid error bar."""
    rows = std_error.tolist()
    for i, row in enumerate(rows):
        row[i] = None
    return rows


def _cmd_fisher(args: argparse.Namespace) -> int:
    box = Box.cube(args.dim, args.half_width)
    if args.method == "closed":
        fisher = fisher_closed_form_cube(box)
    elif args.method == "quadrature":
        fisher = fisher_quadrature(cube_eigen_density(box), args.nodes)
    else:
        fisher = fisher_monte_carlo(cube_eigen_density(box), args.samples, args.seed)
    record = {
        "method": args.method,
        "dim": args.dim,
        "half_width": args.half_width,
        "entries": fisher.entries.tolist(),
        "std_error": None if fisher.std_error is None else _off_diagonal(fisher.std_error),
        "operator_norm": fisher_operator_norm(fisher),
        "trace": fisher.trace,
        "four_lambda1": 4.0 * dirichlet_lambda1_box(box),
    }
    _emit(record)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftguard")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run filtered-walk trials and report discards")
    p_sim.add_argument("--config", help="JSON config file; flags override its values")
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--steps", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--dim", type=int)
    p_sim.add_argument("--half-width", dest="half_width", type=float)
    p_sim.add_argument("--generator", help="unit|isotropic|pm1|file:<path>")
    p_sim.add_argument("--out", help="output path (default stdout)")
    p_sim.add_argument("--format", choices=REPORT_FORMATS)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="print the bound reports that apply to the steps")
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.add_argument("--half-width", dest="half_width", type=float, required=True)
    p_bounds.add_argument("--steps", type=int, help="N rows of e_1 (default 0)")
    p_bounds.add_argument("--norms", help="file:<path> of step vectors, one per line")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_oracle = sub.add_parser("oracle", help="1-d reflected-walk oracles, JSON lines")
    p_oracle.add_argument("--mode", choices=["exhaustive", "chain", "single"], required=True)
    p_oracle.add_argument("--T", type=int, required=True)
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--start", type=int)
    p_oracle.add_argument("--signs")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_fisher = sub.add_parser("fisher", help="Fisher information of the cube density")
    p_fisher.add_argument("--dim", type=int, required=True)
    p_fisher.add_argument("--half-width", dest="half_width", type=float, required=True)
    p_fisher.add_argument("--method", choices=["closed", "quadrature", "mc"], required=True)
    p_fisher.add_argument("--nodes", type=int, default=128)
    p_fisher.add_argument("--samples", type=int, default=10**6)
    p_fisher.add_argument("--seed", type=int, default=0)
    p_fisher.set_defaults(func=_cmd_fisher)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContainmentError as exc:
        print(f"containment violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
