"""Command-line surface.

Subcommands: aggregate, member, robust, montecarlo, fit-constants.
Exit codes: 0 success, else the ``exit_code`` the error's class declares.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from .aggregate import AggregateFlexSet, _is_empty, contains, decompose, sorted_vertices
from .ambiguity import beta_from_epsilon, epsilon_from_beta, robust_set
from .core import DEFAULT_ATOL, _check_atol
from .errors import EVFlexError, ParseError, ValidationError
from .harness import STREAM_VERSION, TrialConfig, _check_seed, fit_constants, fit_per_n, run_trials
from .io import _numbers, _read_json, jsonify, parse_scenario, read_results_csv, write_results_csv


def _add_out(parser: argparse.ArgumentParser):
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_tolerance(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_ATOL, help="numeric tolerance"
    )


def _output(out):
    """The file --out names, opened for writing, or stdout when it names none;
    a file that cannot be opened is a ParseError naming --out and the path."""
    try:
        return open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ParseError(f"--out: cannot write {out}: {exc}") from exc


def _emit_json(payload, out):
    with _output(out) as fh:
        fh.write(json.dumps(jsonify(payload), indent=2) + "\n")


def _parse_profile(args) -> np.ndarray:
    if args.profile is not None:  # split at commas and spaces; an empty field is not skipped
        fields = args.profile.split(",")
        if not all(field.strip() for field in fields):
            raise ParseError(f"--profile: empty field in {args.profile!r}")
        try:
            return np.array([float(v) for field in fields for v in field.split()])
        except ValueError as exc:
            raise ParseError(f"--profile: {exc}") from exc
    try:  # the scenario's rules for JSON and a list of numbers, reported as a malformed file
        return _numbers(_read_json(args.profile_file, "--profile-file"), "--profile-file")
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def _load_scenario(args, *sections):
    """Check --tolerance if the command has it, then parse the scenario and require sections."""
    if hasattr(args, "tolerance"):
        _check_atol(args.tolerance, "--tolerance")
    sc = parse_scenario(args.scenario)
    for section in sections:
        if getattr(sc, section) is None:
            raise ValidationError(f"{section}: required for the {args.command} command")
    return sc


def _cmd_aggregate(args) -> int:
    sc = _load_scenario(args, "population")
    aset = AggregateFlexSet.from_population(sc.population)
    _emit_json(
        {
            "T": aset.horizon,
            "N": sc.population.n,
            "power": aset.power,
            "nu_lo": aset.nu_lo,
            "nu_hi": aset.nu_hi,
            "vertices": sorted_vertices(aset),
        },
        args.out,
    )
    return 0


def _cmd_member(args) -> int:
    sc = _load_scenario(args, "population")
    u = _parse_profile(args)
    # contains gives a member's answer; only a witness or a certificate needs decompose
    member = contains(sc.population, u, atol=args.tolerance)
    if args.witness or not member:
        result = decompose(sc.population, u, atol=args.tolerance)
    payload = {"member": member, "profile": u}
    if member:
        payload["witness"] = result.per_ev if args.witness else None
    else:
        payload["deficient_steps"] = list(result.deficient_steps)
        payload["shortfall"] = result.shortfall
    _emit_json(payload, args.out)
    return 0


def _resolve_robust_n(sc) -> int:
    if sc.robust is not None and sc.robust.population_size is not None:
        return sc.robust.population_size
    if sc.harness is not None and len(sc.harness.epsilons_by_n) == 1:
        return next(iter(sc.harness.epsilons_by_n))
    raise ValidationError("robust.N: required (or a single-size harness.N)")


def _cmd_robust(args) -> int:
    sc = _load_scenario(args, "distribution", "robust")
    n = _resolve_robust_n(sc)
    spec = sc.robust
    eps = spec.epsilon if spec.beta is None else epsilon_from_beta(spec.beta, n, spec.constants)
    result = robust_set(sc.distribution, n, eps, args.tolerance)
    # a given beta is printed as given; a given radius reads its beta off the tail bound
    beta = spec.beta
    if beta is None and spec.constants is not None:
        beta = beta_from_epsilon(eps, n, spec.constants)
    _emit_json(
        {
            "epsilon": result.epsilon,
            "beta": beta,
            "N": n,
            "T": sc.distribution.horizon,
            "power": sc.distribution.power,
            "projection_cost": result.projection_cost,
            "projected_support": result.projected_support,
            "budget_lo": result.budget_lo,
            "budget_hi": result.budget_hi,
            "i_c_lo": result.i_c_lo,
            "kappa_lo": result.kappa_lo,
            "i_c_hi": result.i_c_hi,
            "kappa_hi": result.kappa_hi,
            "w1_lo": result.w1_lo,
            "w1_hi": result.w1_hi,
            "repaired_lo": result.repaired_lo,
            "repaired_hi": result.repaired_hi,
            "empty": bool(_is_empty(result.flex.nu_lo, result.flex.nu_hi, args.tolerance)),
            "nu_lo": result.flex.nu_lo,
            "nu_hi": result.flex.nu_hi,
            "worst_case_lo": np.column_stack([result.worst_lo.e_lo, result.worst_lo.e_hi]),
            "worst_case_hi": np.column_stack([result.worst_hi.e_lo, result.worst_hi.e_hi]),
        },
        args.out,
    )
    return 0


def _cmd_montecarlo(args) -> int:
    sc = _load_scenario(args, "distribution", "harness")
    seed = _check_seed(args.seed, "--seed") if args.seed is not None else sc.harness.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
        print(f"generated seed: {seed}", file=sys.stderr)
    trials = sc.harness.trials
    metadata = {
        "seed": seed,
        "trials": trials,
        "T": sc.distribution.horizon,
        "power": sc.distribution.power,
        "stream": STREAM_VERSION,
    }
    with _output(args.out) as fh:  # an unwritable --out fails before any cell runs
        stats = []
        for size, radii in sc.harness.epsilons_by_n.items():
            cfg = TrialConfig(sc.distribution, size, radii, trials, seed, args.tolerance)
            stats.extend(run_trials(cfg))
        write_results_csv(fh, stats, metadata)
    return 0


def _cmd_fit_constants(args) -> int:
    rows, _ = read_results_csv(args.csv)
    fit = fit_constants(rows)
    _emit_json(
        {
            "c1": fit.constants.c1,
            "c2": fit.constants.c2,
            "r_squared": fit.r_squared,
            "n_used": fit.n_used,
            "n_excluded": fit.n_excluded,
            "per_n": [
                {
                    "N": f.population_size,
                    "rows": f.rows,
                    "slope": f.slope,
                    "r_squared": f.r_squared,
                }
                for f in fit_per_n(rows)
            ],
        },
        args.out,
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``main`` call.

    Parsing leaves the parser unchanged, so one instance serves all calls;
    callers must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="evflex",
        description="Aggregate flexibility sets for EV charging populations, "
        "with distributionally robust variants and a Monte Carlo certifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="population -> bound vectors and vertices")
    p.add_argument("--scenario", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("member", help="aggregate profile membership and witness")
    p.add_argument("--scenario", required=True)
    profile = p.add_mutually_exclusive_group(required=True)
    profile.add_argument("--profile", default=None, help="comma/space separated entries")
    profile.add_argument("--profile-file", default=None, help="JSON array of entries")
    p.add_argument("--witness", action="store_true", help="emit a decomposition")
    _add_out(p)
    _add_tolerance(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("robust", help="distributionally robust set summary")
    p.add_argument("--scenario", required=True)
    _add_out(p)
    _add_tolerance(p)
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("montecarlo", help="violation-rate experiment -> CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    _add_out(p)
    _add_tolerance(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("fit-constants", help="fit tail-bound constants from a CSV")
    p.add_argument("--csv", required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_fit_constants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EVFlexError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
