"""Scenario ingestion and result emission.

Scenarios are JSON; tabular results are CSV with a fixed column schema and
"# key=value" metadata lines above the header. Floats are rendered with 17
significant digits so every artifact re-ingests without loss.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .ambiguity import ConcentrationConstants, DiscreteDistribution
from .core import Population, TimeGrid
from .errors import ParseError, ValidationError
from .harness import SEED_LIMIT, TRIAL_LIMIT, ViolationStats

RESULT_COLUMNS = (
    "epsilon",
    "epsilon_sq",
    "N",
    "T",
    "trials",
    "violations",
    "beta_hat",
    "ci_lo",
    "ci_hi",
    "degenerate",
)

DEFAULT_HORIZON = 24
DEFAULT_POWER = 1.0


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RobustSpec:
    epsilon: float | None
    beta: float | None
    constants: ConcentrationConstants | None
    normalize: bool
    population_size: int | None


@dataclass(frozen=True)
class HarnessSpec:
    population_sizes: tuple[int, ...]
    epsilons_by_n: dict[int, tuple[float, ...]]
    trials: int
    seed: int | None


@dataclass(frozen=True)
class Scenario:
    grid: TimeGrid
    power: float
    distribution: DiscreteDistribution | None
    population: Population | None
    robust: RobustSpec | None
    harness: HarnessSpec | None


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _number(value, field: str) -> float:
    """A JSON number; booleans and strings are rejected, not coerced."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field}: must be a number, got {value!r}",
    )
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValidationError(
            f"{field}: must be finite, got an integer beyond the float range"
        ) from None


def _finite(value, field: str) -> float:
    number = _number(value, field)
    _require(math.isfinite(number), f"{field}: must be finite, got {value!r}")
    return number


def _integer(value, field: str, minimum: int) -> int:
    """An integral JSON number >= minimum; fractions are rejected, not truncated."""
    _require(_finite(value, field).is_integer(), f"{field}: must be an integer, got {value!r}")
    _require(value >= minimum, f"{field}: must be >= {minimum}, got {value!r}")
    return int(value)


def _finite_array(values, field: str, width: int | None = None) -> np.ndarray:
    """A list of finite numbers, or with width a list of width-long lists of them."""
    _require(isinstance(values, list), f"{field}: expected a list")
    if width is None:
        return np.array([_finite(v, field) for v in values], dtype=float)
    rows = [_finite_array(row, field) for row in values]
    _require(all(row.shape == (width,) for row in rows), f"{field}: expected rows of {width} numbers")
    return np.array(rows, dtype=float).reshape(-1, width)


def _radii(values, field: str) -> tuple[float, ...]:
    _require(isinstance(values, list), f"{field}: expected a list")
    return tuple(_finite(e, field) for e in values)


def _parse_distribution(obj, cap: float, base_dir: str) -> DiscreteDistribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution: expected an object")
    if "file" in obj:
        path = os.path.join(base_dir, obj["file"])
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ParseError(f"distribution.file: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"distribution.file: invalid JSON in {path}: {exc}") from exc
    _require("atoms" in obj, "distribution.atoms: missing")
    _require("weights" in obj, "distribution.weights: missing")
    atoms = _finite_array(obj["atoms"], "distribution.atoms", width=2)
    weights = _finite_array(obj["weights"], "distribution.weights")
    try:
        return DiscreteDistribution(atoms, weights, cap)
    except ValueError as exc:
        raise ValidationError(f"distribution: {exc}") from exc


def _parse_robust(obj) -> RobustSpec:
    if not isinstance(obj, dict):
        raise ValidationError("robust: expected an object")
    epsilon = obj.get("epsilon")
    beta = obj.get("beta")
    _require(
        (epsilon is None) != (beta is None),
        "robust: exactly one of epsilon/beta must be given",
    )
    constants = None
    if "constants" in obj:
        cobj = obj["constants"]
        _require(
            isinstance(cobj, dict) and "c1" in cobj and "c2" in cobj,
            "robust.constants: need c1 and c2",
        )
        try:
            constants = ConcentrationConstants(
                _finite(cobj["c1"], "robust.constants.c1"),
                _finite(cobj["c2"], "robust.constants.c2"),
            )
        except ValueError as exc:
            raise ValidationError(f"robust.constants: {exc}") from exc
    _require(
        beta is None or constants is not None,
        "robust.beta requires robust.constants",
    )
    size = obj.get("N")
    normalize = obj.get("normalize", False)
    _require(
        isinstance(normalize, bool),
        f"robust.normalize: must be true or false, got {normalize!r}",
    )
    return RobustSpec(
        epsilon=None if epsilon is None else _finite(epsilon, "robust.epsilon"),
        beta=None if beta is None else _finite(beta, "robust.beta"),
        constants=constants,
        normalize=normalize,
        population_size=None if size is None else _integer(size, "robust.N", 1),
    )


def _parse_harness(obj) -> HarnessSpec:
    if not isinstance(obj, dict):
        raise ValidationError("harness: expected an object")
    _require("N" in obj, "harness.N: missing")
    raw_n = obj["N"]
    sizes = tuple(
        _integer(v, "harness.N", 1) for v in (raw_n if isinstance(raw_n, list) else [raw_n])
    )
    _require("epsilons" in obj, "harness.epsilons: missing")
    raw_eps = obj["epsilons"]
    if isinstance(raw_eps, dict):
        try:
            by_n = {int(k): _radii(v, f"harness.epsilons[{k}]") for k, v in raw_eps.items()}
        except ValueError as exc:
            raise ValidationError(f"harness.epsilons: {exc}") from exc
        _require(
            set(by_n) == set(sizes),
            "harness.epsilons: keyed grids must cover exactly the sizes in N",
        )
    else:
        grid = _radii(raw_eps, "harness.epsilons")
        by_n = {size: grid for size in sizes}
    for size, grid in by_n.items():
        _require(
            len(grid) > 0 and all(b > a for a, b in zip(grid, grid[1:])),
            f"harness.epsilons[{size}]: must be strictly increasing",
        )
    seed = obj.get("seed")
    if seed is not None:
        seed = _integer(seed, "harness.seed", 0)
        _require(seed < SEED_LIMIT, f"harness.seed: must be < 2**64, got {seed}")
    trials = _integer(obj.get("trials", 1000), "harness.trials", 1)
    _require(trials <= TRIAL_LIMIT, f"harness.trials: must be <= 2**32, got {trials}")
    return HarnessSpec(
        population_sizes=sizes,
        epsilons_by_n=by_n,
        trials=trials,
        seed=seed,
    )


def parse_scenario(path: str) -> Scenario:
    """Load and validate a scenario file; errors carry field-level context."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("scenario: top level must be an object")
    base_dir = os.path.dirname(os.path.abspath(path))

    grid_obj = raw.get("grid", {})
    _require(isinstance(grid_obj, dict), "grid: expected an object")
    grid = TimeGrid(_integer(grid_obj.get("T", DEFAULT_HORIZON), "grid.T", 1))
    power = _finite(raw.get("power", DEFAULT_POWER), "power")
    _require(power > 0, "power: must be positive")
    cap = power * grid.steps

    distribution = None
    if "distribution" in raw:
        distribution = _parse_distribution(raw["distribution"], cap, base_dir)

    population = None
    if "population" in raw:
        pobj = raw["population"]
        _require(
            isinstance(pobj, dict) and "members" in pobj,
            "population.members: missing",
        )
        members = _finite_array(pobj["members"], "population.members", width=2)
        try:
            population = Population.from_energy_pairs(members, grid.steps, power)
        except ValueError as exc:
            raise ValidationError(f"population: {exc}") from exc

    robust = _parse_robust(raw["robust"]) if "robust" in raw else None
    harness = _parse_harness(raw["harness"]) if "harness" in raw else None
    return Scenario(
        grid=grid,
        power=power,
        distribution=distribution,
        population=population,
        robust=robust,
        harness=harness,
    )


# ---------------------------------------------------------------------------
# results CSV


def write_results_csv(target, stats: list[ViolationStats], metadata: dict | None = None):
    """Write violation statistics in the fixed column schema.

    target may be a path or a text file object; metadata lands in
    "# key=value" lines above the header.
    """
    own = isinstance(target, (str, os.PathLike))
    fh = open(target, "w", newline="") if own else target
    try:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for s in stats:
            writer.writerow(
                [
                    fmt_float(s.epsilon),
                    fmt_float(s.epsilon**2),
                    s.population_size,
                    s.horizon,
                    s.trials,
                    s.violations,
                    fmt_float(s.beta_hat),
                    fmt_float(s.ci_lo),
                    fmt_float(s.ci_hi),
                    "true" if s.degenerate else "false",
                ]
            )
    finally:
        if own:
            fh.close()


def read_results_csv(source) -> tuple[list[ViolationStats], dict]:
    """Inverse of write_results_csv; returns (rows, metadata)."""
    own = isinstance(source, (str, os.PathLike))
    try:
        fh = open(source, newline="") if own else source
    except OSError as exc:
        raise ParseError(f"cannot read results {source}: {exc}") from exc
    try:
        metadata = {}
        lines = []
        for line in fh:
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    metadata[key.strip()] = value.strip()
                continue
            lines.append(line)
    finally:
        if own:
            fh.close()
    reader = csv.reader(_io.StringIO("".join(lines)))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("results file has no header") from None
    if tuple(header) != RESULT_COLUMNS:
        raise ParseError(f"unexpected results header {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(RESULT_COLUMNS):
            raise ParseError(f"malformed results row {record}")
        try:
            rows.append(
                ViolationStats(
                    epsilon=float(record[0]),
                    population_size=int(record[2]),
                    horizon=int(record[3]),
                    trials=int(record[4]),
                    violations=int(record[5]),
                    beta_hat=float(record[6]),
                    ci_lo=float(record[7]),
                    ci_hi=float(record[8]),
                    degenerate=record[9] == "true",
                )
            )
        except ValueError as exc:
            raise ParseError(f"malformed results row {record}: {exc}") from exc
    return rows, metadata


def jsonify(obj):
    """Recursively convert numpy containers for json.dump."""
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj
