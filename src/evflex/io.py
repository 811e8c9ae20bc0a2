"""Scenario ingestion and result emission.

Scenarios are JSON; tabular results are CSV with a fixed column schema and
"# key=value" metadata lines above the header. Floats are rendered with 17
significant digits so every artifact re-ingests without loss.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .aggregate import Population
from .ambiguity import ConcentrationConstants, DiscreteDistribution
from .ambiguity import _check_beta, _check_epsilon, _check_radii
from .core import _check_horizon, _check_integer, _check_power
from .errors import EVFlexError, ParseError, ValidationError
from .harness import ViolationStats, _check_seed, _check_trials

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
    population_size: int | None


@dataclass(frozen=True)
class HarnessSpec:
    epsilons_by_n: dict[int, tuple[float, ...]]
    trials: int
    seed: int | None


@dataclass(frozen=True)
class Scenario:
    distribution: DiscreteDistribution | None
    population: Population | None
    robust: RobustSpec | None
    harness: HarnessSpec | None


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


def _judged(field: str, rule, *args):
    """rule(*args), the library rule that owns a value, with the EVFlexError it
    raises re-raised as a ValidationError naming the scenario field. io itself
    checks only the JSON's structure and types, never a value's range, order or
    finiteness."""
    try:
        return rule(*args)
    except EVFlexError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def _number(value, field: str) -> float:
    """A JSON number as a float; booleans and strings are rejected, not coerced."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{field}: must be a number, got {value!r}",
    )
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{field}: got an integer beyond the float range") from None


def _integer(value, field: str) -> int:
    """An integral JSON number; fractions are rejected, not truncated."""
    _require(_number(value, field).is_integer(), f"{field}: must be an integer, got {value!r}")
    return int(value)


def _size(value, field: str) -> int:
    """A population size, judged by the count rule (an integer >= 1)."""
    return _judged(field, _check_integer, _integer(value, field), "N", 1)


def _numbers(values, field: str, width: int | None = None) -> np.ndarray:
    """A list of numbers, or with width a list of width-long lists of them."""
    _require(isinstance(values, list), f"{field}: expected a list")
    if width is None:
        return np.array([_number(v, field) for v in values], dtype=float)
    rows = [_numbers(row, field) for row in values]
    _require(all(row.shape == (width,) for row in rows), f"{field}: expected rows of {width} numbers")
    return np.array(rows, dtype=float).reshape(-1, width)


def _radii(values, field: str) -> tuple[float, ...]:
    return tuple(_judged(field, _check_radii, _numbers(values, field)).tolist())


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ValidationError
    naming it, where json would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in obj if keys.count(key) > 1)
        raise ValidationError(f"key {repeated!r} is repeated")
    return obj


def _read_json(path: str, source: str):
    """The JSON value in the UTF-8 file at path; a file that cannot be read,
    decoded or parsed (too deep a nesting included) is a ParseError naming source,
    and a repeated key a ValidationError naming source and key."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValidationError as exc:  # a ValueError, but the file itself was read
        raise ValidationError(f"{source}: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{source}: cannot read {path}: {exc}") from exc


def _section(obj, name: str, required=(), optional=()) -> dict:
    """obj as the scenario object `name` ("" at the top level): a JSON object with
    every key in required and none outside required and optional, so a misspelt
    key is a ValidationError naming its dotted field, not a field left at its default."""
    where, prefix = (name, f"{name}.") if name else ("scenario", "")
    _require(isinstance(obj, dict), f"{where}: expected an object")
    keys = (*required, *optional)
    for key in obj:
        _require(key in keys, f"{prefix}{key}: unknown key; {where} takes {', '.join(keys)}")
    for key in required:
        _require(key in obj, f"{prefix}{key}: missing")
    return obj


def _parse_distribution(obj, horizon: int, power: float, base_dir: str) -> DiscreteDistribution:
    """An inline {atoms, weights}, or {file} alone naming a file that holds one."""
    where = "distribution"
    if isinstance(obj, dict) and "file" in obj:
        name = _section(obj, where, ("file",))["file"]
        _require(isinstance(name, str), f"distribution.file: must be a path, got {name!r}")
        where = "distribution.file"
        obj = _read_json(os.path.join(base_dir, name), where)
    _section(obj, where, ("atoms", "weights"))
    atoms = _numbers(obj["atoms"], "distribution.atoms", width=2)
    weights = _numbers(obj["weights"], "distribution.weights")
    return _judged("distribution", DiscreteDistribution, atoms, weights, horizon, power)


def _parse_robust(obj) -> RobustSpec:
    _section(obj, "robust", optional=("epsilon", "beta", "constants", "N"))
    epsilon = obj.get("epsilon")
    beta = obj.get("beta")
    _require((epsilon is None) != (beta is None), "robust: exactly one of epsilon/beta must be given")
    constants = None
    if "constants" in obj:
        cobj = _section(obj["constants"], "robust.constants", ("c1", "c2"))
        c1 = _number(cobj["c1"], "robust.constants.c1")
        c2 = _number(cobj["c2"], "robust.constants.c2")
        constants = _judged("robust.constants", ConcentrationConstants, c1, c2)
    if epsilon is not None:
        epsilon = _radii([epsilon], "robust.epsilon")[0]
        if constants is not None:  # the tail bound reads the radius, which must then be positive
            _judged("robust.epsilon", _check_epsilon, epsilon)
    else:
        _require(constants is not None, "robust.beta requires robust.constants")
        beta = _number(beta, "robust.beta")
        _judged("robust.beta", _check_beta, beta, constants)
    size = obj.get("N")
    return RobustSpec(
        epsilon=epsilon,
        beta=beta,
        constants=constants,
        population_size=None if size is None else _size(size, "robust.N"),
    )


def _parse_harness(obj) -> HarnessSpec:
    _section(obj, "harness", ("N", "epsilons"), ("trials", "seed"))
    raw_n = obj["N"]
    sizes = tuple(_size(v, "harness.N") for v in (raw_n if isinstance(raw_n, list) else [raw_n]))
    # a repeated size would rerun the same (seed, N) stream as a second, dependent cell
    _require(len(set(sizes)) == len(sizes), f"harness.N: sizes must be distinct, got {raw_n!r}")
    raw_eps = obj["epsilons"]
    if isinstance(raw_eps, dict):
        # a key is the decimal of a size, so "03" or "3_0" cannot stand in for 3 or 30
        names = {str(size): size for size in sizes}
        _require(
            raw_eps.keys() == names.keys(),
            f"harness.epsilons: keyed grids must be keyed by exactly the sizes in N, "
            f"written as decimals, got keys {sorted(raw_eps)!r}",
        )
        by_n = {size: _radii(raw_eps[k], f"harness.epsilons[{k}]") for k, size in names.items()}
    else:
        grid = _radii(raw_eps, "harness.epsilons")
        by_n = {size: grid for size in sizes}
    seed = obj.get("seed")
    if seed is not None:
        seed = _judged("harness.seed", _check_seed, _integer(seed, "harness.seed"))
    trials = _integer(obj.get("trials", 1000), "harness.trials")
    return HarnessSpec(
        epsilons_by_n=by_n,
        trials=_judged("harness.trials", _check_trials, trials),
        seed=seed,
    )


def parse_scenario(path: str) -> Scenario:
    """Load and validate a scenario file; errors carry field-level context."""
    raw = _read_json(path, "scenario")
    _section(raw, "", optional=("grid", "power", "population", "distribution", "robust", "harness"))
    base_dir = os.path.dirname(os.path.abspath(path))

    grid_obj = _section(raw.get("grid", {}), "grid", optional=("T",))
    horizon = _integer(grid_obj.get("T", DEFAULT_HORIZON), "grid.T")
    horizon = _judged("grid.T", _check_horizon, horizon, "T")
    power = _number(raw.get("power", DEFAULT_POWER), "power")
    _judged("power", _check_power, power)

    distribution = None
    if "distribution" in raw:
        distribution = _parse_distribution(raw["distribution"], horizon, power, base_dir)

    population = None
    if "population" in raw:
        pobj = _section(raw["population"], "population", ("members",))
        members = _numbers(pobj["members"], "population.members", width=2)
        population = _judged("population", Population.from_energy_pairs, members, horizon, power)

    robust = _parse_robust(raw["robust"]) if "robust" in raw else None
    harness = _parse_harness(raw["harness"]) if "harness" in raw else None
    return Scenario(
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
    with open(target, "w", newline="") if own else contextlib.nullcontext(target) as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for s in stats:
            writer.writerow(
                [
                    fmt_float(s.epsilon),
                    fmt_float(s.epsilon * s.epsilon),  # ** raises OverflowError where * gives inf
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


def read_results_csv(source) -> tuple[list[ViolationStats], dict]:
    """Inverse of write_results_csv; returns (rows, metadata)."""
    own = isinstance(source, (str, os.PathLike))
    try:
        opened = open(source, newline="", encoding="utf-8") if own else contextlib.nullcontext(source)
        with opened as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read results {source}: {exc}") from exc
    metadata = {}
    for line in lines:
        if line.startswith("#") and "=" in line:
            key, value = line[1:].split("=", 1)
            metadata[key.strip()] = value.strip()
    reader = csv.reader(_io.StringIO("".join(line for line in lines if not line.startswith("#"))))
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
        if record[9] not in ("true", "false"):
            raise ParseError(f"malformed results row {record}: degenerate must be true or false")
        try:
            row = ViolationStats(
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
        except ValueError as exc:
            raise ParseError(f"malformed results row {record}: {exc}") from exc
        if min(row.population_size, row.horizon) < 1 or not 0 <= row.violations <= row.trials:
            # beta_hat is not compared with the counts: fit_constants filters it
            raise ParseError(
                f"malformed results row {record}: need N, T >= 1 and 0 <= violations <= trials"
            )
        rows.append(row)
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
