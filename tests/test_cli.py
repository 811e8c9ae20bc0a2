import json
import math
from pathlib import Path

import numpy as np
import pytest

import evflex.aggregate
import evflex.cli
import evflex.errors
from evflex import ParseError, ValidationError
from evflex.cli import main
from evflex.harness import ViolationStats
from evflex.io import parse_scenario, read_results_csv, write_results_csv


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "grid": {"T": 4},
    "power": 1.0,
    "population": {"members": [[1.5, 2.5], [0.5, 3.5]]},
    "distribution": {
        "atoms": [[0.5, 1.5], [1.0, 2.5], [2.0, 3.5]],
        "weights": [0.5, 0.3, 0.2],
    },
    "robust": {"epsilon": 0.5, "N": 4},
    "harness": {"N": 3, "epsilons": [0.2, 0.5], "trials": 30, "seed": 21},
}


def test_minimal_scenario_defaults():
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.json")
        with open(path, "w") as fh:
            json.dump({}, fh)
        sc = parse_scenario(path)
    assert sc.horizon == 24
    assert sc.power == 1.0
    assert sc.distribution is None and sc.robust is None


def test_scenario_validation_names_field(tmp_path):
    bad = dict(BASE)
    bad["distribution"] = {"atoms": [[0, 1], [1, 2]], "weights": [0.5, 0.4]}
    path = write_scenario(tmp_path, bad)
    with pytest.raises(ValidationError, match="distribution"):
        parse_scenario(path)
    assert main(["aggregate", "--scenario", path]) == 3


def test_scenario_missing_file_is_parse_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(ParseError):
        parse_scenario(missing)
    assert main(["aggregate", "--scenario", missing]) == 2


def test_scenario_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["aggregate", "--scenario", str(path)]) == 2


def test_scenario_robust_needs_exactly_one_target(tmp_path):
    bad = dict(BASE)
    bad["robust"] = {"epsilon": 0.5, "beta": 0.1, "N": 4}
    with pytest.raises(ValidationError, match="exactly one"):
        parse_scenario(write_scenario(tmp_path, bad))


def test_distribution_file_reference(tmp_path):
    (tmp_path / "dist.json").write_text(
        json.dumps({"atoms": [[0.5, 1.0]], "weights": [1.0]})
    )
    payload = {"grid": {"T": 4}, "distribution": {"file": "dist.json"}}
    sc = parse_scenario(write_scenario(tmp_path, payload))
    assert sc.distribution.n_atoms == 1


def test_aggregate_command(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    assert main(["aggregate", "--scenario", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nu_lo"] == [1.5, 0.5, 0.0, 0.0]
    assert payload["nu_hi"] == [2.0, 2.0, 1.5, 0.5]
    assert len(payload["vertices"]) == 5


def test_member_command_verdicts(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    assert main(["member", "--scenario", path, "--profile", "1.5,0.5,0,0", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is True
    witness = np.array(payload["witness"])
    np.testing.assert_allclose(witness.sum(axis=0), [1.5, 0.5, 0, 0], atol=1e-9)

    assert main(["member", "--scenario", path, "--profile", "3,0,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is False
    assert payload["deficient_steps"] == [1]

    assert main(["member", "--scenario", path, "--profile", "1,1,1"]) == 2


def test_member_command_builds_a_witness_only_when_asked(tmp_path, capsys, monkeypatch):
    # a member's verdict comes from contains; only --witness mixes profiles
    path = write_scenario(tmp_path, BASE)
    mixed = []
    original = evflex.aggregate._mix_fastest_profiles
    monkeypatch.setattr(
        evflex.aggregate, "_mix_fastest_profiles", lambda *a: mixed.append(1) or original(*a)
    )
    assert main(["member", "--scenario", path, "--profile", "1.5,0.5,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["member"] is True and payload["witness"] is None
    assert not mixed
    assert main(["member", "--scenario", path, "--profile", "1.5,0.5,0,0", "--witness"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] is not None
    assert mixed == [1]


def test_member_command_rejects_non_finite_profile(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    assert main(["member", "--scenario", path, "--profile", "nan,1,1,1"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_robust_command_and_budget_infeasible(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    assert main(["robust", "--scenario", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == 0.5
    assert payload["N"] == 4
    assert not payload["empty"]

    tight = dict(BASE)
    tight["robust"] = {"epsilon": 1e-9, "N": 2}
    path2 = write_scenario(tmp_path, tight, "tight.json")
    code = main(["robust", "--scenario", path2])
    err = capsys.readouterr().err
    assert code == 1
    assert "projection cost" in err  # message names the minimum radius


ROOT = Path(__file__).resolve().parents[1]


def test_robust_command_on_pushing_demo_is_pinned(tmp_path):
    # the whole JSON, byte for byte: projection, pushes, exact W1 and bounds
    out = tmp_path / "robust.json"
    scenario = str(ROOT / "scenarios" / "pushing_demo.json")
    assert main(["robust", "--scenario", scenario, "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "pushing_demo_robust.json").read_bytes()


def test_aggregate_command_on_pushing_demo_is_pinned(tmp_path):
    # the bound pair and every sorted vertex, byte for byte
    out = tmp_path / "aggregate.json"
    scenario = str(ROOT / "scenarios" / "pushing_demo.json")
    assert main(["aggregate", "--scenario", scenario, "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "pushing_demo_aggregate.json").read_bytes()


def test_montecarlo_command_on_paper_scenario_is_pinned(tmp_path):
    # the paper's 18 cells at the scenario's seed, byte for byte: counts,
    # intervals and metadata, under every numpy the suite runs on
    out = tmp_path / "results.csv"
    scenario = str(ROOT / "scenarios" / "concentration_experiment.json")
    assert main(["montecarlo", "--scenario", scenario, "--out", str(out)]) == 0
    pinned = ROOT / "tests" / "data" / "concentration_experiment_20240817.csv"
    assert out.read_bytes() == pinned.read_bytes()


def test_montecarlo_command_at_zero_tolerance_is_pinned(tmp_path):
    # every robust set holds its radius with no tolerance, and on the
    # paper's half-integer atoms every count is the default tolerance's
    out = tmp_path / "results.csv"
    scenario = str(ROOT / "scenarios" / "concentration_experiment.json")
    assert main(["montecarlo", "--scenario", scenario, "--tolerance", "0", "--out", str(out)]) == 0
    pinned = ROOT / "tests" / "data" / "concentration_experiment_20240817.csv"
    assert out.read_bytes() == pinned.read_bytes()


def test_member_certificate_on_pushing_demo_is_pinned(tmp_path):
    # a non-member's cut and shortfall, byte for byte; a member's witness
    # goes through a BLAS matrix product, so its last bits are not pinned
    out = tmp_path / "member.json"
    scenario = str(ROOT / "scenarios" / "pushing_demo.json")
    args = ["--profile", "1,3.9,2.7,3.8,1,0", "--witness", "--out", str(out)]
    assert main(["member", "--scenario", scenario, *args]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "pushing_demo_nonmember.json").read_bytes()


@pytest.mark.parametrize(
    "command, option",
    [
        ("aggregate", ["--seed", "1"]),
        ("aggregate", ["--tolerance", "0"]),
        ("member", ["--seed", "1"]),
        ("robust", ["--seed", "1"]),
        ("fit-constants", ["--seed", "1"]),
        ("fit-constants", ["--tolerance", "0"]),
    ],
)
def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys, command, option):
    source = "--csv" if command == "fit-constants" else "--scenario"
    # member requires one profile flag, which argparse checks before unknown options
    profile = ["--profile", "1,1,1,1"] if command == "member" else []
    with pytest.raises(SystemExit) as exc:
        main([command, source, write_scenario(tmp_path, BASE), *profile, *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + option[0] in capsys.readouterr().err


def test_robust_command_from_beta(tmp_path, capsys):
    payload = dict(BASE)
    payload["robust"] = {
        "beta": 0.2,
        "N": 4,
        "constants": {"c1": 2.0, "c2": 1.0},
    }
    path = write_scenario(tmp_path, payload)
    assert main(["robust", "--scenario", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["beta"] == pytest.approx(0.2)


def test_robust_command_reports_beta(tmp_path, capsys):
    from evflex import ConcentrationConstants, RangeWarning, beta_from_epsilon

    constants = {"c1": 2.0, "c2": 0.15}
    # a given beta is printed as given, not read back off its radius; only
    # the radius it implies (2.23 > 1) warns
    given = dict(BASE, robust={"beta": 0.1, "N": 4, "constants": constants})
    with pytest.warns(RangeWarning) as caught:
        assert main(["robust", "--scenario", write_scenario(tmp_path, given)]) == 0
    assert len(caught) == 1
    assert json.loads(capsys.readouterr().out)["beta"] == 0.1
    # a given radius reads its beta off the tail bound
    radius = dict(BASE, robust={"epsilon": 0.5, "N": 4, "constants": constants})
    assert main(["robust", "--scenario", write_scenario(tmp_path, radius, "eps.json")]) == 0
    expected = beta_from_epsilon(0.5, 4, ConcentrationConstants(2.0, 0.15))
    assert json.loads(capsys.readouterr().out)["beta"] == expected
    # and with no constants there is none
    assert main(["robust", "--scenario", write_scenario(tmp_path, BASE, "bare.json")]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] is None


def test_montecarlo_csv_roundtrip_and_fit(tmp_path, capsys):
    path = write_scenario(tmp_path, BASE)
    out_csv = str(tmp_path / "results.csv")
    assert main(["montecarlo", "--scenario", path, "--out", out_csv]) == 0
    rows, metadata = read_results_csv(out_csv)
    assert metadata["seed"] == "21"
    assert metadata["stream"] == "2"
    assert len(rows) == 2
    header = Path(out_csv).read_text().splitlines()
    data_start = next(i for i, line in enumerate(header) if not line.startswith("#"))
    assert header[data_start] == (
        "epsilon,epsilon_sq,N,T,trials,violations,beta_hat,ci_lo,ci_hi,degenerate"
    )

    # fit-constants on synthetic exact data recovers the constants; c1 < 1
    # keeps every rate a probability, so violations <= trials in every row
    from evflex import ConcentrationConstants, beta_from_epsilon

    constants = ConcentrationConstants(0.5, 1.5)
    synth = []
    for n in (5, 10, 20):
        for eps in (0.05, 0.1, 0.2, 0.3):
            beta = beta_from_epsilon(eps, n, constants)
            synth.append(
                ViolationStats(
                    epsilon=eps,
                    population_size=n,
                    horizon=24,
                    trials=1000,
                    violations=int(round(beta * 1000)),
                    beta_hat=beta,
                    ci_lo=0.0,
                    ci_hi=1.0,
                    degenerate=False,
                )
            )
    synth_csv = str(tmp_path / "synthetic.csv")
    write_results_csv(synth_csv, synth, {"seed": 0})
    assert main(["fit-constants", "--csv", synth_csv]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["c1"] == pytest.approx(0.5, abs=1e-6)
    assert fit["c2"] == pytest.approx(1.5, abs=1e-6)
    # per size, log beta falls against eps^2 with slope -c2 * N
    assert [f["N"] for f in fit["per_n"]] == [5, 10, 20]
    for f in fit["per_n"]:
        assert f["rows"] == 4
        assert f["slope"] == pytest.approx(-1.5 * f["N"], abs=1e-6)
        assert f["r_squared"] == pytest.approx(1.0, abs=1e-12)


def _with(section, value):
    payload = dict(BASE)
    payload[section] = value
    return payload


def _scenario_command(command, payload, *extra):
    return lambda tmp_path: [command, "--scenario", write_scenario(tmp_path, payload), *extra]


def _malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    return ["aggregate", "--scenario", str(path)]


def _results_command(rows):
    def build(tmp_path):
        path = str(tmp_path / "results.csv")
        write_results_csv(path, rows, {"seed": 0})
        return ["fit-constants", "--csv", path]

    return build


def _results_text_command(text):
    def build(tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(text)
        return ["fit-constants", "--csv", str(path)]

    return build


# two rows with positive violation estimates and one zero row
SPARSE_ROWS = [
    ViolationStats(eps, 10, 24, 100, v, v / 100, 0.0, 1.0, False)
    for eps, v in ((0.1, 20), (0.2, 5), (0.3, 0))
]

# three decaying rates, enough to fit
DECAYING_ROWS = [
    ViolationStats(eps, 10, 24, 100, v, v / 100, 0.0, 1.0, False)
    for eps, v in ((0.1, 20), (0.2, 5), (0.3, 1))
]

# log-linear rates so steep that the fitted c1 = exp(intercept) overflows
STEEP_ROWS = [
    ViolationStats(eps, 1, 24, 1000, 1, beta, 0.0, 1.0, False)
    for eps, beta in ((10, 0.5), (10.0001, math.sqrt(0.5 * 1e-305)), (10.0002, 1e-305))
]
# an inf beta_hat is excluded like a zero row, which leaves two rows to fit
INF_BETA_ROWS = [
    ViolationStats(eps, 10, 24, 100, v, beta, 0.0, 1.0, False)
    for eps, v, beta in ((0.1, 20, 0.2), (0.2, 5, math.inf), (0.3, 1, 0.01))
]
# an inf radius has no finite N * eps^2 and is excluded too, leaving two rows to fit
INF_EPSILON_ROWS = [
    ViolationStats(eps, 10, 24, 100, v, v / 100, 0.0, 1.0, False)
    for eps, v in ((0.1, 20), (0.2, 5), (math.inf, 1))
]

# three usable rows at one N * eps^2, which determine no line
ONE_POINT_ROWS = [
    ViolationStats(0.5, 10, 24, 100, v, v / 100, 0.0, 1.0, False) for v in (30, 20, 10)
]


def _distribution_file_command(content):
    def build(tmp_path):
        (tmp_path / "dist.json").write_text(json.dumps(content))
        payload = _with("distribution", {"file": "dist.json"})
        return ["robust", "--scenario", write_scenario(tmp_path, payload)]

    return build


def _unwritable_out_command(command, *args):
    def build(tmp_path):
        out = str(tmp_path / "missing" / "out")
        if command == "fit-constants":
            path = str(tmp_path / "results.csv")
            write_results_csv(path, DECAYING_ROWS, {"seed": 0})
            return [command, "--csv", path, "--out", out]
        return [command, "--scenario", write_scenario(tmp_path, BASE), *args, "--out", out]

    return build


def _results_row_command(row):
    return _results_text_command(
        "epsilon,epsilon_sq,N,T,trials,violations,beta_hat,ci_lo,ci_hi,degenerate\n"
        "0.1,0.01,10,24,100,20,0.2,0,1,false\n" + row + "\n"
    )


def _profile_file_command(content):
    def build(tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(content))
        return ["member", "--scenario", write_scenario(tmp_path, BASE), "--profile-file", str(path)]

    return build


_CONSTANTS = {"c1": 2.0, "c2": 1.0}
# no distribution, and a population that also fits a horizon of T = 1
POPULATION_ONLY = {"grid": {"T": 4}, "population": {"members": [[0.5, 1.0]]}}

# One case per error class the CLI can reach, with its documented exit code.
EXIT_CODE_CASES = {
    "parse-missing-file": (lambda tmp: ["aggregate", "--scenario", str(tmp / "no.json")], 2),
    "parse-malformed-json": (_malformed_json, 2),
    "validation": (
        _scenario_command("aggregate", _with("distribution", {"atoms": [[0, 1]], "weights": [0.5]})),
        3,
    ),
    "dimension": (_scenario_command("member", BASE, "--profile", "1,1,1"), 2),
    "negative-entry": (_scenario_command("member", BASE, "--profile", "1,1,1,-1"), 2),
    "non-finite-profile": (_scenario_command("member", BASE, "--profile", "nan,1,1,1"), 2),
    "budget": (_scenario_command("robust", _with("robust", {"epsilon": 1e-9, "N": 2})), 1),
    "insufficient-data": (_results_command(SPARSE_ROWS), 1),
    "overflowing-fit": (_results_command(STEEP_ROWS), 1),
    "inf-beta-hat": (_results_command(INF_BETA_ROWS), 1),
    "inf-epsilon-row": (_results_command(INF_EPSILON_ROWS), 1),
    "one-n-eps-sq": (_results_command(ONE_POINT_ROWS), 1),
    # a degenerate flag other than true/false is malformed, not read as false
    # a directory that does not exist cannot take --out, before or after any cell runs
    "unwritable-out-aggregate": (_unwritable_out_command("aggregate"), 2),
    "unwritable-out-member": (_unwritable_out_command("member", "--profile", "1,1,1,1"), 2),
    "unwritable-out-robust": (_unwritable_out_command("robust"), 2),
    "unwritable-out-montecarlo": (_unwritable_out_command("montecarlo"), 2),
    "unwritable-out-fit-constants": (_unwritable_out_command("fit-constants"), 2),
    # counts no experiment can produce are malformed rows, not points to fit
    "violations-above-trials": (_results_row_command("0.2,0.04,10,24,100,500,5.0,0,1,false"), 2),
    "negative-violations": (_results_row_command("0.2,0.04,10,24,100,-1,0.01,0,1,false"), 2),
    "negative-trials": (_results_row_command("0.2,0.04,10,24,-3,0,0,0,1,false"), 2),
    "zero-N-row": (_results_row_command("0.2,0.04,0,24,100,5,0.05,0,1,false"), 2),
    "zero-T-row": (_results_row_command("0.2,0.04,10,0,100,5,0.05,0,1,false"), 2),
    "unknown-degenerate-flag": (
        _results_text_command(
            "epsilon,epsilon_sq,N,T,trials,violations,beta_hat,ci_lo,ci_hi,degenerate\n"
            "0.1,0.01,10,24,100,20,0.2,0,1,yes\n"
        ),
        2,
    ),
    "nan-epsilon": (_scenario_command("robust", _with("robust", {"epsilon": math.nan, "N": 4})), 3),
    "inf-epsilon": (_scenario_command("robust", _with("robust", {"epsilon": math.inf, "N": 4})), 3),
    "nan-beta": (
        _scenario_command(
            "robust", _with("robust", {"beta": math.nan, "N": 4, "constants": _CONSTANTS})
        ),
        3,
    ),
    # a zero radius is a valid ball, but the tail bound of robust.constants needs eps > 0
    "zero-epsilon-with-constants": (
        _scenario_command(
            "robust", _with("robust", {"epsilon": 0, "N": 4, "constants": _CONSTANTS})
        ),
        3,
    ),
    "inf-power": (_scenario_command("aggregate", {**POPULATION_ONLY, "power": math.inf}), 3),
    "fractional-T": (_scenario_command("aggregate", _with("grid", {"T": 6.9})), 3),
    "boolean-T": (_scenario_command("aggregate", {**POPULATION_ONLY, "grid": {"T": True}}), 3),
    "fractional-robust-N": (
        _scenario_command("robust", _with("robust", {"epsilon": 0.5, "N": 4.9})),
        3,
    ),
    "fractional-trials": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "trials": 20.9})),
        3,
    ),
    "fractional-seed": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "seed": 7.8})),
        3,
    ),
    "negative-seed": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "seed": -1})),
        3,
    ),
    "nan-harness-epsilon": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "epsilons": [math.nan]})),
        3,
    ),
    "too-many-trials": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "trials": 2**32 + 1})),
        3,
    ),
    "negative-seed-flag": (_scenario_command("montecarlo", BASE, "--seed", "-5"), 2),
    "64-bit-seed-flag": (_scenario_command("montecarlo", BASE, "--seed", str(2**64)), 2),
    "nan-tolerance": (_scenario_command("montecarlo", BASE, "--tolerance", "nan"), 2),
    "negative-tolerance": (_scenario_command("montecarlo", BASE, "--tolerance", "-5"), 2),
    "inf-tolerance-member": (
        _scenario_command("member", BASE, "--profile", "1,1,1,1", "--tolerance", "inf"),
        2,
    ),
    "string-profile": (_scenario_command("member", BASE, "--profile", "1,1,1,x"), 2),
    "string-profile-file": (_profile_file_command(["a", 1, 2, 3]), 2),
    "object-profile-file": (_profile_file_command({"x": 1}), 2),
    "boolean-profile-file": (_profile_file_command([True, 1, 1, 1]), 2),
    "overflowing-profile-file": (_profile_file_command([10**400, 1, 1, 1]), 2),
    "string-epsilon": (_scenario_command("robust", _with("robust", {"epsilon": "0.5", "N": 4})), 3),
    "string-normalize": (
        _scenario_command("robust", _with("robust", {"epsilon": 0.5, "N": 4, "normalize": "false"})),
        3,
    ),
    "string-atom": (
        _scenario_command("aggregate", _with("distribution", {"atoms": [["2", 4]], "weights": [1.0]})),
        3,
    ),
    "string-weight": (
        _scenario_command(
            "aggregate",
            _with("distribution", {"atoms": [[0.5, 1.5], [1.0, 2.5]], "weights": [0.5, "0.5"]}),
        ),
        3,
    ),
    "boolean-member": (
        _scenario_command("aggregate", _with("population", {"members": [[True, "3"]]})),
        3,
    ),
    "string-constant": (
        _scenario_command(
            "robust",
            _with("robust", {"beta": 0.1, "N": 4, "constants": {"c1": "2", "c2": 1.0}}),
        ),
        3,
    ),
    # an atom a Population would reject, even by rounding, fails at parse time
    "rounding-negative-atom": (
        _scenario_command(
            "robust",
            _with("distribution", {"atoms": [[-1e-13, 1.5], [1.0, 2.5]], "weights": [0.5, 0.5]}),
        ),
        3,
    ),
    "rounding-inverted-atom": (
        _scenario_command(
            "robust",
            _with("distribution", {"atoms": [[1.5 + 1e-13, 1.5], [1.0, 2.5]], "weights": [0.5, 0.5]}),
        ),
        3,
    ),
    # JSON integers beyond the float range, as a scalar field and as array entries
    "overflowing-power": (_scenario_command("aggregate", {**POPULATION_ONLY, "power": 10**400}), 3),
    "overflowing-epsilon": (
        _scenario_command("robust", _with("robust", {"epsilon": 10**400, "N": 4})),
        3,
    ),
    "overflowing-member": (
        _scenario_command("aggregate", _with("population", {"members": [[0.5, -(10**400)]]})),
        3,
    ),
    "overflowing-weight": (
        _scenario_command(
            "aggregate",
            _with("distribution", {"atoms": [[0.5, 1.5], [1.0, 2.5]], "weights": [0.5, 10**400]}),
        ),
        3,
    ),
    "non-string-distribution-file": (
        _scenario_command("robust", _with("distribution", {"file": 5})),
        3,
    ),
    "non-object-distribution-file": (_distribution_file_command("atoms and weights"), 3),
    "repeated-harness-N": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "N": [3, 3]})),
        3,
    ),
    # a value the library's rule rejects is reported at load, naming its field
    "negative-epsilon": (_scenario_command("robust", _with("robust", {"epsilon": -1, "N": 4})), 3),
    "negative-beta": (
        _scenario_command(
            "robust", _with("robust", {"beta": -0.1, "N": 4, "constants": _CONSTANTS})
        ),
        3,
    ),
    "beta-above-c1": (
        _scenario_command(
            "robust", _with("robust", {"beta": 5.0, "N": 4, "constants": _CONSTANTS})
        ),
        3,
    ),
    "negative-keyed-harness-epsilon": (
        _scenario_command(
            "montecarlo",
            _with("harness", {**BASE["harness"], "N": [2, 3], "epsilons": {"2": [0.5], "3": [-0.5]}}),
        ),
        3,
    ),
    "64-bit-seed": (
        _scenario_command("montecarlo", _with("harness", {**BASE["harness"], "seed": 2**64})),
        3,
    ),
    # "03" would read as a second grid for size 3, and the last one would win
    "non-decimal-harness-key": (
        _scenario_command(
            "montecarlo",
            _with("harness", {**BASE["harness"], "epsilons": {"3": [0.2], "03": [0.5]}}),
        ),
        3,
    ),
}

# The field each scenario array or file case names in its error message.
ARRAY_FIELD_CASES = {
    "string-atom": "distribution.atoms",
    "string-weight": "distribution.weights",
    "boolean-member": "population.members",
    "string-constant": "robust.constants.c1",
    "overflowing-member": "population.members",
    "overflowing-weight": "distribution.weights",
    "non-string-distribution-file": "distribution.file",
    "non-object-distribution-file": "distribution.file",
    "repeated-harness-N": "harness.N",
    "non-decimal-harness-key": "harness.epsilons",
}

# The field each rejected robust scalar names in its error message.
ROBUST_FIELD_CASES = {
    "nan-epsilon": "robust.epsilon",
    "inf-epsilon": "robust.epsilon",
    "nan-beta": "robust.beta",
    "zero-epsilon-with-constants": "robust.epsilon",
    "string-normalize": "robust.normalize",
    "overflowing-epsilon": "robust.epsilon",
    "negative-epsilon": "robust.epsilon",
    "negative-beta": "robust.beta",
    "beta-above-c1": "robust.beta",
}

# The field each rejected harness value names in its error message.
HARNESS_FIELD_CASES = {
    "negative-keyed-harness-epsilon": "harness.epsilons[3]",
    "64-bit-seed": "harness.seed",
    "negative-seed": "harness.seed",
    "too-many-trials": "harness.trials",
}

# The flag each rejected command-line option names in its error message.
FLAG_CASES = {
    "negative-seed-flag": "--seed",
    "64-bit-seed-flag": "--seed",
    "nan-tolerance": "--tolerance",
    "negative-tolerance": "--tolerance",
    "inf-tolerance-member": "--tolerance",
    "unwritable-out-aggregate": "--out",
    "unwritable-out-member": "--out",
    "unwritable-out-robust": "--out",
    "unwritable-out-montecarlo": "--out",
    "unwritable-out-fit-constants": "--out",
}


@pytest.mark.filterwarnings("ignore:excluded 1 rows")
@pytest.mark.parametrize("case", sorted(EXIT_CODE_CASES))
def test_error_classes_map_to_exit_codes(tmp_path, capsys, case):
    build, code = EXIT_CODE_CASES[case]
    assert main(build(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("infeasible: " if code == 1 else "error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(ARRAY_FIELD_CASES))
def test_scenario_array_errors_name_the_field(tmp_path, capsys, case):
    build, _ = EXIT_CODE_CASES[case]
    assert main(build(tmp_path)) == 3
    assert ARRAY_FIELD_CASES[case] in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(ROBUST_FIELD_CASES))
def test_robust_scalar_errors_name_the_field(tmp_path, capsys, case):
    build, _ = EXIT_CODE_CASES[case]
    assert main(build(tmp_path)) == 3
    assert ROBUST_FIELD_CASES[case] in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(HARNESS_FIELD_CASES))
def test_harness_value_errors_name_the_field(tmp_path, capsys, case):
    build, _ = EXIT_CODE_CASES[case]
    assert main(build(tmp_path)) == 3
    assert HARNESS_FIELD_CASES[case] in capsys.readouterr().err


def test_keyed_grid_error_is_raised_at_load_before_any_cell(tmp_path, monkeypatch):
    # the first size's grid is valid: its cell must not run before the second's is rejected
    cells = []
    monkeypatch.setattr(evflex.cli, "run_trials", lambda cfg: cells.append(cfg) or [])
    build, _ = EXIT_CODE_CASES["negative-keyed-harness-epsilon"]
    argv = build(tmp_path)
    with pytest.raises(ValidationError, match=r"harness\.epsilons\[3\]"):
        parse_scenario(argv[2])
    assert main(argv) == 3
    assert cells == []


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_option_errors_name_the_flag(tmp_path, capsys, case):
    build, _ = EXIT_CODE_CASES[case]
    assert main(build(tmp_path)) == 2
    assert FLAG_CASES[case] in capsys.readouterr().err


# Every error class, with the exit code and stderr label the CLI reports it with.
ERROR_CLASS_EXITS = {
    "EVFlexError": (1, "error"),
    "EnergyOutOfRange": (1, "error"),
    "NotMonotone": (1, "error"),
    "NegativeBudget": (1, "error"),
    "NumericalFailure": (1, "error"),
    "BudgetInfeasible": (1, "infeasible"),
    "InsufficientData": (1, "infeasible"),
    "ParseError": (2, "error"),
    "DimensionMismatch": (2, "error"),
    "NegativeEntry": (2, "error"),
    "DomainError": (2, "error"),
    "NotAnInteger": (2, "error"),
    "ValidationError": (3, "error"),
}


def test_unwritable_out_names_its_path_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    cells = []
    monkeypatch.setattr(evflex.cli, "run_trials", lambda cfg: cells.append(cfg) or [])
    argv = _unwritable_out_command("montecarlo")(tmp_path)
    assert main(argv) == 2
    assert argv[-1] in capsys.readouterr().err
    assert cells == []


@pytest.mark.parametrize(
    "flags",
    [[], ["--profile", "1,1,1,1", "--profile-file", "profile.json"]],
    ids=["neither", "both"],
)
def test_member_takes_exactly_one_profile_flag(tmp_path, capsys, flags):
    # argparse rejects the command line before the scenario is read
    with pytest.raises(SystemExit) as exc:
        main(["member", "--scenario", write_scenario(tmp_path, BASE), *flags])
    assert exc.value.code == 2
    assert "--profile" in capsys.readouterr().err


def test_exit_code_table_covers_every_error_class():
    classes = {
        name
        for name, cls in vars(evflex.errors).items()
        if isinstance(cls, type) and issubclass(cls, evflex.errors.EVFlexError)
    }
    assert classes == set(ERROR_CLASS_EXITS)


@pytest.mark.parametrize("name", sorted(ERROR_CLASS_EXITS))
def test_each_error_class_exits_with_its_code_and_label(capsys, monkeypatch, name):
    cls = getattr(evflex.errors, name)
    exc = cls(0.1, 0.25) if cls is evflex.errors.BudgetInfeasible else cls("a failure")

    def failing(path):
        raise exc

    monkeypatch.setattr(evflex.cli, "parse_scenario", failing)
    code, label = ERROR_CLASS_EXITS[name]
    assert main(["aggregate", "--scenario", "unread.json"]) == code
    assert capsys.readouterr().err == f"{label}: {exc}\n"


def test_numerical_failure_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    # a bookkeeping defect: each walk moves its critical atom 1.0 further
    # than it reports, so robust_set's budget certificate sees both worst
    # cases outside the ball
    import evflex.ambiguity

    real = evflex.ambiguity._push_walk

    def overshooting(values, partners, budget, target, sign):
        p, q, k, kappa, spent, repaired = real(values, partners, budget, target, sign)
        if 0 <= k < p.size:
            p[k] += sign * 1.0
        return p, q, k, kappa, spent, repaired

    monkeypatch.setattr(evflex.ambiguity, "_push_walk", overshooting)
    assert main(["robust", "--scenario", write_scenario(tmp_path, BASE)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: budget accounting violated")
    assert "Traceback" not in err


def test_keyed_epsilon_grid(tmp_path):
    harness = {**BASE["harness"], "N": [2, 3], "epsilons": {"2": [1.5, 2.0], "3": [1.8]}}
    path = write_scenario(tmp_path, _with("harness", harness))
    out_csv = str(tmp_path / "keyed.csv")
    assert main(["montecarlo", "--scenario", path, "--out", out_csv]) == 0
    rows, _ = read_results_csv(out_csv)
    assert [(r.epsilon, r.population_size) for r in rows] == [(1.5, 2), (2.0, 2), (1.8, 3)]

    # keys must be the sizes' decimals: "02" and " 3" name no size, and "3_0" is not 30
    for bad in ({"2": [1.5, 2.0], "4": [1.8]}, {"2": [2.0, 1.5], "3": [1.8]},
                {"02": [1.5, 2.0], "3": [1.8]}, {"2": [1.5, 2.0], " 3": [1.8]}):
        path = write_scenario(tmp_path, _with("harness", {**harness, "epsilons": bad}), "bad.json")
        assert main(["montecarlo", "--scenario", path]) == 3
    underscored = {**harness, "N": [2, 30], "epsilons": {"2": [1.5], "3_0": [1.8]}}
    path = write_scenario(tmp_path, _with("harness", underscored), "bad.json")
    assert main(["montecarlo", "--scenario", path]) == 3


def test_montecarlo_writes_a_huge_finite_radius(tmp_path):
    # eps**2 overflows a float: the row carries epsilon_sq = inf, not an OverflowError
    harness = {**BASE["harness"], "epsilons": [0.5, 1e200]}
    out_csv = str(tmp_path / "huge.csv")
    path = write_scenario(tmp_path, _with("harness", harness))
    assert main(["montecarlo", "--scenario", path, "--out", out_csv]) == 0
    rows, _ = read_results_csv(out_csv)
    assert [r.epsilon for r in rows] == [0.5, 1e200]
    lines = [line for line in Path(out_csv).read_text().splitlines() if not line.startswith("#")]
    assert lines[-1].split(",")[1] == "inf"


def test_results_csv_roundtrip_lossless(tmp_path):
    rows = [
        ViolationStats(
            epsilon=1 / 3,
            population_size=7,
            horizon=24,
            trials=1000,
            violations=13,
            beta_hat=0.013,
            ci_lo=0.006926471,
            ci_hi=0.02214521,
            degenerate=False,
        ),
        ViolationStats(
            epsilon=0.9,
            population_size=7,
            horizon=24,
            trials=0,
            violations=0,
            beta_hat=math.nan,
            ci_lo=math.nan,
            ci_hi=math.nan,
            degenerate=True,
        ),
    ]
    path = str(tmp_path / "r.csv")
    write_results_csv(path, rows, {"seed": 42})
    back, metadata = read_results_csv(path)
    assert metadata == {"seed": "42"}
    assert back[0] == rows[0]  # exact float round-trip
    assert back[1].degenerate and math.isnan(back[1].beta_hat)


def test_montecarlo_generates_and_records_seed(tmp_path, capsys):
    payload = dict(BASE)
    payload["harness"] = {"N": 3, "epsilons": [0.2, 0.5], "trials": 10}
    path = write_scenario(tmp_path, payload)
    out_csv = str(tmp_path / "res.csv")
    assert main(["montecarlo", "--scenario", path, "--out", out_csv]) == 0
    err = capsys.readouterr().err
    assert "generated seed" in err
    _, metadata = read_results_csv(out_csv)
    assert "seed" in metadata


def test_montecarlo_seed_flag_overrides(tmp_path):
    path = write_scenario(tmp_path, BASE)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["montecarlo", "--scenario", path, "--out", a, "--seed", "77"]) == 0
    assert main(["montecarlo", "--scenario", path, "--out", b, "--seed", "77"]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_per_n_commands_print_the_rows_of_one_command(tmp_path):
    # streams are keyed by (seed, N), so a scenario split into one command
    # per population size gives exactly the rows of the whole scenario
    harness = {**BASE["harness"], "N": [2, 3, 5], "epsilons": [0.9, 1.2, 1.5, 1.8]}
    whole = str(tmp_path / "whole.csv")
    assert main(["montecarlo", "--scenario", write_scenario(tmp_path, _with("harness", harness)),
                 "--out", whole]) == 0
    text = Path(whole).read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, rows = lines[0], lines[1:]
    split = []
    for n in (2, 3, 5):
        path = write_scenario(tmp_path, _with("harness", {**harness, "N": [n]}), f"n{n}.json")
        out = str(tmp_path / f"n{n}.csv")
        assert main(["montecarlo", "--scenario", path, "--out", out]) == 0
        part = [line for line in Path(out).read_text().splitlines() if not line.startswith("#")]
        assert part[0] == header
        split += part[1:]
    assert split == rows and len(rows) == 12
    assert any(row.endswith("false") and row.split(",")[5] != "0" for row in rows)


def test_repeated_main_calls_share_one_parser(tmp_path, capsys):
    from evflex.cli import build_parser

    path = write_scenario(tmp_path, BASE)
    calls = [
        ["montecarlo", "--scenario", path],
        ["montecarlo", "--scenario", path, "--seed", "not-an-int"],
        ["robust", "--scenario", path],
        ["montecarlo", "--scenario", path],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        return code, capsys.readouterr()

    single = []
    for argv in calls:  # each on a freshly built parser
        build_parser.cache_clear()
        single.append(run(argv))
    assert [code for code, _ in single] == [0, 2, 0, 0]
    build_parser.cache_clear()
    parser = build_parser()
    assert [run(argv) for argv in calls] == single
    assert build_parser() is parser


def test_console_entry_point(tmp_path):
    import subprocess, sys

    path = write_scenario(tmp_path, BASE)
    proc = subprocess.run(
        [sys.executable, "-m", "evflex", "aggregate", "--scenario", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 2
