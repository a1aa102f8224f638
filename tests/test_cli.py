"""Command-line interface: subcommands, exit codes, reports, determinism."""

import json

import pytest

from ckgframes.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


PAPER_CONFIG = {
    "scenario": {"kind": "paper_example", "m": 8},
    "requests": ["bounds", "verify"],
    "claimed": [1.0, 4.0],
    "seed": 5,
}


def test_bounds_subcommand(tmp_path, capsys):
    config = write_config(tmp_path, PAPER_CONFIG)
    assert main(["bounds", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["bounds"]["upper"] == pytest.approx(2.0)
    assert "verify" not in report["results"]  # single-op subcommand


def test_run_subcommand_writes_report(tmp_path):
    config = write_config(tmp_path, PAPER_CONFIG)
    out = tmp_path / "report.json"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["verify"]["is_ckg_frame"] is True
    assert report["success"] is True


def test_paper_example_subcommand(tmp_path):
    out = tmp_path / "report.json"
    assert main(["paper-example", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["bounds"]["lower"] == pytest.approx(1.0, abs=1e-9)


def test_verification_failure_exit_code(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {"kind": "paper_example", "m": 8},
            "requests": ["verify"],
            "claimed": [1.5, 4.0],
        },
    )
    assert main(["verify", "--config", config]) == 1


def test_input_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    invalid = write_config(tmp_path, {"scenario": {"kind": "wat"}}, name="invalid.json")
    assert main(["run", "--config", invalid]) == 2


def explicit_scenario(atoms, ops, ambient_dim=1, **extra):
    space = [{"id": atom_id, "weight": weight, "fiber_dim": 1} for atom_id, weight in atoms]
    family = {"ambient_dim": ambient_dim, "space": space, "ops": ops}
    return {"scenario": {"kind": "explicit", "family": family, **extra}}


ONE_BY_ONE = [[[1.0, 0.0]]]


@pytest.mark.parametrize(
    "field",
    [
        {"seed": "abc"},
        {"claimed": ["x", 1]},
        {"samples": -3},
        {"perturb": {"delta": None}},
        # a 1x1 operator in a two-dimensional family
        explicit_scenario([("a", 1.0)], [ONE_BY_ONE], ambient_dim=2),
        explicit_scenario([("a", 1.0), ("a", 1.0)], [ONE_BY_ONE, ONE_BY_ONE]),
        explicit_scenario([("a", -1.0)], [ONE_BY_ONE]),
        # K must have one row per ambient coordinate
        {"scenario": {"kind": "random", "dim": 2, "K": ONE_BY_ONE}},
        # scenario sizes and seeds are integers: no truncation, no conversion
        {"scenario": {"kind": "random", "dim": 2.7, "n_atoms": 3.9}},
        {"scenario": {"kind": "random", "dim": 2, "n_atoms": 3, "fiber_dims": 1.5}},
        {"scenario": {"kind": "random", "dim": 2, "n_atoms": 2, "fiber_dims": [1, True]}},
        {"scenario": {"kind": "random", "dim": 2, "seed": 0.5}},
        {"scenario": {"kind": "paper_example", "m": 2.5}},
        {"scenario": {"kind": "paper_example", "m": 2, "atoms_per_cell": "3"}},
        {"scenario": {"kind": "continuous_fourier", "dim": True, "n_atoms": 8}},
    ],
)
def test_bad_config_values_exit_2_with_one_line(tmp_path, capsys, field):
    config = write_config(tmp_path, {**PAPER_CONFIG, "requests": ["perturb"], **field})
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("field", "named"),
    [
        # each of these used to run, silently, with another meaning
        ({"bessel_only": "no"}, "bessel_only"),
        ({"requests": ["perturb"], "perturb": {"lambda1": 0.1, "kill_range": "no"}}, "kill_range"),
        ({"claimed": [True, 4]}, "claimed"),
        ({"reqests": ["bounds"]}, "reqests"),
        ({"scenario": {"kind": "paper_example", "m": 2, "K": [[[1.0, 0.0]]]}}, "'K'"),
        # unknown keys in every object, and numbers that are not JSON numbers
        ({"tolerances": {"residual": 1e-9}}, "residual"),
        ({"tolerances": {"residual_tol": "1e-9"}}, "residual_tol"),
        ({"refine": {"value": [2]}}, "value"),
        ({"perturb": {"detla": 0.1}}, "detla"),
        ({"perturb": {"delta": "0.1"}}, "delta"),
        ({"scenario": {"kind": "continuous_fourier", "dim": 2, "seed": 1}}, "seed"),
        ({"scenario": {"kind": "paper_example", "m": 2, "partition_measures": [1, True]}},
         "partition_measures"),
    ],
)
def test_strict_config_keys_and_types_exit_2(tmp_path, capsys, field, named):
    config = write_config(tmp_path, {**PAPER_CONFIG, **field})
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err



def _explicit(weight=1.0, fiber_dim=1, entry=1.0, k_entry=1.0):
    family = {
        "ambient_dim": 1,
        "space": [{"id": "a", "weight": weight, "fiber_dim": fiber_dim}],
        "ops": [[[[entry, 0.0]]]],
    }
    return {"scenario": {"kind": "explicit", "family": family, "K": [[[k_entry, 0.0]]]}}


@pytest.mark.parametrize(
    ("literal", "named"),
    [
        # each of these used to build a family with weight 2.5, fiber dim 1
        # or entry 1, through float() and int()
        (_explicit(weight="2.5"), "weight"),
        (_explicit(fiber_dim=True), "fiber_dim"),
        (_explicit(entry="1"), "matrix literal entry"),
        (_explicit(k_entry=False), "matrix literal entry"),
    ],
)
def test_literals_follow_the_json_number_rule(tmp_path, capsys, literal, named):
    assert main(["run", "--config", write_config(tmp_path, _explicit())]) == 0
    capsys.readouterr()
    config = write_config(tmp_path, {**literal, "requests": ["bounds"]})
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err

def test_negative_samples_override_exits_2(tmp_path):
    config = write_config(tmp_path, PAPER_CONFIG)
    assert main(["perturb", "--config", config, "--samples", "-3"]) == 2


def test_refine_subcommand_writes_csv(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {"kind": "continuous_fourier", "dim": 4, "n_atoms": 64},
            "requests": ["refine"],
            "refine": {"values": [9, 18]},
        },
    )
    csv_path = tmp_path / "curve.csv"
    out = tmp_path / "report.json"
    assert main(["refine", "--config", config, "--csv", str(csv_path), "--out", str(out)]) == 0
    assert csv_path.read_text().startswith("n_atoms,")


def test_perturb_subcommand_with_overrides(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "scenario": {"kind": "paper_example", "m": 4},
            "perturb": {"delta": 0.1},
        },
    )
    assert main(["perturb", "--config", config, "--seed", "17", "--samples", "32"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["perturb"]["seed"] == 17
    assert report["results"]["perturb"]["samples"] == 32
    assert report["results"]["perturb"]["success"] is True


def test_reports_identical_across_runs(tmp_path):
    config = write_config(
        tmp_path,
        {
            "scenario": {"kind": "random", "dim": 4, "n_atoms": 6, "fiber_dims": 1, "seed": 3},
            "requests": ["bounds", "dual", "theta", "perturb"],
            "perturb": {"delta": 0.05},
            "samples": 32,
            "seed": 11,
        },
    )
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_clock_seconds")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_out_in_missing_directory_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["paper-example", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {out}: ") and err.count("\n") == 1


def test_out_is_directory_exits_2_with_one_line(tmp_path, capsys):
    assert main(["paper-example", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report to {tmp_path}: ") and err.count("\n") == 1
