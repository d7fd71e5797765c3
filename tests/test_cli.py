import json
from pathlib import Path

import pytest

from topolab.cli import EXIT_CONFIG, EXIT_OK, main

DATA = Path(__file__).parent / "data"


def small_spec() -> dict:
    spec = json.loads((DATA / "golden_config.json").read_text())
    spec["convergence"] = {"n_values": [4, 8], "trials": 2, "fit": False}
    spec["system"]["horizon"] = 0.5
    spec["snapshot_times"] = [0.25, 0.5]
    return spec


def write_config(tmp_path, spec) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(spec))
    return path


def test_simulate_and_kinetic_and_couple(tmp_path, capsys):
    config = write_config(tmp_path, small_spec())
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert (out / "events.csv").exists()
    assert (out / "snapshots.csv").exists()
    assert main(["kinetic", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert (out / "density_t0.csv").exists()
    assert (out / "density_t0.5.csv").exists()
    assert main(["couple", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert (out / "trials_n8.csv").exists()


def test_kinetic_density_matches_golden_file(tmp_path):
    # pins the solver's bits directly: the final density of the golden config
    out = tmp_path / "out"
    assert main(["kinetic", "--config", str(DATA / "golden_config.json"), "--out", str(out)]) == EXIT_OK
    expected = (DATA / "golden" / "density_t1.csv").read_bytes()
    assert (out / "density_t1.csv").read_bytes() == expected


def test_kinetic_writes_the_same_files_from_a_cache_hit(tmp_path):
    # the golden config's snapshot times include 0.7, 0.82 and 0.94, where k * dt is not
    # the requested time; the header must give the requested one on a cold solve and a hit
    out = tmp_path / "out"
    config = str(DATA / "golden_config.json")
    assert main(["kinetic", "--config", config, "--out", str(out)]) == EXIT_OK
    cold = {p.name: p.read_bytes() for p in out.glob("density_t*.csv")}
    assert main(["kinetic", "--config", config, "--out", str(out)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.glob("density_t*.csv")} == cold
    assert {"density_t0.7.csv", "density_t0.82.csv", "density_t0.94.csv"} <= set(cold)
    for name, text in cold.items():
        requested = name[len("density_t") : -len(".csv")]
        header = text.decode().splitlines()[1]
        assert float(header.split("t=")[1]) == float(requested), header


def test_convergence_then_report(tmp_path):
    config = write_config(tmp_path, small_spec())
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert (out / "aggregate.csv").exists()
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert (out / "d_n_vs_t.svg").exists()


def test_seed_override_changes_output(tmp_path):
    config = write_config(tmp_path, small_spec())
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["convergence", "--config", str(config), "--out", str(out_a)])
    main(["convergence", "--config", str(config), "--out", str(out_b), "--seed", "7"])
    main(["convergence", "--config", str(config), "--out", str(out_c), "--seed", "7"])
    a = (out_a / "trials_n8.csv").read_bytes()
    b = (out_b / "trials_n8.csv").read_bytes()
    c = (out_c / "trials_n8.csv").read_bytes()
    assert b == c
    assert a != b


def test_missing_config_is_validation_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_invalid_config_is_validation_error(tmp_path, capsys):
    cases = [
        ("convergence", {"version": 9}, "version"),
        # a zero histogram bin count is a config error, not a division by zero
        ("simulate", {"coupling": {"tv_bins_x": 0}}, "tv_bins_x"),
        ("simulate", {"kinetic": {"nv": 0}}, "nv >= 1"),
        ("simulate", {"system": {"dimension": 2}}, "dimension"),
        ("simulate", {"system": {"n": 2}}, "kernel vanishes"),
        ("simulate", {"seed": -1}, "seed"),
        # aggregate columns are labelled in config order, trials run in time order
        ("convergence", {"snapshot_times": [0.5, 0.25]}, "strictly increasing"),
        ("convergence", {"snapshot_times": [0.25, 0.25, 0.5]}, "strictly increasing"),
        ("kinetic", {"kinetic": {"dt": 2.0, "snapshot_spacing": 2.0}}, "kinetic.dt"),
        # the horizon sits on the 0.015 grid, so only the dt-grid check can fire
        (
            "kinetic",
            {
                "kinetic": {"snapshot_spacing": 0.015},
                "system": {"horizon": 0.45},
                "snapshot_times": [0.225, 0.45],
            },
            "multiple of dt",
        ),
    ]
    for command, patch, message in cases:
        spec = small_spec()
        for key, value in patch.items():
            if isinstance(value, dict):
                spec[key].update(value)
            else:
                spec[key] = value
        config = write_config(tmp_path, spec)
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG, message
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    # valid JSON that is not an object, with and without a seed override
    for spec, extra in (([1, 2], []), ([1, 2], ["--seed", "5"]), ("text", ["--seed", "5"])):
        config = write_config(tmp_path, spec)
        rc = main(["convergence", "--config", str(config), "--out", str(tmp_path / "out"), *extra])
        assert rc == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_config_casts_fail_before_writing(tmp_path, capsys):
    for section, key, value in (("system", "frozen_positions", "false"), ("system", "n", 12.9)):
        spec = small_spec()
        spec[section][key] = value
        config = write_config(tmp_path, spec)
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_rate_fit_with_too_few_sizes_fails_before_writing(tmp_path, capsys):
    # the fit needs four sizes; two fail when the config loads, not after the trials
    spec = small_spec()
    spec["convergence"]["fit"] = True
    config = write_config(tmp_path, spec)
    rc = main(["convergence", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "at least 4 n_values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_threads_below_one_are_rejected_when_parsed(tmp_path):
    config = write_config(tmp_path, small_spec())
    for value in ("0", "-3"):
        argv = ["convergence", "--config", str(config), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", value])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


def test_report_without_a_study_is_validation_error(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "aggregate.csv" in capsys.readouterr().err
    assert list(tmp_path.glob("*.svg")) == []


def test_malformed_rate_fit_is_validation_error(tmp_path, capsys):
    config = write_config(tmp_path, small_spec())
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for text in ("{", '{"slope": -0.5}'):  # truncated, and missing the intercept
        (out / "ratefit.json").write_text(text)
        assert main(["report", "--out", str(out)]) == EXIT_CONFIG
        assert "ratefit.json" in capsys.readouterr().err


def test_broken_json_is_validation_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG


def test_two_dimensional_convergence_is_validation_error(tmp_path, capsys):
    # the grid solver is one-dimensional; asking for a 2-d coupled study is a
    # clean validation failure, while 2-d particle simulation works
    spec = small_spec()
    spec["system"]["dimension"] = 2
    spec["initial"] = {
        "position": [{"form": "uniform"}, {"form": "uniform"}],
        "velocity": {"form": "four_point", "speed": 1.0},
    }
    config = write_config(tmp_path, spec)
    for command in ("kinetic", "couple", "convergence"):
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_horizon_off_snapshot_spacing_fails_before_writing(tmp_path, capsys):
    # kinetic snapshots every 0.02 stop at 0.04 < 0.05, so the coupled trials
    # would run past the stored solution; this must fail before any solve
    spec = small_spec()
    spec["system"]["horizon"] = 0.05
    spec["snapshot_times"] = [0.025, 0.05]
    config = write_config(tmp_path, spec)
    for command in ("kinetic", "couple", "convergence"):
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "snapshot_spacing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_internal_fault_is_not_a_config_error(tmp_path, monkeypatch):
    # only ConfigError maps to exit 2; any other exception escapes main, so
    # the interpreter prints the traceback and exits with 1
    def broken(config, out_dir):
        raise ValueError("internal fault")

    monkeypatch.setattr("topolab.cli.run_particle_simulation", broken)
    config = write_config(tmp_path, small_spec())
    with pytest.raises(ValueError, match="internal fault"):
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "path, key, value",
    [
        ("", "seeed", 5),
        ("kinetic", "nxx", 128),
        ("system", "sped", 1.0),
        ("coupling", "tv_bins", 4),
        ("convergence", "trails", 20),
        ("kernel", "fom", "linear"),
        ("kernel", "epsilon", 0.5),  # a key of another form
        ("initial", "velocities", {}),
        ("initial.position", "amplitud", 0.3),
        ("initial.position", "amplitude2", 0.1),  # a key of another form
        ("initial.velocity", "sped", 1.0),
        ("initial.velocity", "weights", [0.5, 0.5]),  # a key of another form
    ],
)
def test_an_undeclared_key_fails_before_writing(tmp_path, capsys, path, key, value):
    spec = small_spec()
    target = spec
    for owner in filter(None, path.split(".")):
        target = target[owner]
    target[key] = value
    config = write_config(tmp_path, spec)
    for command in ("simulate", "kinetic", "couple", "convergence"):
        rc = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert f"unknown config key {path}{'.' if path else ''}{key}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_ramp_too_narrow_for_its_lipschitz_constant_fails_at_load(tmp_path, capsys):
    # 2 / 1e-300^2 divided by zero, and 2 / 1e-160^2 is inf
    for epsilon in (1e-300, 1e-160):
        spec = small_spec()
        spec["kernel"] = {"form": "truncated_linear", "epsilon": epsilon}
        config = write_config(tmp_path, spec)
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "truncated_linear needs 0 < epsilon <= 1, finite 2/epsilon^2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_study_whose_bound_overflows_reports_inf(tmp_path):
    # Lip(K) = 200, so c = 8 sqrt(e) 200 = 2638: exp(c t) overflows at t = 1 but not at 0.25
    spec = small_spec()
    spec["kernel"] = {"form": "truncated_linear", "epsilon": 0.1}
    spec["system"].update(n=32, horizon=1.0)
    spec["snapshot_times"] = [0.25, 1.0]
    spec["convergence"] = {"n_values": [32, 64], "trials": 2, "fit": False}
    config = write_config(tmp_path, spec)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == EXIT_OK
    rows = [row.split(",") for row in (out / "aggregate.csv").read_text().splitlines()[2:]]
    assert [row[4] for row in rows if row[1] == "1"] == ["inf", "inf"]
    assert all(float(row[4]) < float("inf") for row in rows if row[1] == "0.25")
    assert main(["report", "--out", str(out)]) == EXIT_OK
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 3
    for path in svgs:
        assert "nan" not in path.read_text(), path.name
