"""Command-line interface: outputs, exit codes, determinism."""

import json
import math
import os
import shlex
import time

import numpy as np
import pytest

from wirepol.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_kv(text):
    values = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def test_point_band_average(capsys):
    rc, out, _ = run(capsys, "point", "--diameter-um", "17",
                     "--band", "0.5:0.75", "--temp-k", "2400")
    assert rc == 0
    values = parse_kv(out)
    assert float(values["p_avg"]) == pytest.approx(0.222, abs=0.003)
    assert int(values["quadrature_nodes"]) == 64


def test_point_single_wavelength(capsys):
    rc, out, _ = run(capsys, "point", "--radius-um", "0.02",
                     "--wavelength-um", "0.5")
    assert rc == 0
    values = parse_kv(out)
    assert float(values["p"]) < -0.5
    assert float(values["e_tm"]) > float(values["e_te"])


def test_usage_errors(capsys):
    rc, _, _ = run(capsys, "point", "--radius-um", "1")
    assert rc == 1
    rc, _, _ = run(capsys, "point", "--radius-um", "1", "--diameter-um", "2",
                   "--wavelength-um", "0.5")
    assert rc == 1
    rc, _, _ = run(capsys, "sweep", "--variable", "radius", "--lo", "1",
                   "--hi", "2", "-o", "/tmp/x.csv")
    assert rc == 1  # no wavelength or band
    rc, _, err = run(capsys, "point", "--diameter-um", "17", "--band", "0.5:inf")
    assert rc == 1
    assert "bad band" in err
    # no prefix matching: --material is not read as --material-db
    rc, _, err = run(capsys, "point", "--radius-um", "1", "--wavelength-um",
                     "0.5", "--material", "vacuum")
    assert rc == 1
    assert "--material vacuum" in err
    # --p-true is polsim's one source: it has no --i-unpolarized
    rc, out, err = run(capsys, "polsim", "--p-true", "0.2", "--i-unpolarized", "5")
    assert rc == 1
    assert out == ""
    assert "--i-unpolarized" in err


@pytest.mark.parametrize("wavelength", ("0", "-1"))
def test_wavelength_not_above_zero_is_a_domain_error(capsys, wavelength):
    # at 0 the wavenumber 2 pi / lambda raised ZeroDivisionError out of main;
    # permittivity now refuses the wavelength first, as it did -1
    rc, out, err = run(capsys, "point", "--radius-um", "1", "--wavelength-um", wavelength)
    assert rc == 2 and out == ""
    assert err.splitlines()[-1] == ("wirepol: permittivity: wavelength must be > 0, "
                                    f"got {float(wavelength)}")


@pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["none", "unknown"])
def test_missing_or_unknown_command_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("wirepol: error:")


def test_log_spacing_needs_lo_above_0(capsys, tmp_path):
    path = tmp_path / "s.csv"
    rc, _, err = run(capsys, "sweep", "--variable", "radius", "--lo", "0", "--hi", "2",
                     "--points", "3", "--spacing", "log", "--wavelength-um", "0.5",
                     "-o", str(path))
    assert rc == 1
    assert "log spacing requires lo > 0" in err
    assert not path.exists()


def test_io_error_exit_code(capsys):
    rc, _, err = run(capsys, "sweep", "--variable", "radius", "--lo", "0.1",
                     "--hi", "1", "--points", "3", "--wavelength-um", "0.5",
                     "-o", "/nonexistent/dir/out.csv")
    assert rc == 3
    assert err


def test_sweep_determinism_across_threads(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    args = ("sweep", "--variable", "radius", "--lo", "0.05", "--hi", "2.0",
            "--points", "9", "--spacing", "log", "--wavelength-um", "0.6",
            "-o", str(path))
    assert run(capsys, *args)[0] == 0
    first = path.read_bytes()
    assert run(capsys, *args)[0] == 0
    assert path.read_bytes() == first
    assert run(capsys, *args, "--threads", "4")[0] == 0
    assert path.read_bytes() == first


def test_sweep_csv_round_trip(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--variable", "radius", "--lo", "0.1",
                   "--hi", "1.0", "--points", "5", "--wavelength-um", "0.5",
                   "-o", str(path))
    assert rc == 0
    meta, header, rows = read_csv(path)
    assert meta and header[0] == "radius_um"
    assert len(rows) == 5
    # full-precision formatting: recompute one row and compare exactly
    from wirepol.materials import load_database, model_for_temperature, \
        permittivity, refraction_index
    from wirepol.scattering import emissivity_pair
    model = model_for_temperature(load_database(), 2400.0)
    n = refraction_index(permittivity(model, 0.5))
    for row in rows:
        pair = emissivity_pair(2 * math.pi / 0.5, row[0], n)
        assert row[2] == pair.e_te  # exact: shortest round-trip repr
        assert row[3] == pair.e_tm


def test_sweep_degenerate_two_point(capsys, tmp_path):
    path = tmp_path / "s.csv"
    rc, _, _ = run(capsys, "sweep", "--variable", "radius", "--lo", "1.0",
                   "--hi", "1.0000001", "--points", "2",
                   "--wavelength-um", "0.5", "-o", str(path))
    assert rc == 0
    _, _, rows = read_csv(path)
    assert len(rows) == 2
    assert rows[0][1] == pytest.approx(rows[1][1], abs=1e-5)


def test_figure1_preset(capsys, tmp_path):
    path = tmp_path / "f1.csv"
    rc, _, _ = run(capsys, "sweep", "--preset", "figure1", "--points", "60",
                   "-o", str(path))
    assert rc == 0
    _, header, rows = read_csv(path)
    assert header[0] == "log10_2pi_a_over_lambda"
    logs = [r[0] for r in rows]
    assert logs[0] == -2.0 and logs[-1] == 3.0
    signs = np.sign([r[2] for r in rows])
    crossings = np.nonzero(np.diff(signs))[0]
    assert len(crossings) == 1


def test_table2_preset(capsys, tmp_path):
    path = tmp_path / "t2.csv"
    rc, _, _ = run(capsys, "sweep", "--preset", "table2", "-o", str(path))
    assert rc == 0
    _, header, rows = read_csv(path)
    assert [r[0] for r in rows] == [5.0, 17.0, 35.0, 100.0]
    assert rows[0][1] == pytest.approx(0.2435, abs=0.003)
    assert rows[1][1] == pytest.approx(0.222, abs=0.003)


def test_compare_builtin(capsys):
    rc, out, _ = run(capsys, "compare", "--temp-k", "2400")
    assert rc == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("diameter")]
    assert len(lines) == 4
    devs = [float(l.split(",")[4]) for l in lines]
    assert all(d <= 1.0 for d in devs)


def test_compare_room_temperature_inconsistent(capsys):
    rc, out, _ = run(capsys, "compare", "--temp-k", "298")
    assert rc == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("diameter")]
    devs = [float(l.split(",")[4]) for l in lines]
    assert max(devs) > 3.0


def test_compare_custom_and_empty_files(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text("# diameter p err\n17, 0.221, 0.003\n")
    rc, out, _ = run(capsys, "compare", "--measurements", str(path))
    assert rc == 0
    assert len(out.splitlines()) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    rc, out, _ = run(capsys, "compare", "--measurements", str(empty))
    assert rc == 0
    assert len(out.splitlines()) == 1  # header only


def test_compare_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("17, 0.221\n")
    rc, _, err = run(capsys, "compare", "--measurements", str(path))
    assert rc == 1
    assert "bad.csv:1" in err


def test_compare_value_that_is_no_number(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0.2 x\n")
    rc, out, err = run(capsys, "compare", "--measurements", str(path))
    assert rc == 1 and out == ""
    assert f"{path}:1: could not convert" in err


def test_polsim_noiseless(capsys):
    rc, out, _ = run(capsys, "polsim", "--p-true", "0.208")
    assert rc == 0
    values = parse_kv(out)
    assert float(values["p_extracted"]) == pytest.approx(0.208, abs=1e-9)


def test_polsim_seed_determinism(capsys, tmp_path):
    prefix = str(tmp_path / "run")
    args = ("polsim", "--p-true", "0.3", "--noise-rms", "0.01",
            "--seed", "9", "-o", prefix)
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    files1 = {name: (tmp_path / name).read_bytes()
              for name in ("run.step1.dat", "run.step2a.dat", "run.step2b.dat")}
    rc, out2, _ = run(capsys, *args)
    assert out2 == out1
    for name, blob in files1.items():
        assert (tmp_path / name).read_bytes() == blob


def test_polsim_monte_carlo_spread(capsys):
    p_true = 0.221
    errors = []
    for seed in range(0, 300, 3):
        rc, out, _ = run(capsys, "polsim", "--p-true", str(p_true),
                         "--noise-rms", "0.005", "--seed", str(seed))
        assert rc == 0
        errors.append(float(parse_kv(out)["p_extracted"]) - p_true)
    rms = math.sqrt(np.mean(np.asarray(errors) ** 2))
    assert rms <= 0.003


def test_polsim_warns_where_a_fitted_phase_is_off_the_polarizer(capsys):
    rc, out, err = run(capsys, "polsim", "--p-true", "0.2", "--noise-rms", "0.3",
                       "--seed", "3")
    assert rc == 0 and "p_extracted" in out
    lines = err.splitlines()
    assert len(lines) == 2
    for scan, line in zip("AB", lines):
        assert line.startswith(f"warning: scan {scan} phase off the polarizer setting")


@pytest.mark.parametrize("axis", ["1e12", "1e20"])
def test_polsim_huge_axis(capsys, axis):
    # the axis is reduced modulo 360 deg before radians: both are 280 deg
    rc, out, err = run(capsys, "polsim", "--p-true", "0.2", "--axis-deg", axis)
    assert rc == 0 and err == ""
    values = parse_kv(out)
    assert abs(float(values["p_extracted"]) - 0.2) <= 1e-9
    assert float(values["theta_star_deg"]) == pytest.approx(100.0, abs=1e-9)


def test_polsim_signal_lost_in_the_background(capsys):
    rc, out, err = run(capsys, "polsim", "--p-true", "0.2", "--background", "1e308")
    assert rc == 2 and out == ""
    assert err.startswith("wirepol: neither step-2 scan is modulated") and err.count("\n") == 1


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    out_path = tmp_path / "cfg.csv"
    cfg.write_text("variable = radius\nlo = 0.1\nhi = 0.5\npoints = 3\n"
                   f"wavelength-um = 0.5\noutput = {out_path}\n")
    rc, _, _ = run(capsys, "sweep", "--config", str(cfg))
    assert rc == 0
    _, _, rows = read_csv(out_path)
    assert len(rows) == 3
    # a flag on the command line overrides the file
    rc, _, _ = run(capsys, "sweep", "--config", str(cfg), "--points", "4")
    assert rc == 0
    _, _, rows = read_csv(out_path)
    assert len(rows) == 4


def test_hash_inside_a_value_is_not_a_comment(capsys, tmp_path, monkeypatch):
    # '#' opens a comment only at the start of a line or after whitespace
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# a sweep\nvariable = radius  # thin end\nlo = 0.1\n"
                   "hi = 0.5\npoints = 3\nwavelength-um = 0.5\noutput = run#1.csv\n")
    rc, _, _ = run(capsys, "sweep", "--config", str(cfg))
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "run#1.csv"]
    _, _, rows = read_csv(tmp_path / "run#1.csv")
    assert len(rows) == 3
    meas = tmp_path / "meas.txt"
    meas.write_text("17 0.222 0.003  # note\n#17 0.3 0.003\n")
    rc, out, _ = run(capsys, "compare", "--measurements", str(meas))
    assert rc == 0
    assert len(out.splitlines()) == 2    # header and the 17 um row


def test_material_show_and_list(capsys):
    rc, out, _ = run(capsys, "material", "show", "--temp-k", "2400")
    assert rc == 0
    assert "element = W" in out
    assert "tentative" in out
    rc, out, _ = run(capsys, "material", "list")
    assert rc == 0
    assert len(out.splitlines()) >= 5
    rc, out, _ = run(capsys, "material", "show")
    assert rc == 0 and parse_kv(out)["temperature_K"] == "2400.0"


def test_environment_changes_no_output(capsys, tmp_path, monkeypatch):
    # a run's bytes follow from its command line and the files it names:
    # a database named only by the environment is not read
    commands = [("point", "--radius-um", "1", "--wavelength-um", "0.5"),
                ("point", "--diameter-um", "17", "--band", "0.5:0.75"),
                ("material", "list"), ("compare",)]
    without = [run(capsys, *argv) for argv in commands]
    assert all(rc == 0 for rc, _, _ in without)
    monkeypatch.setenv("WIREPOL_MATERIAL_DB", str(tmp_path / "missing.json"))
    assert [run(capsys, *argv) for argv in commands] == without


@pytest.mark.parametrize("text, message", [
    ("not json", "not valid JSON"),
    ('{"records": []}', "contains no records"),
    ('{"records": [5]}', "record 0: expected an object"),
    ('{"records": [{"element": "W", "bound_terms": [], "free_terms": []}]}',
     "record 0: missing field 'temperature_K'"),
], ids=["not-json", "no-records", "record-not-object", "no-temperature"])
def test_material_list_refuses_a_bad_database(capsys, tmp_path, text, message):
    path = tmp_path / "db.json"
    path.write_text(text)
    rc, out, err = run(capsys, "material", "list", "--material-db", str(path))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("wirepol: ")
    assert message in err


def test_extrapolation_warning(capsys):
    rc, _, err = run(capsys, "point", "--radius-um", "1",
                     "--wavelength-um", "0.30")
    assert rc == 0
    assert "outside the fitted optical range" in err


def test_config_loses_to_short_output_flag(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    from_config, from_flag = tmp_path / "X.csv", tmp_path / "Y.csv"
    cfg.write_text("variable = radius\nlo = 0.1\nhi = 0.5\npoints = 3\n"
                   f"wavelength-um = 0.5\noutput = {from_config}\n")
    rc, _, _ = run(capsys, "sweep", "--config", str(cfg), "-o", str(from_flag))
    assert rc == 0
    assert from_flag.exists()
    assert not from_config.exists()


def test_config_switch_is_boolean(capsys, tmp_path):
    point = ("point", "--diameter-um", "5", "--wavelength-um", "0.6")
    rc, with_flag, _ = run(capsys, *point, "--include-tentative")
    assert rc == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("include-tentative = true\n")
    rc, with_config, _ = run(capsys, *point, "--config", str(cfg))
    assert rc == 0
    assert with_config == with_flag
    cfg.write_text("include-tentative = false\n")
    rc, without, _ = run(capsys, *point, "--config", str(cfg))
    assert rc == 0
    assert without != with_flag
    assert without == run(capsys, *point)[1]


@pytest.mark.parametrize("row", [
    pytest.param("17, 0.221, 0", id="0"),
    pytest.param("17, 0.221, -0.003", id="-0.003"),
    pytest.param("17, 0.221, nan", id="nan"),
    pytest.param("17, 0.221, inf", id="inf"),
    pytest.param("0 0.2 0.003", id="diameter=0"),
    pytest.param("-5, 0.2, 0.003", id="diameter=-5"),
    pytest.param("inf, 0.2, 0.003", id="diameter=inf"),
    pytest.param("5 nan 0.005", id="p=nan"),
    pytest.param("5, -inf, 0.005", id="p=-inf"),
])
def test_compare_rejects_bad_error(capsys, tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"# diameter p err\n{row}\n")
    rc, out, err = run(capsys, "compare", "--measurements", str(path))
    assert rc == 1
    assert "bad.csv:2" in err
    assert out == ""


@pytest.mark.parametrize("preset, points", [("figure1", "-3"), ("figure1", "1"),
                                            ("figure4", "-3")])
def test_preset_points_validated(capsys, tmp_path, preset, points):
    path = tmp_path / "preset.csv"
    rc, _, err = run(capsys, "sweep", "--preset", preset, "--points", points,
                     "-o", str(path))
    assert rc == 1
    assert "points >= 2" in err
    assert not path.exists()


def test_sweep_wavelength_columns(capsys, tmp_path):
    path = tmp_path / "wavelength.csv"
    rc, _, _ = run(capsys, "sweep", "--variable", "wavelength", "--lo", "0.4",
                   "--hi", "0.8", "--points", "3", "--radius-um", "0.3",
                   "-o", str(path))
    assert rc == 0
    _, header, rows = read_csv(path)
    assert header == ["wavelength_um", "p", "e_te", "e_tm", "terms_used",
                      "truncation_error"]
    from wirepol.materials import load_database, model_for_temperature, \
        permittivity, refraction_index
    from wirepol.scattering import emissivity_pair, polarization_of
    lam = rows[1][0]
    assert lam == 0.6000000000000001  # np.linspace(0.4, 0.8, 3)[1]
    n = refraction_index(permittivity(model_for_temperature(load_database(), 2400.0), lam))
    pair = emissivity_pair(2 * math.pi / lam, 0.3, n)
    assert rows[1] == [lam, polarization_of(pair.e_te, pair.e_tm), pair.e_te,
                       pair.e_tm, pair.terms_used, pair.truncation_error_estimate]


def test_sweep_temperature_columns(capsys, tmp_path):
    path = tmp_path / "temperature.csv"
    rc, _, _ = run(capsys, "sweep", "--variable", "temperature", "--lo", "1600",
                   "--hi", "2400", "--points", "2", "--diameter-um", "2",
                   "--band", "0.5:0.75", "-o", str(path))
    assert rc == 0
    _, header, rows = read_csv(path)
    assert header == ["temperature_K", "model_temperature_K", "p_avg",
                      "e_te_bar", "e_tm_bar"]
    assert [r[0] for r in rows] == [1600.0, 2400.0]
    from wirepol.materials import load_database, model_for_temperature
    from wirepol.spectral import BandFilter, band_averaged_polarization
    model = model_for_temperature(load_database(), 1600.0)
    res = band_averaged_polarization(1.0, 1600.0, BandFilter(0.5, 0.75), model)
    assert rows[0] == [1600.0, model.temperature_k, res.p_avg, res.e_te_bar,
                       res.e_tm_bar]


TEMPERATURE_SWEEP = ("sweep", "--variable", "temperature", "--lo", "1600",
                     "--hi", "2400", "--points", "2", "--diameter-um", "2",
                     "--band", "0.5:0.75")


def test_temperature_sweep_rejects_temp_k(capsys, tmp_path):
    # the swept temperature picks each row's model, so --temp-k sets nothing
    path = tmp_path / "t.csv"
    rc, out, err = run(capsys, *TEMPERATURE_SWEEP, "--temp-k", "298",
                       "-o", str(path))
    assert rc == 1
    assert "--temp-k" in err
    assert out == ""
    assert not path.exists()


def test_temperature_sweep_metadata_claims_no_model_temperature(capsys, tmp_path):
    path = tmp_path / "t.csv"
    rc, _, _ = run(capsys, *TEMPERATURE_SWEEP, "-o", str(path))
    assert rc == 0
    meta, header, rows = read_csv(path)
    assert meta[-1] == "# material: W"
    assert not any("model T" in line for line in meta)
    assert header[1] == "model_temperature_K"
    assert [r[1] for r in rows] == [1600.0, 2400.0]


@pytest.mark.parametrize("spelling", [["--threads", "2"], ["--thread", "2"],
                                      ["--thr=2"], ["--th", "3"],
                                      ["--threads=4"]])
def test_threads_spellings_leave_output_unchanged(capsys, tmp_path, spelling):
    # --threads N and --threads=N stay out of the recorded command line,
    # so the bytes equal those without the flag; an abbreviation is a
    # usage error that writes nothing
    sweep = ["sweep", "--variable", "radius", "--lo", "0.1", "--hi", "0.2",
             "--points", "2", "--wavelength-um", "0.5", "-o"]
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    assert run(capsys, *sweep, str(plain))[0] == 0
    rc, _, err = run(capsys, *sweep[:-1], *spelling, "-o", str(flagged))
    if spelling[0].partition("=")[0] != "--threads":
        assert rc == 1
        assert spelling[0] in err
        assert not flagged.exists()
        return
    assert rc == 0
    assert plain.read_bytes().replace(b"plain.csv", b"flagged.csv") \
        == flagged.read_bytes()


# a key that names no option of the command is refused like the flag: a
# misspelled --temp-k would leave the 2400 K model in place, --config and
# --help belong to the command line, and no kind takes --nodes, as the
# band's rule settles by itself
@pytest.mark.parametrize("key", ["func", "command", "help", "no_such_option",
                                 "temperature", "config", "", "nodes"],
                         ids=lambda key: key or "no-key")
def test_config_key_that_is_no_option(capsys, tmp_path, key):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"# a comment\n{key} = 16\n")
    point = ["point", "--radius-um", "1", "--wavelength-um", "0.5"]
    rc, out, err = run(capsys, *point, "--config", str(cfg))
    assert rc == 1 and out == ""
    assert err == f"wirepol: error: {cfg}:2: point has no option --{key}\n"


def bundled_table():
    import importlib.resources as res
    return json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())


@pytest.fixture
def clear_db(tmp_path):
    """The bundled table with a bound term of K0 = 1e14 added to each
    record, which leaves the interior nearly lossless."""
    raw = bundled_table()
    for record in raw["records"]:
        record["bound_terms"].append({"K0": 1e14, "lambda_s": 0.1, "delta": 1e-12})
    db = tmp_path / "clear.json"
    db.write_text(json.dumps(raw))
    return str(db)


def test_convergence_error_context_in_message(capsys, clear_db):
    # the message of the failing call names its order and complex argument
    rc, out, err = run(capsys, "point", "--radius-um", "1", "--wavelength-um", "0.5",
                       "--material-db", clear_db)
    assert rc == 2 and out == ""
    assert err == ("wirepol: continued fraction for J_m / J_(m+1) cannot converge "
                   "in 1000000 terms (order=57, "
                   "nka=(128254983.01618879+2.4406611630950937e-05j))\n")


def test_band_convergence_error_reports_nodes(capsys, monkeypatch):
    # random emissivities at the nodes defeat every rule up to the largest
    import types
    from wirepol import spectral
    rng = np.random.default_rng(3)

    def rough(a_um, model, wavelengths_um):
        return [types.SimpleNamespace(e_te=v, e_tm=1.0 - v)
                for v in rng.random(len(wavelengths_um)).tolist()]

    monkeypatch.setattr(spectral, "wire_emissivities", rough)
    rc, out, err = run(capsys, "point", "--diameter-um", "17", "--band", "0.5:0.75")
    assert rc == 2 and out == ""
    assert err == ("wirepol: quadrature error estimate 8.27714e-05 exceeds "
                   "tolerance 1e-06 (nodes=512)\n")


def test_wide_band_settles_on_a_larger_rule(capsys):
    # 3.8e-6 apart at 64 and 128 nodes; 6.9e-8 at 128 and 256
    rc, out, err = run(capsys, "point", "--diameter-um", "5", "--band", "0.3:5",
                       "--temp-k", "2400")
    assert rc == 0
    assert err == ("warning: 2 wavelength(s) outside the fitted optical range "
                   "[0.365, 2.65] micron; the analytic model is extrapolated\n")
    values = parse_kv(out)
    assert values["quadrature_nodes"] == "128"
    assert float(values["quadrature_error"]) < 1e-7


def test_thick_wire_point(capsys):
    # a 4 mm wire needs about 25 400 orders, within the ceiling
    rc, out, err = run(capsys, "point", "--diameter-um", "4000",
                       "--wavelength-um", "0.5")
    assert rc == 0, err
    assert float(parse_kv(out)["p"]) == pytest.approx(0.17869, abs=1e-5)


def test_wire_below_size_floor_is_numerical_failure(capsys):
    # x = 1.3e-299: both emissivities (~ x^2) underflow to 0, so P is
    # refused: one error line, no warning
    rc, out, err = run(capsys, "point", "--radius-um", "1e-300",
                       "--wavelength-um", "0.5")
    assert rc == 2
    assert out == ""
    assert err.startswith("wirepol: ") and err.count("\n") == 1
    assert "underflow" in err


def test_tiny_wire_point_meets_quasi_static_limit(capsys):
    # x = 1.3e-149, far below where H_m(x) overflows: P is P_0 of the
    # quasi-static cylinder, (4 - |eps + 1|^2) / (4 + |eps + 1|^2)
    from wirepol.materials import load_database, model_for_temperature, permittivity
    rc, out, err = run(capsys, "point", "--radius-um", "1e-150",
                       "--wavelength-um", "0.5")
    assert rc == 0, err
    eps = permittivity(model_for_temperature(load_database(), 2400.0), 0.5)
    q = abs(eps + 1) ** 2
    assert abs(float(parse_kv(out)["p"]) - (4 - q) / (4 + q)) <= 1e-15


def test_vacuum_wire_at_a_zero_of_j0_is_degenerate(capsys, tmp_path):
    # a term-less record is vacuum, n = 1; k a = 2.4048 is the first zero
    # of J_0, where the D recurrence divides by zero: exit 2, one line
    db = tmp_path / "vac.json"
    db.write_text('{"records": [{"element": "vac", "temperature_K": 2400, '
                  '"bound_terms": [], "free_terms": []}]}')
    rc, out, err = run(capsys, "point", "--radius-um", "0.1913699373905031",
                       "--wavelength-um", "0.5", "--material-db", str(db))
    assert rc == 2
    assert out == ""
    assert err.startswith("wirepol: ") and err.count("\n") == 1


def test_nearly_lossless_interior_is_refused_at_once(capsys, clear_db):
    # |nx| ~ 1.3e8 with Im(nx) ~ 2e-5: D's fraction took 0.45 s to exhaust
    # its bound before exit 2, and is now refused before its first step
    start = time.perf_counter()
    rc, out, err = run(capsys, "point", "--radius-um", "1", "--wavelength-um", "0.5",
                       "--material-db", clear_db)
    assert time.perf_counter() - start < 0.02
    assert rc == 2 and out == ""
    assert err.startswith("wirepol: continued fraction") and err.count("\n") == 1
    assert "cannot converge" in err


def test_figure4_preset(capsys, tmp_path):
    path = tmp_path / "f4.csv"
    rc, _, err = run(capsys, "sweep", "--preset", "figure4", "--points", "2",
                     "-o", str(path))
    assert rc == 0, err
    _, header, rows = read_csv(path)
    assert header == ["diameter_um", "p_avg_298K", "p_avg_1600K", "p_avg_2400K"]
    assert [r[0] for r in rows] == [0.5, 120.0]
    assert all(abs(p) < 1.0 for r in rows for p in r[1:])


def test_compare_output_file_repeats_stdout(capsys, tmp_path):
    data, path = tmp_path / "m.csv", tmp_path / "c.csv"
    data.write_text("17 0.221 0.003\n")
    rc, out, _ = run(capsys, "compare", "--measurements", str(data),
                     "-o", str(path))
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# command: wirepol compare")
    assert lines[1] == "# model T = 2400 K"
    assert lines[2:] == out.splitlines()


def test_compare_numerical_failure_prints_nothing(capsys, tmp_path):
    # the 20 mm wire needs more orders than the ceiling allows
    data, path = tmp_path / "m.csv", tmp_path / "c.csv"
    data.write_text("17 0.221 0.003\n20000 0.2 0.003\n")
    rc, out, err = run(capsys, "compare", "--measurements", str(data),
                       "-o", str(path))
    assert rc == 2
    assert out == ""
    assert "exceeds ceiling" in err
    assert not path.exists()


def refuses_unread_flag(capsys, tmp_path, argv, flag):
    """``argv`` exits 1, names ``flag`` on stderr and writes nothing."""
    path = tmp_path / "t.csv"
    if argv[0] == "sweep":
        argv = (*argv, "-o", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith("wirepol: error: ") and err.count("\n") == 1
    assert flag in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("flag", [
    ("--variable", "radius"), ("--lo", "1"), ("--hi", "2"),
    ("--band", "0.45:0.75"), ("--wavelength-um", "0.5"),
    ("--radius-um", "1"), ("--diameter-um", "2"), ("--temp-k", "1600"),
    ("--spacing", "log"), ("--points", "3"),
], ids=lambda flag: flag[0])
def test_preset_rejects_flags_it_fixes(capsys, tmp_path, flag):
    refuses_unread_flag(capsys, tmp_path, ("sweep", "--preset", "table2", *flag),
                        flag[0])


GRID = ("--lo", "0.5", "--hi", "0.6", "--points", "2")


@pytest.mark.parametrize("argv, flag", [
    (("sweep", "--preset", "figure1", "--temp-k", "2400"), "--temp-k"),
    (("sweep", "--variable", "radius", *GRID, "--radius-um", "nan",
      "--wavelength-um", "0.5"), "--radius-um"),
    (("sweep", "--variable", "wavelength", *GRID, "--radius-um", "1",
      "--band", "0.5:0.75"), "--band"),
    # of two spectra, the wavelength is read and the band refused
    (("sweep", "--variable", "radius", *GRID, "--wavelength-um", "0.6",
      "--band", "0.5:0.75"), "--band"),
    (("sweep", "--variable", "temperature", "--lo", "1600", "--hi", "2400",
      "--points", "2", "--radius-um", "1", "--band", "0.5:0.75",
      "--wavelength-um", "3"), "--wavelength-um"),
    (("point", "--radius-um", "1", "--wavelength-um", "0.5", "--nodes", "5000"),
     "--nodes"),
    (("point", "--radius-um", "1", "--wavelength-um", "0.5", "--nodes", "16"),
     "--nodes"),
    # the node count settles by itself: no kind takes --nodes
    (("point", "--radius-um", "1", "--band", "0.5:0.75", "--nodes", "64"), "--nodes"),
    (("point", "--radius-um", "1", "--diameter-um", "2", "--band", "0.5:0.75"),
     "--diameter-um"),
    # --p-true is polsim's one source: no other source flag exists, on the
    # command line or in --config; the text after --config is the file's
    (("polsim", "--p-true", "0.2", "--i-unpolarized", "5"),
     "unrecognized arguments: --i-unpolarized 5"),
    (("polsim", "--p-true", "0.2", "--i-polarized", "1"),
     "unrecognized arguments: --i-polarized 1"),
    (("polsim", "--p-true", "0.2", "--config", "i-unpolarized = 5\n"),
     "polsim has no option --i-unpolarized"),
    (("polsim", "--i-polarized", "1", "--config", "p-true = 0.2\n"),
     "unrecognized arguments: --i-polarized 1"),
], ids=("figure1-temp-k", "radius-radius-um", "wavelength-band",
        "radius-band", "temperature-wavelength-um", "point-nodes-5000",
        "point-nodes-16", "point-band-nodes-64", "point-diameter-um",
        "polsim-p-true-i-unpolarized", "polsim-p-true-i-polarized",
        "polsim-config-i-unpolarized", "polsim-config-p-true"))
def test_kind_rejects_flags_it_does_not_read(capsys, tmp_path, argv, flag):
    if "--config" in argv:
        at = argv.index("--config") + 1
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(argv[at])
        argv = (*argv[:at], str(cfg), *argv[at + 1:])
    refuses_unread_flag(capsys, tmp_path, argv, flag)


@pytest.mark.parametrize("argv", [
    ("point", "--radius-um", "1", "--diameter-um", "2", "--wavelength-um", "0.5"),
    ("sweep", "--preset", "table2", "--temp-k", "1600"),
    ("material", "list", "--temp-k", "300"),
], ids=("point", "sweep", "material-list"))
def test_database_is_read_before_the_flags(capsys, tmp_path, argv):
    # one order of checks for every command: an unreadable database ends
    # the run before an unread flag is refused
    path = tmp_path / "t.csv"
    if argv[0] == "sweep":
        argv = (*argv, "-o", str(path))
    rc, out, err = run(capsys, *argv, "--material-db", str(tmp_path / "missing.json"))
    assert rc == 3
    assert out == "" and err.count("\n") == 1
    assert err.startswith("wirepol: i/o error: ") and "missing.json" in err
    assert not path.exists()


def test_config_values_count_as_given(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("diameter-um = 17\n")
    rc, out, err = run(capsys, "point", "--radius-um", "1",
                       "--wavelength-um", "0.5", "--config", str(cfg))
    assert rc == 1
    assert "--diameter-um" in err and out == ""
    rc, out, err = run(capsys, "point", "--band", "0.5:0.75", "--config", str(cfg))
    assert rc == 0, err
    assert out == run(capsys, "point", "--diameter-um", "17", "--band", "0.5:0.75")[1]


@pytest.mark.parametrize("command", ["point", "sweep", "compare", "material"])
def test_only_the_evaluating_commands_take_include_tentative(capsys, command):
    # material show tags each tentative term and list prints none, so
    # material has no --include-tentative to refuse
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--material-db" in out
    assert ("--include-tentative" in out) == (command != "material")


@pytest.mark.parametrize("action, flags, config, named", [
    ("list", ("--temp-k", "300"), "", "--temp-k"),
    ("list", ("--include-tentative",), "", "--include-tentative"),
    ("list", ("--temp-k", "300", "--include-tentative"), "", "--include-tentative"),
    ("list", (), "temp-k = 300\n", "--temp-k"),
    ("list", (), "include-tentative = true\n", "--include-tentative"),
    # show prints every term with its tentative tag, so the flag would
    # change nothing
    ("show", ("--temp-k", "300", "--include-tentative"), "", "--include-tentative"),
    ("show", ("--temp-k", "300"), "include-tentative = true\n", "--include-tentative"),
], ids=("temp-k", "include-tentative", "both", "config-temp-k",
        "config-include-tentative", "show-include-tentative",
        "show-config-include-tentative"))
def test_material_list_refuses_show_flags(capsys, tmp_path, action, flags, config, named):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    refuses_unread_flag(capsys, tmp_path,
                        ("material", action, *flags, "--config", str(cfg)), named)
    # show reads --temp-k, from the command line or from --config
    cfg.write_text("temp-k = 300\n")
    for argv in (("--temp-k", "300"), ("--config", str(cfg))):
        rc, out, err = run(capsys, "material", "show", *argv)
        assert rc == 0 and err == ""
        assert parse_kv(out)["temperature_K"] == "298.0"


@pytest.mark.parametrize("argv, outside", [
    (("--variable", "wavelength", "--lo", "0.3", "--hi", "0.4",
      "--radius-um", "1"), 1),
    (("--variable", "wavelength", "--lo", "0.3", "--hi", "3",
      "--radius-um", "1"), 2),
    (("--variable", "radius", "--lo", "1", "--hi", "2", "--band", "0.3:0.4"), 1),
    (("--variable", "radius", "--lo", "1", "--hi", "2", "--wavelength-um", "3"), 1),
    (("--variable", "temperature", "--lo", "1600", "--hi", "2400",
      "--radius-um", "1", "--band", "0.3:3"), 2),
    (("--variable", "wavelength", "--lo", "0.5", "--hi", "0.6",
      "--radius-um", "1"), 0),
    (("--variable", "radius", "--lo", "1", "--hi", "2", "--band", "0.5:0.75"), 0),
    (("--preset", "figure1"), 0),
], ids=("wavelength-lo", "wavelength-both", "radius-band", "radius-wavelength",
        "temperature-band", "wavelength-inside", "radius-inside", "figure1"))
def test_sweep_warns_outside_fit_once(capsys, tmp_path, argv, outside):
    path = tmp_path / "s.csv"
    rc, out, err = run(capsys, "sweep", *argv, "--points", "2", "-o", str(path))
    assert rc == 0 and out == ""
    if outside:
        assert err == (f"warning: {outside} wavelength(s) outside the fitted "
                       "optical range [0.365, 2.65] micron; the analytic model "
                       "is extrapolated\n")
    else:
        assert err == ""
    assert len(read_csv(path)[2]) == 2


def test_polsim_takes_no_material_flags(capsys):
    for flag in (("--material-db", "db.json"), ("--include-tentative",)):
        rc, out, _ = run(capsys, "polsim", "--p-true", "0.2", *flag)
        assert rc == 1
        assert out == ""


def test_band_where_every_planck_weight_underflows(capsys):
    # at 300 K every Planck weight over 1-2 nm underflows; the weights
    # scaled to the band's peak still give P
    rc, out, err = run(capsys, "point", "--radius-um", "0.5",
                       "--band", "1e-3:2e-3", "--temp-k", "300")
    assert rc == 0, err
    p = float(parse_kv(out)["p_avg"])
    assert math.isfinite(p) and abs(p) <= 1.0


@pytest.mark.parametrize("band", ["0.5:1e300", "0.5:1e308", "1e-310:1e-309"])
def test_band_outside_the_kernel_is_one_error_line(capsys, band):
    # the emissivity hook runs on Python floats before the Planck weight,
    # so the size parameter fails first, without a numpy warning
    rc, out, err = run(capsys, "point", "--radius-um", "0.5", "--band", band,
                       "--temp-k", "2400")
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert [line for line in lines if line.startswith("wirepol:")] == lines[-1:]
    assert "Warning" not in err


@pytest.mark.parametrize("argv, code", [
    # each would ask for more memory than exists, at once
    (("sweep", "--variable", "radius", "--lo", "1", "--hi", "2",
      "--wavelength-um", "0.5", "--points", str(10 ** 17)), 1),
    (("polsim", "--p-true", "0.2", "--step-deg", "1e-300"), 2),
], ids=("points", "step-deg"))
def test_work_size_limits(capsys, tmp_path, argv, code):
    path = tmp_path / "sweep.csv"
    if argv[0] == "sweep":
        argv = (*argv, "-o", str(path))
    rc, out, err = run(capsys, *argv)
    assert rc == code
    assert out == "" and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("flags", [
    ("--p-true", "0.2", "--step-deg", "nan"),
    ("--p-true", "0.2", "--axis-deg", "nan"),
    ("--p-true", "0.2", "--background", "nan"),
    ("--p-true", "0.2", "--noise-rms", "inf"),
    ("--p-true", "0.2", "--noise-rms", "0.01", "--seed", "-1"),
], ids=("step-deg", "axis-deg", "background", "noise-rms", "seed"))
def test_polsim_rejects_non_finite_inputs(capsys, flags):
    rc, out, err = run(capsys, "polsim", *flags)
    assert rc == 2
    assert out == ""
    assert err.startswith("wirepol: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    (),
    ("--lo", "0.05"),
    ("--lo", "0.05", "--hi", "inf"),
    ("--lo", "0.05", "--hi", "1", "--points", "0"),
], ids=("no-range", "no-hi", "hi=inf", "points=0"))
def test_sweep_range_is_a_usage_error(capsys, tmp_path, flags):
    path = tmp_path / "radius.csv"
    rc, _, err = run(capsys, "sweep", "--variable", "radius",
                     "--wavelength-um", "0.5", *flags, "-o", str(path))
    assert rc == 1
    assert err.startswith("wirepol: error: ")
    assert not path.exists()


@pytest.mark.parametrize("line, flag", [
    ("variable = banana", "--variable"),
    ("spacing = x", "--spacing"),
], ids=("variable", "spacing"))
def test_config_value_outside_choices_is_a_usage_error(capsys, tmp_path, line, flag):
    # argparse checks a config value like the flag it mirrors
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"variable = radius\nlo = 1\nhi = 2\nwavelength-um = 0.5\n{line}\n")
    refuses_unread_flag(capsys, tmp_path, ("sweep", "--config", str(cfg)), flag)


def test_config_fills_a_required_exclusive_group(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p-true = 0.2\n")
    rc, out, err = run(capsys, "polsim", "--config", str(cfg))
    assert rc == 0 and err == ""
    assert out == run(capsys, "polsim", "--p-true", "0.2")[1]
    # polsim has no second source to give on the command line
    rc, out, err = run(capsys, "polsim", "--config", str(cfg), "--i-polarized", "1")
    assert rc == 1
    assert out == "" and err.startswith("wirepol: error: ")


@pytest.mark.parametrize("argv", [
    ("--p-true", "0.2", "--i-polarized", "1"),
    ("--i-polarized", "1"),
], ids=("with-p-true", "alone"))
def test_polsim_takes_its_source_only_as_p_true(capsys, argv):
    rc, out, err = run(capsys, "polsim", *argv)
    assert rc == 1 and out == ""
    assert err.startswith("wirepol: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("p_true", ("nan", "-0.1", "1.5"))
def test_polsim_p_true_outside_0_1_is_a_usage_error(capsys, p_true):
    rc, out, err = run(capsys, "polsim", "--p-true", p_true)
    assert rc == 1 and out == ""
    assert err == "wirepol: error: --p-true must be in [0, 1]\n"


@pytest.mark.parametrize("flag, code", [
    ("--config", 1), ("--measurements", 1), ("--material-db", 2),
], ids=("config", "measurements", "material-db"))
def test_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path, flag, code):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# r\xe9sum\xe9\n17 0.221 0.003\n")
    rc, out, err = run(capsys, "compare", f"{flag}={path}")
    assert rc == code
    assert out == "" and err.count("\n") == 1
    assert err.startswith("wirepol: ") and str(path) in err


def test_compare_warns_outside_fit(capsys):
    rc, out, err = run(capsys, "compare", "--band", "0.3:0.4")
    assert rc == 0 and out
    assert err == ("warning: 1 wavelength(s) outside the fitted optical range "
                   "[0.365, 2.65] micron; the analytic model is extrapolated\n")
    rc, _, err = run(capsys, "compare")
    assert rc == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ("point", "--config=", "--radius-um", "1", "--wavelength-um", "0.5"),
    ("point", "--config", "", "--radius-um", "1", "--wavelength-um", "0.5"),
    ("compare", "--measurements="),
    ("compare", "--output="),
    ("point", "--radius-um", "1", "--wavelength-um", "0.5", "--material-db="),
    ("polsim", "--p-true", "0.2", "--output-prefix="),
], ids=("config", "config-spaced", "measurements", "compare-output",
        "material-db", "output-prefix"))
def test_empty_file_path_is_a_usage_error(capsys, argv):
    # an empty path named no file and was read as no flag at all
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == "" and err.count("\n") == 1
    assert err.startswith("wirepol: error: ")


@pytest.mark.parametrize("argv", [
    ("point", "--config", "--radius-um", "1", "--wavelength-um", "0.5"),
    ("sweep", "--config", "-o", "out.csv", "--preset", "figure1"),
], ids=("long-flag", "short-flag"))
def test_flag_after_config_is_a_missing_value(capsys, argv):
    # the flag was read as the path, and the run ended in an i/o error
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == "" and err == "wirepol: error: argument --config: expected one argument\n"


@pytest.fixture
def refused_inputs(tmp_path, monkeypatch):
    """The files that the refused commands name, in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "banana.cfg").write_text("variable = banana\nlo = 1\nhi = 2\nwavelength-um = 0.5\n")
    (tmp_path / "typo.cfg").write_text("temperature = 300\nradius-um = 1\nwavelength-um = 0.5\n")
    (tmp_path / "nokv.cfg").write_text("radius-um 1\n")
    raw = bundled_table()
    records = raw["records"]
    tables = {"records": {**raw, "records": 5},
              "nm": {**raw, "units": {"wavelengths": "nm", "conductivities": "S/cm"}},
              "twice": {**raw, "records": records + records[-1:]},
              "mixed": {**raw, "records": [{**records[0], "element": "Au"}, *records[1:]]},
              "el": {**raw, "records": [{**r, "element": "W\nfake"} for r in records]}}
    for name, k0 in (("nan", math.nan), ("bool", True)):
        tables[name] = bundled_table()
        tables[name]["records"][0]["bound_terms"][0]["K0"] = k0    # the 298 K record
    for name, table in tables.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(table))
    return sorted(os.listdir())


# the reason that some of the refusals below must give
REFUSALS = {
    "point --config nokv.cfg --wavelength-um 0.5": "nokv.cfg:1: expected key = value",
    "sweep --preset figure1 --points 2 --material-db el.json -o f.csv":
        "element must be a string on one line",
}


# Exit 1: material list reads no --temp-k; a --config value outside its
# flag's choices; polsim needs --p-true; material show tags tentative terms
# and takes no --include-tentative; a --config key must name an option; a
# --config line must hold '='; a file path must be one line.
# Exit 2: a material parameter that is not finite and > 0, or not of its
# JSON type, and a record list that is not an array; a table with two
# records at 2400 K, one that mixes elements, one that declares units
# other than micron and ohm^-1 m^-1, and an element that is not one line.
@pytest.mark.parametrize("code, command", [
    (1, "material list --temp-k 300"),
    (1, "sweep --config banana.cfg -o b.csv"),
    (1, "polsim --seed 1"),
    (1, "material show --include-tentative"),
    (1, "point --config typo.cfg"),
    (1, "point --config nokv.cfg --wavelength-um 0.5"),
    (1, "sweep --preset figure1 --points 2 -o 'a\nb.csv'"),
    (1, "sweep --preset figure1 --points 2 -o 'a\u2028b.csv'"),
    (2, "material show --temp-k 298 --material-db nan.json"),
    (2, "material show --temp-k 298 --material-db bool.json"),
    (2, "material show --temp-k 298 --material-db records.json"),
    (2, "material list --material-db twice.json"),
    (2, "material list --material-db mixed.json"),
    (2, "point --radius-um 1 --wavelength-um 0.5 --material-db nm.json"),
    (2, "sweep --preset figure1 --points 2 --material-db el.json -o f.csv"),
])
def test_refused_command(capsys, refused_inputs, code, command):
    # at once, with one line on stderr, nothing on stdout and no file written
    start = time.perf_counter()
    rc, out, err = run(capsys, *shlex.split(command))
    assert time.perf_counter() - start < 20
    assert rc == code and out == ""
    assert err.count("\n") == 1
    assert err.startswith("wirepol: error:" if code == 1 else "wirepol:")
    assert REFUSALS.get(command, "") in err
    assert sorted(os.listdir()) == refused_inputs
