"""Drude permittivity model and the material database loader."""

import cmath
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants

from wirepol.errors import DomainError, MaterialDataError, RangeError
from wirepol.materials import (
    FITTED_RANGE_UM,
    BoundTerm,
    DrudePermittivityModel,
    FreeTerm,
    load_database,
    model_for_temperature,
    permittivity,
    refraction_index,
)


@pytest.fixture(scope="module")
def db():
    return load_database()


def test_vacuum_model_is_unity():
    model = DrudePermittivityModel("vacuum", 300.0, (), ())
    for lam in (0.4, 0.6, 2.0):
        assert permittivity(model, lam) == 1.0
        assert refraction_index(permittivity(model, lam)) == 1.0


def test_permittivity_against_independent_expression(db):
    # single-expression re-evaluation of the dispersion formula, by default
    # and with the tentative conduction term, where every tabulated number
    # enters
    for include_tentative in (False, True):
        model = model_for_temperature(db, 2400.0, include_tentative=include_tentative)
        lam = 0.6
        eps = 1.0
        for k0, ls, d in [(10.9, 1.40, 1.0), (13.4, 0.57, 1.2), (12.0, 0.25, 1.0)]:
            eps += k0 * lam**2 / (lam**2 - ls**2 - 1j * d * ls * lam)
        conv = 1e-6 / (2 * math.pi * constants.c * constants.epsilon_0)
        for sig, lr in [(1.19e6, 3.66), (0.25e6, 0.36)][:1 + include_tentative]:
            eps -= lam**2 * conv * sig / (lr + 1j * lam)
        assert permittivity(model, lam) == pytest.approx(eps, rel=1e-12)


def test_tentative_term_excluded_by_default(db):
    base = model_for_temperature(db, 2400.0)
    full = model_for_temperature(db, 2400.0, include_tentative=True)
    lam = 0.6
    assert permittivity(base, lam) != permittivity(full, lam)
    assert len(base.free_terms) == 1
    assert len(full.free_terms) == 2


def test_model_built_directly_sums_its_tentative_term():
    # the tag is read by model_for_temperature alone: a model that holds a
    # tentative term sums it like any other
    lam, sigma, lr = 0.6, 0.25e6, 0.36
    model = DrudePermittivityModel("X", 2400.0, (), (FreeTerm(sigma, lr, tentative=True),))
    conv = 1e-6 / (2 * math.pi * constants.c * constants.epsilon_0)
    eps = 1.0 - lam**2 * conv * sigma / (lr + 1j * lam)
    assert permittivity(model, lam) == pytest.approx(eps, rel=1e-12)


def test_dc_conductivity_limit(db):
    # at very long wavelength Im(eps) -> sigma_dc * lambda / (2 pi c eps0)
    model = model_for_temperature(db, 2400.0, include_tentative=True)
    lam = 1e4
    im = permittivity(model, lam).imag
    sigma = im * 2 * math.pi * constants.c * constants.epsilon_0 / (lam * 1e-6)
    assert sigma == pytest.approx(sum(t.sigma for t in model.free_terms), rel=0.02)


def test_passivity_over_fitted_range(db):
    lo, hi = FITTED_RANGE_UM
    for rec_t in (298.0, 1600.0, 2000.0, 2200.0, 2400.0):
        model = model_for_temperature(db, rec_t)
        for i in range(40):
            lam = lo + (hi - lo) * i / 39
            eps = permittivity(model, lam)
            n = refraction_index(eps)
            assert eps.imag > 0.0
            assert n.imag >= 0.0


def test_metallic_behavior(db):
    # strongly absorbing in the visible; conduction-dominated (Re eps < 0)
    # in the near infrared
    model = model_for_temperature(db, 2400.0)
    for lam in (0.5, 0.6, 0.75):
        eps = permittivity(model, lam)
        assert eps.imag > 5.0
    for lam in (1.5, 2.0, 2.5):
        assert permittivity(model, lam).real < 0.0


def test_refraction_index_round_trip():
    for eps in (-30 + 20j, -1 + 0.01j, 2.5 + 1e-6j, -4.93 + 19.8j):
        n = refraction_index(eps)
        assert n * n == pytest.approx(eps, rel=1e-14)
        assert n.imag >= 0.0


@pytest.mark.parametrize("lam", [1.6e156, 1e200, 1e300, sys.float_info.max])
def test_permittivity_beyond_the_double_range_is_a_range_error(db, lam):
    # lambda^2 overflows: eps read -inf + inf i from 1.6e156 um, nan + nan i at 1e300
    with pytest.raises(RangeError):
        permittivity(model_for_temperature(db, 2400.0), lam)
    assert cmath.isfinite(permittivity(model_for_temperature(db, 2400.0), 1e150))


@pytest.mark.parametrize("eps", [math.nan, complex(1.0, math.nan), math.inf,
                                 complex(-math.inf, 1.0), complex(0.0, math.inf)])
def test_refraction_index_of_a_non_finite_permittivity_is_a_domain_error(eps):
    with pytest.raises(DomainError):
        refraction_index(eps)


@given(st.floats(-100.0, 100.0), st.floats(1e-9, 100.0))
@settings(max_examples=100, deadline=None)
def test_refraction_index_branch(re, im):
    n = refraction_index(complex(re, im))
    assert n.imag >= 0.0
    assert cmath.isclose(n * n, complex(re, im), rel_tol=1e-12)


def test_temperature_snap(db):
    assert model_for_temperature(db, 2350.0).temperature_k == 2400.0
    assert model_for_temperature(db, 310.0).temperature_k == 298.0
    assert model_for_temperature(db, 1850.0).temperature_k == 2000.0
    assert model_for_temperature(db, 1200.0).temperature_k == 1100.0


def test_temperature_out_of_range(db):
    with pytest.raises(RangeError):
        model_for_temperature(db, 100.0)
    with pytest.raises(RangeError):
        model_for_temperature(db, 5000.0)


def test_environment_does_not_choose_the_database(tmp_path, monkeypatch, db):
    # only the path argument names a database; the environment is not
    # read, so no output depends on it
    monkeypatch.setenv("WIREPOL_MATERIAL_DB", str(tmp_path / "missing.json"))
    assert load_database() == db


@pytest.mark.parametrize("make", [lambda: BoundTerm(math.nan, 1, 1),
                                  lambda: FreeTerm(1, math.inf)],
                         ids=["bound-nan-K0", "free-inf-lambda_r"])
def test_term_built_with_a_non_finite_parameter_is_a_data_error(make):
    with pytest.raises(MaterialDataError):
        make()


def test_unknown_field_rejected(tmp_path):
    import importlib.resources as res
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    raw["records"][0]["typo_field"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MaterialDataError):
        load_database(str(path))


def test_conductivity_sum_checked(tmp_path):
    import importlib.resources as res
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    raw["records"][0]["sigma0"] = 99e6
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MaterialDataError):
        load_database(str(path))


# json.loads reads NaN, Infinity and 1e999 (as inf); each field of the
# room-temperature record must be finite and > 0
@pytest.mark.parametrize("term, key, value", [
    ("bound_terms", "K0", "NaN"), ("bound_terms", "K0", "-240"),
    ("bound_terms", "K0", "0"), ("bound_terms", "K0", "1e999"),
    ("bound_terms", "lambda_s", "NaN"), ("bound_terms", "delta", "Infinity"),
    ("free_terms", "sigma", "NaN"), ("free_terms", "lambda_r", "Infinity"),
    (None, "temperature_K", "0"), (None, "temperature_K", "NaN"),
    (None, "sigma0", "NaN"), (None, "sigma0", "Infinity"),
])
def test_non_finite_or_non_positive_parameter_is_a_data_error(tmp_path, term, key, value):
    import importlib.resources as res
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    record = raw["records"][0]
    assert record["temperature_K"] == 298
    (record[term][0] if term else record)[key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace('"@"', value))
    with pytest.raises(MaterialDataError, match="^record 0: "):
        load_database(str(path))


# each field is read by its JSON type: a number is an int or a float, not
# a bool or a string; a flag is true or false; element and note are
# strings, and the term lists and the record list are arrays
@pytest.mark.parametrize("term, key, value", [
    ("bound_terms", "K0", "true"), ("bound_terms", "K0", '"12.0"'),
    ("bound_terms", "estimated", "0"),
    ("free_terms", "tentative", "1"), ("free_terms", "estimated", '"no"'),
    (None, "element", "74"), (None, "note", "7"),
    (None, "temperature_K", '"298"'), (None, "sigma0", '"17.7e6"'),
    (None, "bound_terms", '""'), (None, "free_terms", "{}"),
    ("top", "records", "5"), ("top", "records", "null"),
])
def test_wrong_json_type_is_a_data_error(tmp_path, capsys, term, key, value):
    import importlib.resources as res
    from wirepol.cli import main
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    record = raw["records"][0]
    assert record["temperature_K"] == 298
    (raw if term == "top" else record[term][0] if term else record)[key] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace('"@"', value))
    where = ("material database: " if term == "top" else
             f"record 0: {term[:-6]} term 0: " if term else "record 0: ")
    with pytest.raises(MaterialDataError, match=f"^{where}{key} must be "):
        load_database(str(path))
    assert main(["material", "show", "--temp-k", "298", "--material-db", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"wirepol: {where}{key} must be ") and err.count("\n") == 1


def _second_2400_k_record(raw):
    # the 2400 K record again, with another conductivity
    record = json.loads(json.dumps(raw["records"][-1]))
    assert record["temperature_K"] == 2400
    record["free_terms"][0]["sigma"], record["sigma0"] = 9e6, None
    raw["records"].append(record)


def _gold_at_298_k(raw):
    assert raw["records"][0]["temperature_K"] == 298
    raw["records"][0]["element"] = "Au"


# a table holds one element and one record per temperature: the nearest
# record is picked by temperature alone, so a second record at 2400 K was
# never read, and a sweep over temperature labelled an Au row as W
@pytest.mark.parametrize("edit, message", [
    (_second_2400_k_record, "record 5: a second record at 2400 K; "
                            "a table holds one per temperature"),
    (_gold_at_298_k, "record 1: element 'W', not record 0's 'Au'; "
                     "a table holds one element"),
], ids=("temperature", "element"))
def test_table_of_one_element_with_one_record_per_temperature(tmp_path, capsys,
                                                               edit, message):
    import importlib.resources as res
    from wirepol.cli import main
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    edit(raw)
    path = tmp_path / "db.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(MaterialDataError) as info:
        load_database(str(path))
    assert str(info.value) == message
    assert main(["point", "--radius-um", "1", "--wavelength-um", "0.5",
                 "--material-db", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"wirepol: {message}\n"


# format, version and units are optional, but a table that declares them
# declares what the loader reads: microns and ohm^-1 m^-1, and no other
# format or version
@pytest.mark.parametrize("key, value, shown", [
    ("units", {"wavelengths": "nm", "conductivities": "S/cm"},
     '{"wavelengths": "nm", "conductivities": "S/cm"}'),
    ("units", {"wavelengths": "micron"}, '{"wavelengths": "micron"}'),
    ("format", "not-a-wirepol-table", '"not-a-wirepol-table"'),
    ("version", 7, "7"),
    ("version", 1.5, "1.5"),
], ids=("units-nm", "units-partial", "format", "version-7", "version-1.5"))
def test_declared_format_version_and_units_are_the_loaders(tmp_path, capsys,
                                                           key, value, shown):
    import importlib.resources as res
    from wirepol.cli import main
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    want = json.dumps(raw[key])
    raw[key] = value
    path = tmp_path / "db.json"
    path.write_text(json.dumps(raw))
    message = f"material database: {key} must be {want}, got {shown}"
    with pytest.raises(MaterialDataError) as info:
        load_database(str(path))
    assert str(info.value) == message
    assert main(["material", "list", "--material-db", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"wirepol: {message}\n"


def test_table_without_declarations_loads(tmp_path, db):
    import importlib.resources as res
    raw = json.loads(res.files("wirepol").joinpath("data/tungsten.json").read_text())
    for key in ("format", "version", "units", "provenance"):
        del raw[key]
    path = tmp_path / "db.json"
    path.write_text(json.dumps(raw))
    assert load_database(str(path)) == db
    raw["version"] = 1.0    # the same number as the bundled 1
    path.write_text(json.dumps(raw))
    assert load_database(str(path)) == db


def test_database_that_is_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "db.json"
    path.write_bytes(b'{"records": []}\xff')
    with pytest.raises(MaterialDataError, match="db.json"):
        load_database(str(path))


@pytest.mark.parametrize("wirepol_importable", [True, False])
def test_copy_of_the_package_reads_its_own_table(tmp_path, monkeypatch,
                                                 wirepol_importable):
    # a copy loaded under another name, as an A/B run of two trees does: at
    # the parent the bundled table was read from whatever "wirepol" imported,
    # or failed with ModuleNotFoundError where none could be
    import importlib.util
    import shutil
    from pathlib import Path

    import wirepol.materials
    root = tmp_path / "wirepol_copy"
    shutil.copytree(Path(wirepol.materials.__file__).parent, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = root / "data" / "tungsten.json"
    raw = json.loads(table.read_text())
    raw["records"] = [r for r in raw["records"] if r["temperature_K"] == 298]
    table.write_text(json.dumps(raw))
    if not wirepol_importable:
        for name in [m for m in sys.modules if m.partition(".")[0] == "wirepol"]:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "wirepol", None)
    spec = importlib.util.spec_from_file_location(
        "wirepol_copy", root / "__init__.py", submodule_search_locations=[str(root)])
    copy = importlib.util.module_from_spec(spec)
    sys.modules["wirepol_copy"] = copy
    try:
        spec.loader.exec_module(copy)
        # the copy's table holds only its 298 K record
        assert copy.model_for_temperature(copy.load_database(), 2400.0).temperature_k == 298.0
    finally:
        for name in [m for m in sys.modules if m.partition(".")[0] == "wirepol_copy"]:
            del sys.modules[name]
