"""Regression against the checked-in numeric corpus (``make_corpus.py``):
emissivities within 1e-13 relative, polarizations and the band quadrature
estimate within 1e-13 absolute, inputs exactly."""

import json

import pytest

import make_corpus

STORED = json.loads(make_corpus.PATH.read_text(encoding="utf-8"))
REL, ABS = 1e-13, 1e-13
ABSOLUTE = ("p", "quadrature_error")    # the other outputs: relative


def _compare(where, stored: dict, got: dict, inputs: tuple):
    assert stored.keys() == got.keys(), where
    for key in inputs:
        assert got[key] == stored[key], (where, key)
    misses = []
    for key in stored.keys() - set(inputs):
        bound = ABS if key.startswith(ABSOLUTE) else REL * abs(stored[key])
        if not abs(got[key] - stored[key]) <= bound:
            misses.append((key, stored[key], got[key]))
    return [(where, *miss) for miss in misses]


@pytest.mark.parametrize("section, inputs", [
    ("single_wavelength", ("temperature_k", "wavelength_um", "radius_um")),
    ("band", ("temperature_k", "diameter_um")),
])
def test_library_values_match_corpus(section, inputs):
    got = getattr(make_corpus, section)()
    assert len(got) == len(STORED[section])
    misses = [miss for i, (s, g) in enumerate(zip(STORED[section], got))
              for miss in _compare(i, s, g, inputs)]
    assert not misses, misses[:10]


@pytest.mark.parametrize("name", sorted(make_corpus.SWEEPS))
def test_sweep_csv_values_match_corpus(name):
    stored = STORED["csv"][name]
    got = make_corpus.sweep_csv(make_corpus.SWEEPS[name])
    assert got["header"] == stored["header"]
    assert len(got["rows"]) == len(stored["rows"])
    # the first column is the swept input
    misses = [miss for i, (s, g) in enumerate(zip(stored["rows"], got["rows"]))
              for miss in _compare(i, dict(zip(stored["header"], s)),
                                   dict(zip(got["header"], g)), stored["header"][:1])]
    assert not misses, misses[:10]
