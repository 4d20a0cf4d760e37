"""Outside-in tracing of wirepol's layers.

wirepol's modules bind each other's functions by from-import, so a call
such as ``hankel1_all_orders(...)`` inside ``wirepol.scattering`` looks the
name up in the ``wirepol.scattering`` namespace.  ``Tracer`` replaces the
traced functions in every namespace that binds them with a wrapper that
records a span, and puts the originals back on exit.  The program's
source is never edited.

Spans live in memory as ``[id, parent, name, t0, t1, attrs]`` lists and
are written out by ``write_spans`` once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import wirepol
import wirepol.cli
import wirepol.materials
import wirepol.scattering
import wirepol.special_functions
import wirepol.spectral

NAMESPACES = (wirepol, wirepol.cli, wirepol.materials, wirepol.scattering,
              wirepol.spectral)


def _orders(args, kwargs, result):
    m_max, _x = args[:2]
    m_min = args[2] if len(args) > 2 else kwargs.get("m_min", 0)
    return {"orders": m_max - m_min + 1}


def _steps(args, kwargs, result):
    z, m_max = args[:2]
    return {"steps": max(m_max, int(abs(z))) + 16}


def _pair(args, kwargs, result):
    return {"terms_used": result.terms_used,
            "truncation_error": result.truncation_error_estimate}


def _band(args, kwargs, result):
    return {"nodes": result.quadrature_nodes,
            "quadrature_error": result.est_quadrature_error}


# Function traced -> what to record from its arguments and result.
TRACED = {
    wirepol.special_functions.bessel_j_all_orders: _orders,
    wirepol.special_functions.hankel1_all_orders: _orders,
    wirepol.special_functions.bessel_j_log_derivative: _steps,
    wirepol.scattering.emissivity_pair: _pair,
    wirepol.spectral.band_averaged_polarization: _band,
    wirepol.spectral.planck_radiance: None,
    wirepol.materials.permittivity: None,
    wirepol.materials.load_database: None,
    wirepol.cli.main: None,
}


def span_name(func) -> str:
    """``special_functions.hankel1_all_orders`` for the function of that
    name in ``wirepol.special_functions``."""
    return f"{func.__module__.rpartition('.')[2]}.{func.__name__}"


class Tracer:
    """Context manager that wraps every traced function while active.

    Spans opened in a worker thread with no open span of their own get
    the innermost open span of the thread that entered the tracer as
    parent: the CLI's thread pool evaluates on behalf of ``cli.main``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, annotate):
        name = span_name(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = annotate(args, kwargs, result) if annotate else None
            self.spans.append([span_id, parent, name, t0, t1, attrs])
            return result

        return traced

    def __enter__(self):
        self._local.stack = self._main_stack
        wrappers = {func: self._wrap(func, annotate)
                    for func, annotate in TRACED.items()}
        for module in NAMESPACES:
            for attr, value in vars(module).items():
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
        for module, attr, value in self._saved:
            setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()
        return False


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans
    cover, in seconds.  Children running in parallel threads may
    overlap, so their intervals are merged first."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _id, parent, _name, t0, t1, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for span_id, _parent, _name, t0, t1, _attrs in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(span_id, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[span_id] = (t1 - t0) - covered
    return out


def write_spans(spans, path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, name, t0, t1, attrs in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start": t0 - origin, "end": t1 - origin,
                                 "attrs": attrs}) + "\n")
