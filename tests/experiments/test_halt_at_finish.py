"""Unobserved cells stop at the event that finishes the measurement.

``run_scenario`` points the measurement program's finish hook at
``Simulator.halt`` when no observer (tracer, lockdep, enabled faults)
is installed.  Observed runs keep the chunk horizon.  Nothing after the
last sample reaches a recorder, so the bare export must equal the
``lockdep=True`` export byte for byte, while the bare run fires
strictly fewer events -- otherwise the comparison would be vacuous.
"""

from __future__ import annotations

import importlib

import pytest

from repro.experiments.export import scenario_to_dict, to_json
from repro.experiments.scenario import run_scenario, scenario

# The package re-exports a function named ``scenario``, which shadows
# the submodule attribute; the bench factory lives on the module.
_scenario_mod = importlib.import_module("repro.experiments.scenario")

KNOBS = dict(samples=60, iterations=1)

#: fig2 includes its ideal baseline run; a5-highres is cyclictest.
NAMES = ("fig2", "fig5", "fig6", "fig7", "a5-highres")


@pytest.fixture
def benches(monkeypatch):
    """Every bench ``run_scenario`` builds, ideal baselines included."""
    built = []
    build = _scenario_mod.build_scenario_bench

    def capture(*args, **kwargs):
        bench = build(*args, **kwargs)
        built.append(bench)
        return bench
    monkeypatch.setattr(_scenario_mod, "build_scenario_bench", capture)
    return built


def _run(benches, spec, **observers):
    """Export one run and count the events its benches fired."""
    benches.clear()
    result = run_scenario(spec, **observers)
    return (to_json(scenario_to_dict(result)),
            sum(b.sim.events_fired for b in benches))


@pytest.mark.parametrize("name", NAMES)
def test_bare_run_stops_early_with_identical_export(benches, name):
    spec = scenario(name).configured(**KNOBS)
    bare, bare_events = _run(benches, spec)
    observed, observed_events = _run(benches, spec, lockdep=True)
    assert bare == observed
    assert bare_events < observed_events
