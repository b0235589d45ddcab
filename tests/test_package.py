"""The package namespace re-exports each module's public names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import scottlab
from scottlab import coherent, numerics, scott, semiclassics, spectra, thomas_fermi

MODULES = (coherent, numerics, scott, semiclassics, spectra, thomas_fermi)


def test_all_is_the_union_of_the_module_lists():
    expected = {name for module in MODULES for name in module.__all__}
    assert set(scottlab.__all__) == expected | {"__version__"}
    assert len(scottlab.__all__) == len(set(scottlab.__all__))


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(scottlab, name) is getattr(module, name)
    assert isinstance(scottlab.__version__, str)


def _tracer_sites():
    """SITES of the benchmark tracer, read from bench/tracer.py as it stands."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.SITES]


@pytest.mark.parametrize("module_name, attr", _tracer_sites())
def test_benchmark_tracer_site_resolves(module_name, attr):
    # the tracer wraps each site by name, so a refactor that drops one
    # breaks every traced benchmark run
    assert hasattr(importlib.import_module(module_name), attr)
