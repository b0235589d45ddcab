"""The package namespace re-exports each module's public names."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
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


def test_parallel_loops_go_through_numerics():
    # how independent pieces of linear algebra run in parallel, and how the
    # process's allocator keeps freed memory, are decided in one module;
    # every other module maps through numerics._pinned_map
    package = Path(scottlab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        for name in ("concurrent.futures", "_one_blas_thread", "mallopt"):
            found = re.search(rf"\b{re.escape(name)}\b", source) is not None
            assert found == (path.name == "numerics.py"), (path.name, name)
        # LAPACK comes from numpy's OpenBLAS or scipy.linalg.lapack's public
        # wrappers, never from function pointers pulled out of a capsule
        for name in ("pythonapi", "PyCapsule", "cython_lapack"):
            assert re.search(rf"\b{name}", source) is None, (path.name, name)


def test_no_unused_imports():
    # an import no code reads is dead, except a name the benchmark tracer
    # wraps in that module, which must stay importable there
    traced = set(_tracer_sites())
    package = Path(scottlab.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        module = "scottlab" if path.stem == "__init__" else f"scottlab.{path.stem}"
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (module, name)
            for name in sorted(imported - read)
            if (module, name) not in traced
        ]
    assert unused == []


# definitions and exported names no code in the package reads, each kept
# for a caller outside it, with the reason
KEPT_FOR_OUTSIDE_CALLERS = {
    ("cli", "read_config"): "README's replay API: a file's config header, "
    "read back to repeat the run",
    ("coherent", "trial_density_matrix"): "the benchmark's trial-density "
    "workload calls it; no command does",
    ("numerics", "negative_sum"): "GridOperator.negative_sum: the "
    "trial-density workload checks Tr(H gamma) >= Tr(H)_- with it",
}


def test_every_definition_is_used_in_the_package():
    # a function, method or class that only tests call is dead code: the
    # package keeps only what a command, a pipeline or the benchmark
    # reaches, and tests/reference.py holds what only the tests use.  Every
    # definition but a dunder counts, private or public, and so does every
    # name of a module's __all__
    package = Path(scottlab.__file__).resolve().parent
    defined, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
                if [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]:
                    defined += [(path.stem, item.value) for item in node.value.elts]
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert ("numerics", "_pinned_map") in defined  # private definitions
    assert ("cli", "read_config") in defined  # and the __all__ lists
    unused = sorted({(module, name) for module, name in defined if name not in read})
    assert unused == sorted(KEPT_FOR_OUTSIDE_CALLERS)


GUARD = """
import json, math, os, sys, tempfile

import scottlab.cli
from scottlab import coherent, semiclassics
from scottlab.numerics import Grid1D

imported = set(sys.modules)
out = tempfile.mkdtemp()
statuses = [
    scottlab.cli.main(argv + ["--out", os.path.join(out, f"{i}.csv")])
    for i, argv in enumerate([
        ["coherent-check", "--h", "0.4,0.25"],
        ["scott", "--z", "1", "--h", "0.12,0.09"],
        ["weyl"],
        ["tf-atom", "--z", "8"],
        ["hydrogen", "--z", "1", "--h", "0.1", "--k", "5"],
        ["local-trace", "--n", "1", "--h", "0.4,0.3", "--potential", "well"],
        ["local-trace", "--h", "0.4,0.3,0.2"],
        ["local-trace", "--n", "3", "--potential", "coulomb", "--bump-center", "1",
         "--bump-radius", "0.5", "--h", "0.4,0.2"],
    ])
]
p = coherent.CoherentParams(h=0.6, a=0.6 ** -0.8)
dx = math.pi * p.h / (1.0 + 15.0 / math.sqrt(p.a))
half = 1.5 + 7.0 / math.sqrt(2.0 * p.a) + 0.5
grid = Grid1D.uniform(-half, half, 2 * math.ceil(half / dx) + 1)
coherent.trial_density_matrix(
    coherent.harmonic_symbol(offset=-1.0), p, grid, support_radius=1.5
)
semiclassics.weyl_energy(
    semiclassics.WeylSpec(n=1, potential=lambda u: u * u - 1.0, h=p.h)
)
print(json.dumps({
    "statuses": statuses,
    "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
    "polynomial": sorted(m for m in sys.modules if m.startswith("numpy.polynomial")),
    "new": sorted(set(sys.modules) - imported),
}))
"""


def test_commands_run_on_numpy_and_the_standard_library_alone():
    # a fresh process: importing the CLI loads no scipy module and no
    # numpy.polynomial one, and the commands and the trial density load no
    # module the import did not
    src = str(Path(scottlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *sys.path]))
    done = subprocess.run(
        [sys.executable, "-c", GUARD], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"statuses": [0] * 8, "scipy": [], "polynomial": [], "new": []}
