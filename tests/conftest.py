"""Shared fixtures: the expensive solves run once per session."""

import tracemalloc

import pytest

from scottlab import coherent, numerics
from scottlab.scott import scott_experiment_tf
from scottlab.thomas_fermi import atomic_tf, solve_universal_tf


@pytest.fixture(scope="session")
def universal():
    return solve_universal_tf()


@pytest.fixture(scope="session")
def atom_z1():
    return atomic_tf(1.0)


@pytest.fixture(scope="session")
def atom_z8():
    return atomic_tf(8.0)


@pytest.fixture(scope="session")
def scott_z1():
    """The headline experiment: z = 1 over the acceptance h sweep."""
    return scott_experiment_tf(1.0, (0.12, 0.09, 0.07, 0.05))


@pytest.fixture
def traced_peak_mib():
    """measure(fn, *args): the MiB that tracemalloc, which sees numpy's
    buffers, records above the start at the peak of one call fn(*args),
    after an untraced warm-up call."""

    def measure(fn, *args):
        fn(*args)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            fn(*args)
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            if started:
                tracemalloc.stop()

    return measure


@pytest.fixture
def blas_pins(monkeypatch):
    """Thread-count getters of the bundled OpenBLAS the package pins (none
    where numpy bundles none), each set to 2 for the test and restored after
    it; two usable CPUs meanwhile."""
    monkeypatch.setattr(numerics, "_usable_cpus", lambda: 2)
    calls = numerics._bundled_openblas()
    found = [] if calls is None else [calls]
    priors = [get_threads() for _, get_threads in found]
    for set_threads, _ in found:
        set_threads(2)
    yield [get_threads for _, get_threads in found]
    for (set_threads, _), prior in zip(found, priors):
        set_threads(prior)


@pytest.fixture
def mapped_rows(monkeypatch):
    """The u-row indices each trial_density_matrix call hands to the worker
    pool, one list per call, in call order."""
    calls = []

    def recording(fn, items):
        calls.append(list(items))
        return numerics._pinned_map(fn, items)

    monkeypatch.setattr(coherent, "_pinned_map", recording)
    return calls


@pytest.fixture
def column_blocks(monkeypatch):
    """The columns of each block coherent._node_columns yields, one list per
    call (one per u-row of a trial density), in call order."""
    calls = []
    node_columns = coherent._node_columns

    def recording(*row):
        blocks = []
        calls.append(blocks)
        for g in node_columns(*row):
            blocks.append(g.shape[1])
            yield g

    monkeypatch.setattr(coherent, "_node_columns", recording)
    return calls
