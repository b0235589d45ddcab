"""Tests of the benchmark itself: tracing must not change what it measures.

    python3 -m pytest bench/test_bench.py

Runs one untraced and one traced pass of every workload (about a minute and
a half on two cores).
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import SITES, Tracer  # noqa: E402
from workloads import WORKLOADS, ScottSweep  # noqa: E402


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, *_ in SITES
    }


def _same_output(name, untraced, traced) -> bool:
    if name == "trial-density":
        import numpy as np

        return all(
            np.array_equal(a["gamma"].matrix, b["gamma"].matrix)
            for a, b in zip(untraced, traced)
        )
    return untraced == traced


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_gives_identical_outputs(name, tmp_path):
    workload = WORKLOADS[name]()
    workload.setup(str(tmp_path))
    untraced = workload.run_pass()
    assert workload.check(untraced) == []

    originals = _originals()
    tracer = Tracer()
    with tracer.installed():
        tracer.pass_id = 0
        traced = workload.run_pass()
    assert workload.check(traced) == []
    assert _same_output(name, untraced, traced)
    assert tracer.pass_stats(0)["trace.spans"] > 0
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, (
            f"{module}.{attr} still wrapped after the traced run"
        )


def test_wrappers_removed_when_a_pass_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            numpy_linalg = importlib.import_module("numpy.linalg")
            assert numpy_linalg.eigh is not originals[("numpy.linalg", "eigh")]
            raise RuntimeError("pass failed")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_scott_check_flags_a_wrong_coefficient(tmp_path):
    workload = ScottSweep()
    workload.setup(str(tmp_path))
    status, blob = workload.run_pass()
    text = blob.decode("utf-8")
    wrong = text.replace('"scott_coefficient": 0.12', '"scott_coefficient": 0.15', 1)
    assert wrong != text
    assert workload.check((status, blob)) == []
    failures = workload.check((status, wrong.encode("utf-8")))
    assert any("Scott coefficient" in f for f in failures)
    assert any("differs from the first pass" in f for f in failures)
