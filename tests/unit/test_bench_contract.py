"""The benchmark's outside-in contract, checked where it is cheap.

``bench/`` measures the program from outside: it imports a handful of
names and wraps the layers' public callables by attribute
(``bench/trace.py::Tracer.patch`` raises on a missing one).  ``bench/``
may not change with the code it measures, so a renamed or removed
callable has to fail here, in tier-1 and in milliseconds, not in CI's
smoke step minutes later.  This file reads ``bench/``; it does not edit
it.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.vector
from bench.trace import Tracer
from bench.workloads import WORKLOADS
from repro.cli import ObsBundle


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_patch_point_resolves(name, tmp_path):
    workload = WORKLOADS[name](2019, 0.02, artifact_dir=tmp_path / "artifacts")
    tracer = Tracer()
    try:
        workload.instrument(tracer, workload.build())  # AttributeError: a rename
        assert tracer._patches
    finally:
        tracer.unpatch_all()


def test_names_bench_imports():
    assert repro.vector.HAVE_NUMPY is True
    # bench/workloads.py builds the bundle positionally
    assert [field.name for field in dataclasses.fields(ObsBundle)] == [
        "metrics", "tracer", "audit", "spans", "timeseries", "health", "slo", "forensics",
    ]
