"""The benchmark's traced mode still finds every name it patches.

``perfbench/workloads.py`` wraps module attributes of the package (such as
``subsampling.pilot_breslow`` or the ``RiskSetMean.build`` classmethod) in
spans; a refactor that removes or moves one of them makes the traced run
fail with ``KeyError`` when the spans are installed.
"""

from pathlib import Path

import numpy as np
import pytest

from coxsub import subsampling

from conftest import random_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_traced_mode_installs_and_restores_every_span(perfbench):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    targets = workloads.instrument(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    ds = random_dataset(np.random.default_rng(3), n=300, p=2)
    with tracer.patched(targets):
        for owner, attr, wrapper in targets:
            assert owner.__dict__[attr] is wrapper
        res = subsampling.two_step(ds, 60, 100, 0.1, "aopt", np.random.default_rng(4))
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    names = {span["name"] for span in tracer.spans}
    assert {"subsampling.aopt.two_step", "subsampling.aopt.probability_pass",
            "breslow.residual_norms"} <= names
    stats = workloads.two_step_stats(res)
    assert stats["clamped_queries"] == res.pilot.xbar.clamped_queries
