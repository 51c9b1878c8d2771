"""The benchmark's span tracer must find and count every function it patches."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import stmmap.mapgraph as mapgraph
from stmmap.geometry import TriGrid
from stmmap.surfel import Measurement

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_patches():
    module = _load_tracer()
    return module.PATCHES + module.UPDATE_CLOCK


def test_every_traced_attribute_resolves():
    # A renamed or removed attribute makes a traced benchmark run raise.
    missing = []
    for mod_name, attr, *_ in _load_patches():
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{mod_name}.{attr}")
                break
        else:
            assert callable(owner), f"{mod_name}.{attr} is not callable"
    assert not missing, f"traced attributes not found: {missing}"


def _small_batch() -> list:
    rng = np.random.default_rng(3)
    batch = []
    while len(batch) < 24:
        a, b = rng.uniform(0.0, 1.0, 2)
        if a + b < 1.0:
            batch.append(Measurement([a, b, 0.3 * a + rng.normal(0.0, 0.05)],
                                     np.diag([1e-6, 1e-6, 0.0025]), len(batch)))
    return batch


def test_traced_update_counts_every_refit():
    # A refit reached other than through the patched module attributes
    # would make the benchmark's per-layer refit and KL metrics read zero.
    stm = mapgraph.STMMap(TriGrid.triangle(1), mapgraph.PriorConfig())
    with _load_tracer().Tracer() as tracer:
        report = mapgraph.incremental_update(stm, _small_batch())
    counts = tracer.counts
    assert counts["mapgraph.update_calls"] == 1
    assert counts["surfel.mean_plane_refits"] > 0
    assert counts["distributions.kl_calls"] > 0
    assert counts["mapgraph.lbp_messages"] > 0
    assert counts["surfel.deviation_refits"] == counts["surfel.mean_plane_refits"]
    # the report counts one message per cluster refit and per LBP message
    refits = report.messages - counts["mapgraph.lbp_messages"]
    assert counts["surfel.mean_plane_refits"] == refits


def test_traced_counts_cover_every_check_and_message(monkeypatch):
    # Every divergence check of the sweep takes one traced KL, and every
    # message that is not a cluster refit is one traced LBP message: a
    # kernel that did part of this work outside the patched attributes
    # would make the benchmark's counts read low.
    checks = [0]
    divergence = mapgraph._gauss_divergence

    def counted(new, old):
        checks[0] += 1
        return divergence(new, old)

    monkeypatch.setattr(mapgraph, "_gauss_divergence", counted)
    stm = mapgraph.STMMap(TriGrid.triangle(1), mapgraph.PriorConfig())
    with _load_tracer().Tracer() as tracer:
        report = mapgraph.incremental_update(stm, _small_batch())
    counts = tracer.counts
    assert counts["distributions.kl_calls"] == checks[0] > 0
    assert counts["mapgraph.lbp_messages"] == report.messages - counts["surfel.mean_plane_refits"] > 0
