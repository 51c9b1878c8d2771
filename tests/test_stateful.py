"""A stateful fuzz of the map's public API (a Hypothesis rule-based state machine).

Each run builds one small map, a triangle of depth 0-3 or a strip, with a
window of 1-3, and a twin: a fresh map with the same settings that replays
only the updates that returned. The steps are valid, malformed, non-finite,
outside and empty batches; `surfels` indexing with an int, a negative index
and a slice; `query_map` and both exports; and updates forced to raise at a
drawn refit or message. After each step:

- every held state keeps the additive bookkeeping of criterion 9: belief =
  prior * neighbour message * the product of its cluster messages;
- every report's counts add up to its batch size;
- an update that raised left the public outputs of `digest.py` as they were;
- the map and its replay give the same reports and `query_map` bytes, and at
  the end of a run the same `digest.py` outputs: reads, indexing and raising
  updates leave no trace.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import digest
import stmmap.mapgraph as mapgraph
from stmmap.distributions import gauss_product, ig_product
from stmmap.geometry import TriGrid
from stmmap.mapgraph import ConvergenceConfig, STMMap, incremental_update, query_map
from stmmap.surfel import Measurement, MeasurementBatch


def _points(rng, grid: TriGrid, n: int) -> np.ndarray:
    """n (alpha, beta) points inside the grid, off its edges."""
    pts = np.empty((0, 2))
    while len(pts) < n:
        ab = rng.uniform(1e-6, 1.0 - 1e-6, size=(4 * n, 2)) * [1.0, grid.rows / grid.n]
        pts = np.vstack([pts, ab[ab.sum(axis=1) < 1.0 - 1e-6]])
    return pts[:n]


def _batch(seed: int, grid: TriGrid, n_valid: int, n_outside: int, n_non_finite: int) -> MeasurementBatch:
    """Valid, outside and non-finite measurements in a drawn order."""
    rng = np.random.default_rng(seed)
    n = n_valid + n_outside + n_non_finite
    ab = np.vstack([_points(rng, grid, n_valid + n_non_finite), rng.uniform(0.55, 0.95, size=(n_outside, 2))])
    means = np.column_stack([ab, rng.normal(size=n)])
    covs = rng.uniform(1e-4, 0.1, size=(n, 3))[:, :, None] * np.eye(3)
    for i in range(n_valid, n_valid + n_non_finite):  # one entry of a mean or a covariance
        target = means[i] if rng.integers(2) else covs[i].reshape(9)
        target[rng.integers(len(target))] = rng.choice([np.nan, np.inf, -np.inf])
    order = rng.permutation(n)
    return MeasurementBatch(means[order], covs[order], np.arange(n))


def _outputs(stm: STMMap, prefix: str) -> dict:
    """`digest.py`'s outputs of a map: `query_map`'s arrays and both exports."""
    return dict(digest._map(stm, prefix))


def _query(stm: STMMap) -> tuple:
    q = query_map(stm)
    return tuple(getattr(q, f).tobytes() for f in q.__dataclass_fields__)


class ForcedRaise(Exception):
    pass


class MapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._work = tempfile.TemporaryDirectory()
        self.work = self._work.name

    def teardown(self):
        if hasattr(self, "twin"):
            assert _outputs(self.stm, self.work + "/map") == _outputs(self.twin, self.work + "/twin")
        self._work.cleanup()

    @initialize(shape=st.one_of(st.tuples(st.just("triangle"), st.integers(0, 3)),
                                st.tuples(st.just("strip"), st.integers(1, 4))),
                window=st.integers(1, 3), kl=st.sampled_from([0.05, 0.3]))
    def build(self, shape, window, kl):
        kind, size = shape
        self.grid = getattr(TriGrid, kind)(size)
        self.stm, self.twin = (STMMap(self.grid, window=window, convergence=ConvergenceConfig(kl, 20))
                               for _ in range(2))

    def _update(self, batch, expected: tuple) -> None:
        report = incremental_update(self.stm, batch)
        n_valid, n_outside, n_non_finite = expected
        assert (report.n_measurements, report.n_skipped_outside, report.n_rejected) == (
            n_valid, n_outside, {"non_finite": n_non_finite} if n_non_finite else {})
        assert report.n_measurements + report.n_skipped_outside + sum(report.n_rejected.values()) == sum(expected)
        assert digest._report(incremental_update(self.twin, batch)) == digest._report(report)

    @rule(seed=st.integers(0, 2**16), n_valid=st.integers(0, 12), n_outside=st.integers(0, 3),
          n_non_finite=st.integers(0, 3), as_list=st.booleans())
    def update(self, seed, n_valid, n_outside, n_non_finite, as_list):
        batch = _batch(seed, self.grid, n_valid, n_outside, n_non_finite)
        if as_list:
            batch = [Measurement(m, c, i) for m, c, i in zip(*batch)]
        self._update(batch, (n_valid, n_outside, n_non_finite))

    @rule(malformed=st.sampled_from(["means (n, 2)", "covs (n, 3)", "ids (n - 1,)", "not a measurement"]))
    def malformed_update(self, malformed):
        means, covs, ids = _batch(0, self.grid, 3, 0, 0)
        batch = {"means (n, 2)": MeasurementBatch(means[:, :2], covs, ids),
                 "covs (n, 3)": MeasurementBatch(means, covs[:, 0], ids),
                 "ids (n - 1,)": MeasurementBatch(means, covs, ids[1:]),
                 "not a measurement": [Measurement(means[0], covs[0], 0), means[1]]}[malformed]
        before = _outputs(self.stm, self.work + "/before")
        with pytest.raises((TypeError, ValueError)):
            incremental_update(self.stm, batch)
        assert _outputs(self.stm, self.work + "/after") == before

    @rule(fails=st.sampled_from(["update_mean_plane_factor", "neighbor_out_message"]),
          at=st.integers(1, 40), seed=st.integers(0, 2**16), n=st.integers(1, 12))
    def raising_update(self, fails, at, seed, n):
        batch = _batch(seed, self.grid, n, 0, 0)
        real, calls = getattr(mapgraph, fails), [0]

        def forced(*args):
            calls[0] += 1
            if calls[0] == at:
                raise ForcedRaise(fails)
            return real(*args)

        before = _outputs(self.stm, self.work + "/before")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapgraph, fails, forced)
            try:
                report = incremental_update(self.stm, batch)
            except ForcedRaise:
                assert _outputs(self.stm, self.work + "/after") == before
                return
        assert digest._report(incremental_update(self.twin, batch)) == digest._report(report)

    @rule(data=st.data())
    def index(self, data):
        n = self.grid.n_surfels
        i = data.draw(st.integers(-n, n - 1), label="index")
        assert self.stm.surfels[i] is self.stm.states[i % n]
        sl = data.draw(st.slices(n), label="slice")
        states = self.stm.surfels[sl]
        assert [s.sid for s in states] == list(range(n)[sl])
        assert all(s is self.stm.states[s.sid] for s in states)

    @rule()
    def read(self):
        _outputs(self.stm, self.work + "/read")

    @invariant()
    def bookkeeping_is_additive(self):
        for state in self.stm.states.values():
            h, nu = gauss_product(state.prior_h, state.neighbor_in_msg), state.prior_nu
            for c in state.clusters:
                h, nu = gauss_product(h, c.out_msg_h), ig_product(nu, c.out_msg_nu)
            np.testing.assert_allclose(h.t, state.belief_h.t, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose((nu.exponent, nu.scale), (state.belief_nu.exponent, state.belief_nu.scale),
                                       rtol=1e-9, atol=1e-9)

    @invariant()
    def replay_reads_the_same(self):
        assert _query(self.stm) == _query(self.twin)


MapMachine.TestCase.settings = settings(max_examples=80, stateful_step_count=15, deadline=None)
TestMapMachine = MapMachine.TestCase
