"""The straight-line kernels, bit for bit against their references in
`floatref`: the refits, the sweep's cluster test, the KL divergence and the
sepset messages.

`update_mean_plane_factor` and `update_planar_deviation_factor` must leave
the same w, deviation scale, height belief and deviation belief as the calls
they replaced, count the same jitter retries and raise the same exception;
the test `run_inference` makes of each refitted cluster must decide as
`floatref.cluster_converged`. `kl_gaussian` and `neighbor_out_message` must
return the same floats or raise the same exception as the calls to
`cholesky_flat` and `forward3` they replaced. A float difference that
depends on the Python version shows here first.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floatref
import stmmap.mapgraph as mapgraph
from batchref import one_cluster
from floatref import outcome, same_bits
from stmmap.cli import make_emulation_case
from stmmap.distributions import (
    GaussianCanonical,
    InverseGammaFactor,
    NotADistribution,
    SingularMarginalization,
    _RANK_RTOL,
    kl_gaussian,
    scatter_index,
    upper_index,
)
from stmmap.geometry import TriGrid
from stmmap.mapgraph import (
    ConvergenceConfig,
    PriorConfig,
    STMMap,
    incremental_update,
    neighbor_out_message,
    run_inference,
)
from stmmap.surfel import (
    FALLBACKS,
    Measurement,
    SurfelState,
    height_message,
    update_mean_plane_factor,
    update_planar_deviation_factor,
)

KERNELS = (update_mean_plane_factor, update_planar_deviation_factor)
REFERENCES = (floatref.update_mean_plane_factor, floatref.update_planar_deviation_factor)


def clone(state: SurfelState) -> SurfelState:
    """A copy of a surfel state whose clusters are copies too."""
    state = copy.copy(state)
    state.clusters = [copy.copy(c) for c in state.clusters]
    return state


def refit(fns, state, cluster) -> tuple:
    """One refit pair: the type of the exception it raised (None if none) and
    the jitter retries it counted."""
    mean_plane, deviation = fns
    before = FALLBACKS["refit_jitter"]
    try:
        deviation(state, cluster, mean_plane(state, cluster))
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), FALLBACKS["refit_jitter"] - before
    return None, FALLBACKS["refit_jitter"] - before


def weight(cluster) -> float:
    return math.nan if cluster.w is None else cluster.w


def assert_same_refits(state: SurfelState, sweeps: int) -> list:
    """Refit sweeps over a surfel's clusters by the kernels and by the
    references, each on its own copy of the state, the same bits after every
    refit; stops at the first exception. Returns each refit's outcome."""
    got, want = clone(state), clone(state)
    outcomes = []
    for _ in range(sweeps):
        for c_got, c_want in zip(got.clusters, want.clusters):
            outcome = refit(KERNELS, got, c_got)
            assert outcome == refit(REFERENCES, want, c_want)
            assert (c_got.w is None) == (c_want.w is None)
            assert same_bits([weight(c_got), c_got.nu_scale], [weight(c_want), c_want.nu_scale])
            assert same_bits(got.belief_h.t, want.belief_h.t)
            assert same_bits([got.belief_nu.exponent, got.belief_nu.scale],
                             [want.belief_nu.exponent, want.belief_nu.scale])
            outcomes.append(outcome)
            if outcome[0] is not None:
                return outcomes
    return outcomes


@pytest.mark.parametrize("start", ["initial", "refitted"])
@pytest.mark.parametrize("case", ["stereo", "lidar"])
def test_emulation_refits_match_the_references(case, start):
    stm = STMMap(TriGrid.triangle(0), PriorConfig(), convergence=ConvergenceConfig(kl_threshold=1e-7))
    incremental_update(stm, make_emulation_case(case))
    state = clone(stm.surfels[0])
    assert len(state.clusters) > 5
    if start == "initial":  # every message back to its initial one, w None
        for c in state.clusters:
            c.w = None
        state.recompute_beliefs()
    assert {o for o, _ in assert_same_refits(state, 3)} == {None}


# Where a drawn state is changed: the belief's floats, and each cluster's
# weight, deviation scale, mean, covariance and point information.
def sites(state: SurfelState) -> list:
    out = [("belief_h", i) for i in range(9)] + [("belief_nu", 0), ("belief_nu", 1)]
    for k in range(len(state.clusters)):
        out += [(k, "w", None), (k, "nu_scale", None)]
        out += [(k, name, i) for name, n in (("mean", 3), ("cov", 6), ("point_info", 9)) for i in range(n)]
    return out


def put(state: SurfelState, site: tuple, value: float) -> None:
    if site[0] == "belief_h":
        t = list(state.belief_h.t)
        t[site[1]] = value
        state.belief_h = GaussianCanonical.of(tuple(t), 3)
    elif site[0] == "belief_nu":
        e, s = state.belief_nu.exponent, state.belief_nu.scale
        state.belief_nu = InverseGammaFactor(*((value, s) if site[1] == 0 else (e, value)))
    else:
        k, name, i = site
        c = state.clusters[k]
        if i is None:
            setattr(c, name, value)
        else:
            setattr(c, name, tuple(value if j == i else x for j, x in enumerate(getattr(c, name))))


KINDS = ["proper", "signed_zeros", "vacuous", "rank_one", "indefinite", "improper_nu", "non_finite"]


def drawn_state(seed: int, kind: str, n: int, log_prior_var: float, log_meas_var: float, log_nu: float,
                sweeps: int) -> SurfelState:
    """A surfel with n clusters near a plane after `sweeps` reference sweeps,
    then changed as `kind` says: some floats set to signed zeros or to NaN or
    +-inf, a vacuous, rank-one or indefinite height prior (so incoming height
    information that takes the jitter retry), or a deviation belief that is
    not normalizable."""
    rng = np.random.default_rng(seed)
    nu = 10.0**log_nu
    omega = np.eye(3) / 10.0**log_prior_var
    if kind == "vacuous":
        omega = np.zeros((3, 3))
    elif kind == "rank_one":
        v = rng.normal(size=3)
        omega = np.outer(v, v) / 10.0**log_prior_var
    elif kind == "indefinite":
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        eig = 10.0 ** rng.uniform(-2.0, 2.0, 3) / 10.0**log_prior_var
        eig[rng.integers(3)] *= -10.0 ** rng.uniform(-14.0, 0.0)
        omega = (q * eig) @ q.T
    state = SurfelState(0, GaussianCanonical(omega @ rng.normal(0.0, 0.1, 3), omega),
                        InverseGammaFactor.normalized(2.0, 2.0 * nu))
    for k in range(n):
        a, b = rng.uniform(0.0, 0.5, 2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cov = 10.0**log_meas_var * (q * 10.0 ** rng.uniform(0.0, 2.0, 3)) @ q.T
        gamma = 0.1 + 0.3 * a - 0.2 * b + rng.normal(0.0, math.sqrt(nu))
        state.clusters.append(one_cluster(Measurement([a, b, gamma], cov, k), nu))
    state.recompute_beliefs()
    for _ in range(sweeps):
        for c in state.clusters:
            refit(REFERENCES, state, c)
    if kind == "improper_nu":
        state.belief_nu = InverseGammaFactor(*[(1.0, nu), (0.5, nu), (3.0, 0.0), (3.0, -0.0), (3.0, -nu),
                                               (math.nan, nu)][rng.integers(6)])
    elif kind in ("signed_zeros", "non_finite"):
        values = [0.0, -0.0] if kind == "signed_zeros" else [math.nan, math.inf, -math.inf]
        where = sites(state)
        for i in rng.choice(len(where), size=rng.integers(1, 4), replace=False):
            put(state, where[i], values[rng.integers(len(values))])
    return state


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 4),
    log_prior_var=st.floats(-6, 4),
    log_meas_var=st.floats(-8, -1),
    log_nu=st.floats(-3, 1),
    sweeps=st.integers(0, 2),
)
@settings(max_examples=400, deadline=None)
def test_drawn_refits_match_the_references(seed, kind, n, log_prior_var, log_meas_var, log_nu, sweeps):
    assert_same_refits(drawn_state(seed, kind, n, log_prior_var, log_meas_var, log_nu, sweeps), 2)


@pytest.mark.parametrize("kind, seed, retries, raised", [
    ("vacuous", 1, True, None),
    ("rank_one", 1, True, None),
    ("indefinite", 2, True, SingularMarginalization),
    ("improper_nu", 3, False, NotADistribution),
])
def test_each_kind_takes_its_path(kind, seed, retries, raised):
    # the drawn kinds reach the jitter retry and the exceptions they are drawn for
    state = drawn_state(seed, kind, 1, 0.0, -3.0, -1.0, 0)
    outcomes = assert_same_refits(state, 2)
    assert outcomes[-1][0] is raised
    assert any(n for _, n in outcomes) is retries


def test_non_finite_inputs_give_the_same_nans():
    state = drawn_state(4, "proper", 3, 0.0, -3.0, -1.0, 1)
    put(state, (1, "point_info", 2), math.nan)
    outcomes = assert_same_refits(state, 2)
    assert outcomes == [(None, 0), (SingularMarginalization, 1)]  # the NaN block has no factor, retry or not
    state = drawn_state(4, "proper", 3, 0.0, -3.0, -1.0, 1)
    put(state, ("belief_h", 4), -math.inf)
    assert assert_same_refits(state, 1)


def test_floored_deviation_scale_matches_and_is_counted():
    # heights and a point pinned to about 1e-305 leave a scale of about 1e-305
    state = SurfelState(0, GaussianCanonical(np.zeros(3), np.eye(3) * 1e305),
                        InverseGammaFactor.normalized(1.0, 1.0))
    state.clusters.append(one_cluster(Measurement([0.3, 0.3, 0.0], 1e-305 * np.eye(3), 0), 0.1))
    state.recompute_beliefs()
    before = FALLBACKS["deviation_floor"]
    assert assert_same_refits(state, 1) == [(None, 0)]
    assert FALLBACKS["deviation_floor"] == before + 1


class CheckedTests:
    """Patches a map's refits so that the sweep's test of every refitted
    cluster is checked against `floatref.cluster_converged` once the sweep
    has made it: at the next refit, and by `settle` after the update."""

    def __init__(self, monkeypatch, stm: STMMap):
        self.tol = stm.convergence.kl_threshold
        self.last = None  # [cluster, its message and scale before the refit, the reference's decision]
        self.decisions = []
        mean_plane, deviation = mapgraph.update_mean_plane_factor, mapgraph.update_planar_deviation_factor

        def checked_mean_plane(state, cluster):
            self.settle()
            self.last = [cluster, height_message(cluster, cluster.w), cluster.nu_scale, None]
            return mean_plane(state, cluster)

        def checked_deviation(state, cluster, incoming):
            deviation(state, cluster, incoming)
            self.last[3] = floatref.cluster_converged(cluster, *self.last[1:3], self.tol)

        monkeypatch.setattr(mapgraph, "update_mean_plane_factor", checked_mean_plane)
        monkeypatch.setattr(mapgraph, "update_planar_deviation_factor", checked_deviation)

    def settle(self):
        if self.last is not None and self.last[3] is not None:
            cluster, _, _, want = self.last
            assert cluster.converged is want
            self.decisions.append(want)
        self.last = None


@pytest.mark.parametrize("tol", [1e-7, 1e-3, 0.1])
@pytest.mark.parametrize("case", ["stereo", "lidar"])
def test_sweep_cluster_test_matches_the_reference(monkeypatch, case, tol):
    meas = make_emulation_case(case)
    stm = STMMap(TriGrid.triangle(1), PriorConfig(), window=2, convergence=ConvergenceConfig(kl_threshold=tol))
    checked = CheckedTests(monkeypatch, stm)
    for part in (meas[::2], meas[1::2]):
        incremental_update(stm, part)
        checked.settle()
    assert True in checked.decisions and False in checked.decisions


@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([1e-7, 1e-3, 0.1]),
       values=st.sampled_from([[0.0, -0.0], [math.nan, math.inf, -math.inf], [1e-300, 1e300, 5e-324]]))
@settings(max_examples=40, deadline=None)
def test_sweep_cluster_test_matches_on_drawn_clusters(seed, tol, values):
    # clusters of a settled map with drawn weights and deviation scales, refitted again
    rng = np.random.default_rng(seed)
    meas = make_emulation_case("stereo")[:24]
    stm = STMMap(TriGrid.triangle(1), PriorConfig(), convergence=ConvergenceConfig(kl_threshold=tol))
    run_inference(stm, meas)
    for sid, state in stm.states.items():
        for c in state.clusters:
            if rng.random() < 0.3:
                setattr(c, ["w", "nu_scale"][rng.integers(2)], values[rng.integers(len(values))])
                c.converged = False
                stm._active.add(sid)
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked = CheckedTests(monkeypatch, stm)
        try:
            run_inference(stm, [])
        except (ArithmeticError, ValueError, NotADistribution, SingularMarginalization):
            checked.last = None  # the map is as it was before the update
        checked.settle()


# The KL divergence and the sepset messages.
def assert_same_kl(q: GaussianCanonical, p: GaussianCanonical) -> object:
    """`kl_gaussian` of (q, p), (p, q) and (q, q), each the reference's float
    to the bit or its exception; returns the outcome of (q, p)."""
    for a, b in ((q, p), (p, q), (q, q)):
        got, want = outcome(kl_gaussian, a, b), outcome(floatref.kl_gaussian, a, b)
        if isinstance(want, float):
            assert isinstance(got, float) and same_bits([got], [want]), (a.t, b.t)
        else:
            assert got is want, (a.t, b.t)
    return outcome(kl_gaussian, q, p)


def kl_factor(rng, n: int, kind: str) -> GaussianCanonical:
    """An n-variable factor of the given kind, built in floats: proper, rank
    one (w F F^T, as a height message), vacuous, indefinite, or proper with
    zeros of either sign in about half of xi's and omega's off-diagonal
    slots, subnormals in some slots, or NaN or +-inf in one slot."""
    if kind == "vacuous":
        return GaussianCanonical.vacuous(n)
    if kind == "rank_one":
        f, w, g = rng.normal(size=n).tolist(), 10.0 ** rng.uniform(-3, 14), rng.normal()
        return GaussianCanonical.of((*(w * g * a for a in f), *(w * f[i] * f[j] for i in range(n)
                                                                 for j in range(i, n))), n)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = 10.0 ** rng.uniform(-8, 8) * 10.0 ** rng.uniform(0, 6, n)
    if kind == "indefinite":
        eig[rng.integers(n)] *= -1.0
    omega = (q * eig) @ q.T
    t = list(GaussianCanonical(rng.normal(size=n) * np.sqrt(abs(np.diag(omega))), omega).t)
    if kind == "signed_zeros":
        diagonal = {upper_index(n)[i][i] for i in range(n)}
        for k in range(len(t)):
            if k not in diagonal and rng.random() < 0.5:
                t[k] = [0.0, -0.0][rng.integers(2)]
    elif kind == "subnormal":
        values = [5e-324, -5e-324, 2.2e-308, -1e-310, 1e-315]
        for k in rng.choice(len(t), size=rng.integers(1, len(t) + 1), replace=False):
            t[k] = values[rng.integers(len(values))]
    elif kind == "non_finite":
        t[rng.integers(len(t))] = [math.nan, math.inf, -math.inf][rng.integers(3)]
    return GaussianCanonical.of(tuple(t), n)


KL_KINDS = ["proper", "rank_one", "vacuous", "indefinite", "signed_zeros", "subnormal", "non_finite"]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       kinds=st.tuples(st.sampled_from(KL_KINDS), st.sampled_from(KL_KINDS + ["close"])))
@settings(max_examples=600, deadline=None)
def test_drawn_kl_matches_the_reference(seed, n, kinds):
    # "close": an iterate a few ulps to 1e-3 away, the sweep's usual check
    rng = np.random.default_rng(seed)
    q = kl_factor(rng, n, kinds[0])
    if kinds[1] == "close":
        rel = 10.0 ** rng.uniform(-15, -3)
        p = GaussianCanonical.of(tuple(x * (1.0 + rel * rng.normal()) for x in q.t), n)
    else:
        p = kl_factor(rng, n, kinds[1])
    assert_same_kl(q, p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kl_non_finite_slots_match_the_reference(n):
    # NaN and +-inf in each slot of either factor, against proper ones
    rng = np.random.default_rng(n)
    outcomes = set()
    for _ in range(10):
        proper, other = kl_factor(rng, n, "proper"), kl_factor(rng, n, "proper")
        for k, value in itertools.product(range(len(proper.t)), [math.nan, math.inf, -math.inf]):
            bad = GaussianCanonical.of(tuple(value if j == k else x for j, x in enumerate(proper.t)), n)
            outcomes.add(assert_same_kl(bad, other))
            outcomes.add(assert_same_kl(other, bad))
    # NaN omega fails a pivot test; a non-finite xi reaches the closed form
    assert NotADistribution in outcomes
    assert any(isinstance(o, float) and not math.isfinite(o) for o in outcomes)


def near_rank_t(n: int, pivot: int, j: int, scale: float) -> tuple:
    """The t of an n-variable factor whose pivot `pivot` (1 or 2) is 2 j
    units of 2**-53 times its diagonal entry, all scaled by scale (a power of
    two): 1 on the diagonal and 1 - j 2**-53 at one off-diagonal place, so
    that the pivot is 1 - fl((1 - j 2**-53)**2), exactly. 16 eps is 32 units."""
    c = 1.0 - j * 2.0**-53
    rows = [[1.0 if r == s else 0.0 for s in range(n)] for r in range(n)]
    rows[pivot][pivot - 1] = rows[pivot - 1][pivot] = c
    omega = [scale * rows[r][s] for r in range(n) for s in range(r, n)]
    return (*(0.5 * scale * (k + 1) for k in range(n)), *omega)


@pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-20, 1.0, 2.0**40, 2.0**1000])
@pytest.mark.parametrize("n, pivot", [(2, 1), (3, 1), (3, 2)])
def test_kl_pivots_at_the_rank_test_match_the_reference(n, pivot, scale):
    # pivots of 30, 32 and 34 units against the test's 32: above it passes, at
    # or below it the factor is rejected, in the kernel as in the reference
    proper = GaussianCanonical(np.full(n, 0.1 * scale), scale * np.eye(n))
    for j, accepted in ((15, False), (16, False), (17, True)):
        s = 2 * j * 2.0**-53
        assert (s > _RANK_RTOL) is accepted
        near = GaussianCanonical.of(near_rank_t(n, pivot, j, scale), n)
        got = assert_same_kl(near, proper)
        assert (got is not NotADistribution) is accepted
        assert_same_kl(proper, near)


KEPT = [pos for k in (1, 2) for pos in itertools.permutations(range(3), k)]


def message_outcome(fn, belief: GaussianCanonical, reverse, pos: tuple):
    """fn's message from surfel 0 of a one-surfel map holding belief, over a
    link with kept heights pos and reverse message reverse (None: none held,
    so vacuous); the exception's type if it raised. Also checks that fn
    counted the message."""
    stm = STMMap(TriGrid.triangle(0), PriorConfig())
    stm.surfels[0].belief_h = belief
    if reverse is not None:
        stm.messages[1, 0] = reverse
    out = outcome(fn, stm, 0, (1, pos, scatter_index(pos, 3), (1, 0), (0, 1)))
    assert stm.message_count == 1
    return out


def assert_same_message(belief: GaussianCanonical, reverse, pos: tuple) -> object:
    got = message_outcome(neighbor_out_message, belief, reverse, pos)
    want = message_outcome(floatref.neighbor_out_message, belief, reverse, pos)
    if isinstance(want, GaussianCanonical):
        assert isinstance(got, GaussianCanonical) and got.n == want.n == len(pos)
        assert same_bits(got.t, want.t), (belief.t, reverse and reverse.t, pos)
    else:
        assert got is want
    return got


MESSAGE_KINDS = ["proper", "signed_zeros", "subnormal", "no_pivot", "non_finite"]


def message_belief(rng, kind: str) -> GaussianCanonical:
    """A 3-variable belief of the given kind: proper; with zeros of either
    sign or subnormals in some slots; a diagonal entry at or below zero or an
    indefinite 2x2 block, so no factor; or NaN or +-inf in one slot."""
    base = "proper" if kind in ("no_pivot", "non_finite") else kind
    t = list(kl_factor(rng, 3, base).t)
    if kind == "no_pivot":
        k = [3, 6, 8][rng.integers(3)]
        t[k] = [0.0, -0.0, -abs(t[k]), 5e-324][rng.integers(4)]
        t[7] = 10.0 * math.sqrt(abs(t[6] * t[8])) if rng.random() < 0.5 else t[7]
    elif kind == "non_finite":
        t[rng.integers(9)] = [math.nan, math.inf, -math.inf][rng.integers(3)]
    return GaussianCanonical.of(tuple(t), 3)


def message_reverse(rng, kind: str, m: int):
    """A reverse message over m heights: none held ("missing"), or one of
    `kl_factor`'s kinds, a proper one of either sign."""
    if kind == "missing":
        return None
    g = kl_factor(rng, m, kind)
    sign = -1.0 if kind == "proper" and rng.random() < 0.5 else 1.0
    return GaussianCanonical.of(tuple(sign * x for x in g.t), m)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(MESSAGE_KINDS),
       reverse=st.sampled_from(["missing", "vacuous", "rank_one", "proper", "signed_zeros", "subnormal"]))
@settings(max_examples=300, deadline=None)
def test_drawn_messages_match_the_reference(seed, kind, reverse):
    # every kept position pattern of one and two heights
    rng = np.random.default_rng(seed)
    belief = message_belief(rng, kind)
    for pos in KEPT:
        assert_same_message(belief, message_reverse(rng, reverse, len(pos)), pos)


@pytest.mark.parametrize("pos", KEPT)
def test_message_non_finite_slots_match_the_reference(pos):
    # NaN and +-inf in each slot of the belief and of the reverse message
    rng = np.random.default_rng(len(pos))
    belief, reverse = message_belief(rng, "proper"), message_reverse(rng, "proper", len(pos))
    outcomes = []
    for k, value in itertools.product(range(9), [math.nan, math.inf, -math.inf]):
        bad = GaussianCanonical.of(tuple(value if j == k else x for j, x in enumerate(belief.t)), 3)
        outcomes.append(assert_same_message(bad, reverse, pos))
    for k, value in itertools.product(range(len(reverse.t)), [math.nan, math.inf, -math.inf]):
        bad = GaussianCanonical.of(tuple(value if j == k else x for j, x in enumerate(reverse.t)), len(pos))
        outcomes.append(assert_same_message(belief, bad, pos))
    # a non-finite dropped block has no factor: the generic path raises
    assert SingularMarginalization in outcomes
    assert any(isinstance(o, GaussianCanonical) for o in outcomes)


@pytest.mark.parametrize("tol", [1e-7, 1e-3, 0.1])
@pytest.mark.parametrize("case", ["stereo", "lidar"])
def test_updates_match_the_reference_kernels(monkeypatch, case, tol):
    # a map updated through the kernels and one through the references hold
    # the same bits: every belief, every message and the report's counts
    meas = make_emulation_case(case)
    maps, reports = [], []
    for kernels in ((kl_gaussian, neighbor_out_message), (floatref.kl_gaussian, floatref.neighbor_out_message)):
        monkeypatch.setattr(mapgraph, "kl_gaussian", kernels[0])
        monkeypatch.setattr(mapgraph, "neighbor_out_message", kernels[1])
        stm = STMMap(TriGrid.triangle(2), PriorConfig(), window=2, convergence=ConvergenceConfig(kl_threshold=tol))
        reports.append([incremental_update(stm, part) for part in (meas[::2], meas[1::2])])
        maps.append(stm)
    got, want = maps
    assert [(r.sweeps, r.messages, r.active_per_sweep) for r in reports[0]] == \
        [(r.sweeps, r.messages, r.active_per_sweep) for r in reports[1]]
    assert got.states.keys() == want.states.keys() and got.messages.keys() == want.messages.keys()
    for sid, state in got.states.items():
        assert same_bits(state.belief_h.t, want.states[sid].belief_h.t)
    for key, msg in got.messages.items():
        assert same_bits(msg.t, want.messages[key].t)
