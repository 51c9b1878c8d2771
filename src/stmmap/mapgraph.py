"""Full-map inference: cluster graph, Gaussian LBP between surfels.

The map has one surfel cluster per grid element and one sepset per
interior edge. A sepset's scope starts as the two shared vertex heights and
is reduced so the running intersection property holds: for every vertex,
the sepsets containing it form a spanning tree over the surfels incident
to it.
That reduction is a rule on an edge's lattice position (`enforce_rip`).
The LBP messages live in one table, `STMMap.messages`, keyed by (sender,
receiver); a missing key is a vacuous message. A surfel's state is made
when an update first touches it; until then it holds the shared prior,
vacuous messages and initial belief, which the read side reads without
making anything, so an empty map costs the same at every depth and an
update only what it touches. If an update raises, what it changed is put
back (`_atomic`).

Each sweep pops the active surfels from a worklist heap in ascending id
order. A visit recomputes the incoming neighbor message, ratio-updates the
belief, runs the per-cluster VMP updates, and emits outgoing messages to
each neighbor. A message is converged when its divergence from the previous
iteration (the KL, from scalar Cholesky factors, or a relative change of
natural parameters if an iterate is improper) falls below the threshold.
A changed message activates its receiver, in this sweep if the receiver's
id is higher, else in the next; a surfel that changed stays active. This
is the order of a full scan that skips converged surfels, so a sweep costs
only the active surfels; those left at `max_sweeps` carry over.

A measurement batch is a `MeasurementBatch` of arrays before the map
changes; validation and association run once per batch, stacked.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter, sub
from types import MappingProxyType

import numpy as np

from .distributions import (
    GaussianCanonical,
    InverseGammaFactor,
    NotADistribution,
    gauss_divide,
    gauss_marginalize,
    gauss_product,
    ig_product,
    kl_gaussian,
    scatter_index,
    upper_index,
)
from .geometry import TriGrid, View
from .surfel import (
    FALLBACKS,
    LikelihoodClusterState,
    MeasurementBatch,
    SurfelState,
    apportion_nu_scales,
    cluster_rows,
    init_likelihood_cluster,
    update_mean_plane_factor,
    update_planar_deviation_factor,
)


@dataclass(frozen=True)
class PriorConfig:
    """Per-surfel priors: correlated zero-mean height Gaussian, inverse-gamma deviation."""

    rho: float = 0.5
    sigma2: float = 100.0
    a_p: float = 1.0
    b_p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not all(0.0 < v < math.inf for v in (self.sigma2, self.a_p, self.b_p)):
            raise ValueError("sigma2, a_p and b_p must be positive and finite")

    def height_covariance(self) -> np.ndarray:
        s = self.sigma2
        r = self.rho
        return s * np.array([[1.0, r, r], [r, 1.0, r], [r, r, 1.0]])


@dataclass(frozen=True)
class ConvergenceConfig:
    kl_threshold: float = 1e-5
    max_sweeps: int = 200

    def __post_init__(self):
        if not 0.0 < self.kl_threshold < math.inf:
            raise ValueError("kl_threshold must be positive and finite")
        require_count("max_sweeps", self.max_sweeps)


def require_count(name: str, value) -> None:
    """ValueError unless value is an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


# The fallbacks of every report that took none: callers may keep many reports.
_NO_FALLBACKS = MappingProxyType({})


@dataclass
class ConvergenceReport:
    converged: bool
    sweeps: int
    messages: int
    n_measurements: int
    n_skipped_outside: int
    n_rejected: dict = field(default_factory=dict)  # by reason, see `validate_batch`
    active_per_sweep: list = field(default_factory=list)  # surfels queued at each sweep's start
    fallbacks: Mapping = field(default_factory=lambda: _NO_FALLBACKS)  # numerical fallbacks taken, by kind


@dataclass
class MapQueryResult:
    surfel_mean_heights: np.ndarray  # (n_surfels, 3)
    surfel_height_stds: np.ndarray  # (n_surfels, 3)
    expected_deviation: np.ndarray  # (n_surfels,)
    n_meas: np.ndarray  # (n_surfels,)
    observed: np.ndarray  # (n_surfels,) bool
    vertex_mean: np.ndarray  # (n_vertices,)
    vertex_std: np.ndarray  # (n_vertices,)


class STMMap:
    """A stochastic triangular mesh submap; `window` is the number of recent
    batches whose clusters stay live (see `incremental_update`).

    Only touched surfels hold state. `states` maps the id of each surfel an
    update has visited, or a caller has fetched through `surfels`, to its
    `SurfelState`; every other surfel holds `untouched`'s shared prior,
    vacuous message and belief. `messages` maps (sender, receiver) to the
    LBP message a surfel last sent a neighbour; a missing key is a vacuous
    message. `surfels[sid]` makes a surfel's state on first use; the read
    side reads `states` and `untouched` and makes nothing.
    """

    def __init__(
        self,
        grid: TriGrid,
        prior: PriorConfig = PriorConfig(),
        window: int = 1,
        convergence: ConvergenceConfig = ConvergenceConfig(),
    ):
        require_count("window", window)
        self.grid = grid
        self.prior = prior
        self.window = window
        self.convergence = convergence
        self.message_count = self.sweep_count = 0  # over the map's life
        self.batch = 0

        # Factors are immutable, so every surfel and sepset shares the same
        # prior, empty messages and initial belief until it is updated.
        prior_h = GaussianCanonical(np.zeros(3), np.linalg.inv(prior.height_covariance()))
        prior_nu = InverseGammaFactor.normalized(prior.a_p, prior.b_p)
        self._vacuous = [GaussianCanonical.vacuous(n) for n in range(4)]
        self.untouched = SurfelState(-1, prior_h, prior_nu, self._vacuous[3],
                                     gauss_product(prior_h, self._vacuous[3]), prior_nu)
        self.states: dict[int, SurfelState] = {}
        self.messages: dict[tuple[int, int], GaussianCanonical] = {}
        self._links: dict[int, tuple] = {}

        # Surfels are activated by measurements or by changed neighbor
        # messages; an untouched map is at its (empty) fixed point.
        self._active: set[int] = set()
        # surfels holding likelihood clusters, the only ones a fold changes
        self._with_clusters: set[int] = set()
        self._undo: _Undo | None = None  # the open update's log, see `_atomic`

    # Made on each access: a stored view would hold a bound method of the map,
    # a reference cycle that keeps every dropped map until a full collection.
    @property
    def surfels(self) -> View:
        return View(self.grid.n_surfels, self._state)

    def _state(self, sid: int) -> SurfelState:
        state = self.states.get(sid)
        if state is None:
            u = self.untouched
            state = self.states[sid] = SurfelState(sid, u.prior_h, u.prior_nu, u.neighbor_in_msg,
                                                   u.belief_h, u.belief_nu)
            if self._undo is not None:
                self._undo.states[sid] = None  # made by the open update: undone by dropping it
        return state

    def links(self, sid: int) -> tuple:
        """(neighbour, positions of the shared heights in sid, their `scatter_index`,
        key of the message in, key of the message out) of each sepset with a
        variable at surfel sid, in `TriGrid.edges` order; made on first use."""
        links = self._links.get(sid)
        if links is None:
            links = []
            for e in self.grid.edges(sid):
                _, pos_a, pos_b = enforce_rip(self.grid, *e)
                other, pos = (e[1], pos_a) if e[0] == sid else (e[0], pos_b)
                if pos:
                    links.append((other, pos, scatter_index(pos, 3), (other, sid), (sid, other)))
            links = self._links[sid] = tuple(links)
        return links


def enforce_rip(grid: TriGrid, a: int, b: int, shared: tuple, pos_a: tuple, pos_b: tuple) -> tuple:
    """The scope of the sepset on a `TriGrid.edges` entry and its positions in
    surfels a and b, reduced so that each vertex's sepsets form a spanning
    tree over its surfels.

    The surfels around a vertex form a path (boundary vertex) or one cycle
    of six (interior vertex). A cycle drops the vertex from its last edge in
    (low surfel id, high surfel id) order, the one edge Kruskal's algorithm
    would reject in that order. Around interior vertex (r, c) that is the
    vertical edge of row r's down element c - 1, and every vertical edge of
    a row r >= 1 is such an edge: it drops its lower vertex, the first.
    """
    r, _, up = grid.cell(a)
    if r > 0 and not up and b == a + 1:
        return shared[1:], pos_a[1:], pos_b[1:]
    return shared, pos_a, pos_b


def _relative_change(new, old) -> float:
    """Largest change of a sequence of finite parameters, relative to 1 + its old largest magnitude."""
    return max(map(abs, map(sub, new, old))) / (1.0 + max(map(abs, old)))


def _natural_divergence(new: tuple, old: tuple, n: int) -> float:
    """Relative change of the natural parameters t of an n-variable Gaussian
    factor; omega's upper triangle holds every value of the symmetric matrix.
    Inf where a value is not finite: one check of both parts of t."""
    if not math.isfinite(sum(new) - sum(old)) and not all(map(math.isfinite, (*new, *old))):
        return math.inf  # (a sum of finite values may overflow: then each is checked)
    return max(_relative_change(new[n:], old[n:]), _relative_change(new[:n], old[:n]))


def _gauss_divergence(new: GaussianCanonical, old: GaussianCanonical) -> float:
    """Exclusive KL between message iterates, with a relative natural-parameter
    surrogate when either iterate is improper (KL is then undefined)."""
    try:
        return kl_gaussian(new, old)
    except NotADistribution:
        return _natural_divergence(new.t, old.t, new.n)


def _ig_divergence(new: InverseGammaFactor, old: InverseGammaFactor) -> float:
    return max(abs(new.exponent - old.exponent), abs(new.scale - old.scale) / (1.0 + abs(old.scale)))


_U = upper_index(3)
# For each kept `pos` of a sepset message: the kept and dropped heights, then the
# places in a 3-variable t of the omega entries its Schur complement reads.
_KEEP_TWO = {(a, b): (a, b, d, _U[d][d], _U[a][d], _U[b][d], _U[a][a], _U[a][b], _U[b][b])
             for a, b, d in itertools.permutations(range(3))}
_KEEP_ONE = {(k,): (k, d, e, _U[d][d], _U[d][e], _U[e][e], _U[k][d], _U[k][e], _U[k][k])
             for k, d, e in ((0, 1, 2), (1, 0, 2), (2, 0, 1))}


def neighbor_out_message(stm: STMMap, sid: int, link: tuple) -> GaussianCanonical:
    """Outgoing LBP message from surfel sid over one of its `STMMap.links`.

    Marginal of the surfel height belief divided by the reverse message.
    The dropped block is the belief's own, so the message is its Schur
    complement, in closed form: the unblocked Cholesky step and its forward
    solve unrolled, each sum of products added left to right from 0.0. A dropped
    block without a Cholesky factor takes the generic path, with its jitter
    retry and `SingularMarginalization`.
    """
    stm.message_count += 1
    _, pos, _, key_in, _ = link
    reverse = stm.messages.get(key_in) or stm._vacuous[len(pos)]
    belief = stm.states.get(sid, stm.untouched).belief_h
    x, r = belief.t, reverse.t
    if len(pos) == 2:
        a, b, d, dd, ad, bd, aa, ab, bb = _KEEP_TWO[pos]
        if x[dd] > 0.0:
            ld = math.sqrt(x[dd])
            ya, yb, z = x[ad] / ld, x[bd] / ld, x[d] / ld
            return GaussianCanonical.of((
                x[a] - r[0] - (0.0 + ya * z), x[b] - r[1] - (0.0 + yb * z), x[aa] - r[2] - ya * ya,
                x[ab] - r[3] - (0.0 + ya * yb), x[bb] - r[4] - yb * yb), 2)
    elif len(pos) == 1:
        k, d, e, dd, de, ee, kd, ke, kk = _KEEP_ONE[pos]
        if x[dd] > 0.0:
            l00 = math.sqrt(x[dd])
            l10 = x[de] / l00
            s = x[ee] - l10 * l10
            if s > 0.0:
                l11 = math.sqrt(s)
                y0, z0 = x[kd] / l00, x[d] / l00
                y1, z1 = (x[ke] - l10 * y0) / l11, (x[e] - l10 * z0) / l11
                return GaussianCanonical.of((x[k] - r[0] - (0.0 + y0 * z0 + y1 * z1),
                                             x[kk] - r[1] - (y0 * y0 + y1 * y1)), 1)
    return gauss_marginalize(gauss_divide(belief, reverse.embed(pos, 3)), pos)


def _stacked(fn, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fn of the rows of a matrix stack it does not raise LinAlgError on, in one
    stacked call, and a mask of those rows; row by row only if the stack raises."""
    ok = np.ones(len(stack), dtype=bool)
    try:
        return fn(stack), ok
    except np.linalg.LinAlgError:
        for i, m in enumerate(stack):
            try:
                fn(m)
            except np.linalg.LinAlgError:
                ok[i] = False
        return fn(stack[ok]), ok


def _associate(stm: STMMap, batch: MeasurementBatch) -> tuple[np.ndarray, list, np.ndarray, int, int]:
    """Locate a batch's points, map them into element coordinates (the products of
    `TriGrid.normalize_to_element`, stacked) and invert their covariances there in one
    stacked call. Returns the surfel id, `cluster_rows` row and element gamma of
    each point used, and counts those outside and those without an LU inverse."""
    sids = stm.grid.locate_all(batch.means[:, 0], batch.means[:, 1])
    inside = sids >= 0
    a, v0 = stm.grid.element_frames(sids[inside].tolist())
    covs = batch.covs[inside]
    covs = a @ (0.5 * (covs + covs.swapaxes(1, 2))) @ a.swapaxes(1, 2)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    cov_invs, ok = _stacked(np.linalg.inv, covs)
    means = (a @ (batch.means[inside] - v0)[..., None])[ok, :, 0]
    return (sids[inside][ok], cluster_rows(means, covs[ok], cov_invs), means[:, 2],
            len(sids) - len(covs), len(covs) - len(means))


# Every field of a likelihood cluster, as a tuple: the values a rollback puts back.
_cluster_values = attrgetter(*LikelihoodClusterState.__slots__)


def _attributes(obj) -> dict:
    """An object's attributes, each set and list copied: the values a rollback puts back."""
    values = vars(obj).copy()
    for name, value in values.items():
        if type(value) in (set, list):
            values[name] = value.copy()
    return values


class _Undo:
    """What an open update changed, to put back if it raises: the map's
    attributes, each surfel's attributes and clusters before its first change
    (None for a state the update made), and each message before the update
    first wrote it (None for a missing key). The map's dicts are kept by
    reference: `states` and `messages` are put back key by key. Only the first
    old value of each is kept, so a factor the update replaces again is freed at once."""

    def __init__(self, stm: STMMap):
        self.map = _attributes(stm)
        self.states: dict[int, tuple | None] = {}
        self.senders: set[int] = set()
        self.messages: dict[tuple[int, int], GaussianCanonical | None] = {}

    def save(self, state: SurfelState):
        """Keep a state's values, unless kept already."""
        if state.sid not in self.states:
            self.states[state.sid] = (state, _attributes(state), [(c, _cluster_values(c)) for c in state.clusters])

    def send(self, state: SurfelState, links: tuple, messages: dict):
        """Keep a visited state's values and the messages it sends."""
        self.save(state)
        self.senders.add(state.sid)
        for *_, key in links:
            self.messages[key] = messages.get(key)

    def restore(self, stm: STMMap):
        vars(stm).update(self.map)
        for sid, saved in self.states.items():
            if saved is None:
                del stm.states[sid]
                continue
            state, values, clusters = saved
            vars(state).update(values)
            for c, fields in clusters:
                for name, value in zip(LikelihoodClusterState.__slots__, fields):
                    setattr(c, name, value)
        for key, msg in self.messages.items():
            if msg is None:  # (the update may have raised before it wrote the key)
                stm.messages.pop(key, None)
            else:
                stm.messages[key] = msg


@contextmanager
def _atomic(stm: STMMap):
    """Put the map back as it was if the block raises; a nested block joins the open log."""
    if stm._undo is not None:
        yield stm._undo
        return
    stm._undo = _Undo(stm)
    try:
        yield stm._undo
    except BaseException:
        stm._undo.restore(stm)
        raise
    finally:
        stm._undo = None


def run_inference(stm: STMMap, batch) -> ConvergenceReport:
    """Incorporate one measurement batch and iterate to convergence.

    The batch is a `MeasurementBatch` or a list of `Measurement`, already in
    submap (alpha, beta, gamma) coordinates. Points outside the submap are
    counted and skipped; measurements `validate_batch` rejects, and those
    whose covariance in element coordinates is singular ("cov_singular"),
    are skipped before the map changes and counted on the report. If
    inference raises, the map is left as it was.
    """
    batch, rejected = validate_batch(MeasurementBatch.of(batch))
    sids, rows, gammas, skipped, singular = _associate(stm, batch)
    if singular:
        rejected["cov_singular"] = singular
    per_surfel: dict[int, list[int]] = {}  # rows by surfel in the order of first sight, as np.var sums them
    for i, sid in enumerate(sids.tolist()):
        per_surfel.setdefault(sid, []).append(i)
    gamma_all = gammas[[i for rs in per_surfel.values() for i in rs]]
    fallback_var = float(np.var(gamma_all)) if gamma_all.size >= 2 else 1e-2

    with _atomic(stm) as undo:
        for sid, rs in per_surfel.items():
            state = stm.surfels[sid]
            undo.save(state)
            target = state.expected_deviation() if state.n_meas_total > 0 else None
            nu_scale = apportion_nu_scales(gammas[rs], state.belief_nu.exponent, state.belief_nu.scale,
                                           fallback_var, target_var=target)
            state.clusters += [init_likelihood_cluster(rows[i], nu_scale, stm.batch) for i in rs]
            state.n_meas_total += len(rs)
            state.recompute_beliefs()
            stm._active.add(sid)
            stm._with_clusters.add(sid)

        tol = stm.convergence.kl_threshold
        messages_before = stm.message_count
        active_per_sweep = []
        fallbacks_before = FALLBACKS.copy()
        states, messages, vacuous = stm.states, stm.messages, stm._vacuous
        while stm._active and len(active_per_sweep) < stm.convergence.max_sweeps:
            stm.sweep_count += 1
            heap = sorted(stm._active)
            queued = set(heap)
            stm._active = set()  # the next sweep's
            active_per_sweep.append(len(heap))
            while heap:
                sid = heapq.heappop(heap)
                state = states.get(sid) or stm.surfels[sid]
                links = stm.links(sid)
                if sid not in undo.senders:
                    undo.send(state, links, messages)
                belief_h_start = state.belief_h
                belief_nu_start = state.belief_nu

                # LBP: refresh the incoming neighbor message and ratio-update.
                # Summing in sepset order gives the bits of a factor product;
                # a vacuous message adds zeros, which change no sum.
                t = [0.0] * 9
                for _, _, scatter, key_in, _ in links:
                    msg = messages.get(key_in)
                    if msg is not None:
                        for k, x in zip(scatter, msg.t):
                            t[k] += x
                new_in = GaussianCanonical.of(tuple(t), 3)
                ratio = gauss_divide(new_in, state.neighbor_in_msg)
                state.belief_h = gauss_product(state.belief_h, ratio)
                state.neighbor_in_msg = new_in

                # VMP: refit likelihood clusters. A cluster whose messages are
                # at their fixed point only needs refitting once the surfel
                # belief has moved since its last update (unread without clusters).
                # Every check is `not d < tol`: a NaN divergence counts as a change.
                belief_moved = state.clusters and (
                    state.ref_belief_h is None
                    or not _gauss_divergence(state.belief_h, state.ref_belief_h) < tol
                    or not _ig_divergence(state.belief_nu, state.ref_belief_nu) < tol
                )
                any_refit = False
                for cluster in state.clusters:
                    if cluster.converged and not belief_moved:
                        continue
                    old_scale = cluster.nu_scale
                    incoming = update_mean_plane_factor(state, cluster)
                    update_planar_deviation_factor(state, cluster, incoming)
                    stm.message_count += 1
                    any_refit = True
                    # A height message has rank one: no KL, but `_natural_divergence` written out (of
                    # finite values no divergence is NaN: max(a, b) < tol is a < tol and b < tol).
                    o0, o1, o2, o3, o4, o5, o6, o7, o8 = old = incoming[2]
                    n0, n1, n2, n3, n4, n5, n6, n7, n8 = new = incoming[3]
                    cluster.converged = (
                        (math.isfinite(n0 + n1 + n2 + n3 + n4 + n5 + n6 + n7 + n8
                                       - (o0 + o1 + o2 + o3 + o4 + o5 + o6 + o7 + o8))
                         or all(map(math.isfinite, (*new, *old))))
                        and max(abs(n3 - o3), abs(n4 - o4), abs(n5 - o5), abs(n6 - o6), abs(n7 - o7), abs(n8 - o8))
                        / (1.0 + max(abs(o3), abs(o4), abs(o5), abs(o6), abs(o7), abs(o8))) < tol
                        and max(abs(n0 - o0), abs(n1 - o1), abs(n2 - o2)) / (1.0 + max(abs(o0), abs(o1), abs(o2))) < tol
                        and abs(cluster.nu_scale - old_scale) / (1.0 + abs(old_scale)) < tol)
                    if not cluster.converged:
                        belief_moved = True
                if any_refit:
                    state.ref_belief_h = state.belief_h
                    state.ref_belief_nu = state.belief_nu

                # The surfel settles once its belief stops moving over a sweep;
                # internal message churn that cancels in the belief is ignored.
                changed = (
                    not _gauss_divergence(state.belief_h, belief_h_start) < tol
                    or not _ig_divergence(state.belief_nu, belief_nu_start) < tol
                )

                # LBP: emit messages to each neighbor.
                for link in links:
                    other, pos, _, _, key_out = link
                    old = messages.get(key_out) or vacuous[len(pos)]
                    msg = messages[key_out] = neighbor_out_message(stm, sid, link)
                    if not _gauss_divergence(msg, old) < tol:
                        changed = True
                        # a lower id was passed in this sweep: it waits for the next
                        if other < sid:
                            stm._active.add(other)
                        elif other not in queued:
                            queued.add(other)
                            heapq.heappush(heap, other)

                if changed:
                    stm._active.add(sid)

    return ConvergenceReport(
        converged=not stm._active,
        sweeps=len(active_per_sweep),
        messages=stm.message_count - messages_before,
        n_measurements=len(rows),
        n_skipped_outside=skipped,
        n_rejected=rejected,
        active_per_sweep=active_per_sweep,
        fallbacks=dict(FALLBACKS - fallbacks_before) or _NO_FALLBACKS,
    )


def validate_batch(batch: MeasurementBatch) -> tuple[MeasurementBatch, dict]:
    """The measurements a map can take, and counts of the others by reason:
    a non-finite value, an asymmetric covariance, or a covariance without a
    Cholesky factor (no jitter)."""
    means, covs = batch.means, batch.covs
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
        asym = abs(covs - covs.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-9 * abs(covs).max(axis=(1, 2))
    reasons = np.where(finite, np.where(asym, "asymmetric_cov", ""), "non_finite").astype(object)
    rest = np.flatnonzero(reasons == "")
    reasons[rest[~_stacked(np.linalg.cholesky, covs[rest])[1]]] = "cov_not_positive_definite"
    keep = reasons == ""
    return MeasurementBatch(means[keep], covs[keep], batch.ids[keep]), dict(Counter(r for r in reasons if r))


def incremental_update(stm: STMMap, batch) -> ConvergenceReport:
    """Window old clusters into the priors, then run inference on the new batch.

    With window W, clusters from batches older than the W most recent are
    folded into the priors; the default W=1 keeps only the incoming batch
    live. LBP messages are retained as the warm start for the new batch.
    The batch is a `MeasurementBatch` or a list of `Measurement`; one of any
    other type or shape raises before the map changes, and if the fold or
    inference raises, the map is left as it was.
    """
    batch = MeasurementBatch.of(batch)
    with _atomic(stm) as undo:
        stm.batch += 1
        cutoff = stm.batch - stm.window
        for sid in list(stm._with_clusters):
            state = stm.states[sid]
            undo.save(state)
            fold = [c for c in state.clusters if c.batch <= cutoff]
            keep = [c for c in state.clusters if c.batch > cutoff]
            for cluster in fold:
                state.prior_h = gauss_product(state.prior_h, cluster.out_msg_h)
                state.prior_nu = ig_product(state.prior_nu, cluster.out_msg_nu)
            state.clusters = keep
            if not keep:
                stm._with_clusters.discard(sid)
        return run_inference(stm, batch)


# Surfels per stacked factorisation: bounds the memory a read of a large map takes.
_READ_BLOCK = 1024


def belief_moments(stm: STMMap, sids) -> tuple[np.ndarray, np.ndarray]:
    """Means (k, 3) and marginal variances (k, 3) of the given surfels' height
    beliefs; the map's read side leaves information form only here.

    The shared `untouched` belief and each held one take one row of a stacked
    Cholesky factor L of their information matrices, in blocks; a surfel
    without state reads the shared row. The covariance is L^-T L^-1, so the
    mean is L^-T L^-1 xi and the variances are the column sums of squares of
    L^-1; no covariance is formed. Raises NotADistribution unless every
    belief read is positive definite.
    """
    sids = np.asarray(sids, dtype=int)
    held = np.zeros(stm.grid.n_surfels, dtype=bool)
    held[list(stm.states)] = True
    rows = np.flatnonzero(held[sids])  # the positions in sids of held surfels
    beliefs = [stm.untouched.belief_h.t] + [stm.states[s].belief_h.t for s in sids[rows].tolist()]
    m, v = np.empty((len(beliefs), 3)), np.empty((len(beliefs), 3))
    for lo in range(0, len(beliefs), _READ_BLOCK):
        t = np.array(beliefs[lo:lo + _READ_BLOCK])
        try:
            lower = np.linalg.cholesky(t[:, upper_index(3)])
        except np.linalg.LinAlgError:
            raise NotADistribution("information matrix is not positive definite") from None
        inv_lower = np.linalg.inv(lower)
        y = np.einsum("sji,si->sj", inv_lower, np.ascontiguousarray(t[:, :3]))
        m[lo:lo + len(t)] = np.einsum("sji,sj->si", inv_lower, y)
        v[lo:lo + len(t)] = np.einsum("sji,sji->si", inv_lower, inv_lower)
    means, variances = np.repeat(m[:1], len(sids), axis=0), np.repeat(v[:1], len(sids), axis=0)
    means[rows], variances[rows] = m[1:], v[1:]
    return means, variances


def query_map(stm: STMMap) -> MapQueryResult:
    """Summarize the map belief: per-surfel moments and fused vertex marginals.

    A vertex fuses the marginals of its surfels with inverse-variance
    weights, summed in surfel order.
    """
    means, var = belief_moments(stm, np.arange(stm.grid.n_surfels))
    labels = stm.grid.vertex_table().ravel()
    w = 1.0 / np.maximum(var, 1e-300).ravel()
    n_v = stm.grid.n_vertices
    vertex_w = np.bincount(labels, w, n_v)
    n_meas = np.zeros(stm.grid.n_surfels, dtype=int)
    deviation = np.full(stm.grid.n_surfels, stm.untouched.expected_deviation())
    for sid, state in stm.states.items():
        n_meas[sid], deviation[sid] = state.n_meas_total, state.expected_deviation()
    return MapQueryResult(
        surfel_mean_heights=means,
        surfel_height_stds=np.sqrt(var),
        expected_deviation=deviation,
        n_meas=n_meas,
        observed=n_meas > 0,
        vertex_mean=np.bincount(labels, w * means.ravel(), n_v) / vertex_w,
        vertex_std=np.sqrt(np.bincount(labels, w * var.ravel(), n_v) / vertex_w),
    )


def mean_plane_heights(stm: STMMap, pts: np.ndarray, sids) -> np.ndarray:
    """Mean-mesh heights at submap points `pts` (k, 2) lying in elements `sids`.

    A point scaled by +-n about its element's v0 has element coordinates
    (a, b), where the height is (1-a-b) h0 + a h1 + b h2. Only the beliefs
    of the given elements are read.
    """
    h = belief_moments(stm, sids)[0]
    scale, v0 = stm.grid.element_frames(sids)
    a, b = (scale[:, 0, :1] * (pts - v0[:, :2])).T
    return (1.0 - a - b) * h[:, 0] + a * h[:, 1] + b * h[:, 2]


def map_height(stm: STMMap, alpha: float, beta: float) -> float:
    """Mean-mesh height at a submap coordinate."""
    sid = stm.grid.locate(alpha, beta)
    return float(mean_plane_heights(stm, np.array([[alpha, beta]]), [sid])[0])
