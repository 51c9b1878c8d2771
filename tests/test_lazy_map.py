"""The lazy map: grid topology and sepset scopes computed from lattice
positions, surfel states made on first touch, one message table, updates
that raise leaving the map as it was, and the output digest that checks it all."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import digest
import stmmap.mapgraph as mapgraph
from stmmap.cli import export_map_json, export_ply, make_emulation_case
from stmmap.distributions import GaussianCanonical, SingularMarginalization, scatter_index
from stmmap.geometry import TriGrid
from stmmap.mapgraph import STMMap, enforce_rip, incremental_update, query_map
from stmmap.surfel import Measurement

from gridref import reference_element_frames, reference_grid, reference_links, reference_rip_scopes

# (n, rows): full subdivisions of depth 0-8, strips 1-64 and a few partial triangles
GRIDS = [(2**d, 2**d) for d in range(9)] + [(n, 1) for n in range(1, 65)] + [(5, 3), (6, 5), (7, 2)]


@pytest.mark.parametrize("n,rows", GRIDS)
def test_topology_matches_the_lists(n, rows):
    grid = TriGrid(n, rows)
    surfels, adjacency, coords = reference_grid(n, rows)
    assert (grid.n_surfels, grid.n_vertices) == (len(surfels), len(coords))
    assert [(sid, up, r, j, grid.vertex_ids(sid)) for sid in range(grid.n_surfels)
            for r, j, up in [grid.cell(sid)]] == surfels
    assert list(grid.adjacency) == adjacency
    assert grid.vertex_table().tolist() == [list(s.vertex_ids) for s in surfels]
    assert grid.vertex_coords.tobytes() == coords.tobytes()
    edges = {s.sid: [] for s in surfels}
    for edge in adjacency:
        edges[edge[0]].append(edge)
        edges[edge[1]].append(edge)
    full = [grid.edges(s.sid) for s in surfels]
    assert [[e[:3] for e in es] for es in full] == list(edges.values())
    assert all(tuple(surfels[e[i]].vertex_ids.index(v) for v in e[2]) == e[3 + i]
               for es in full for e in es for i in (0, 1))
    for got, want in zip(grid.element_frames(range(len(surfels))), reference_element_frames(n, surfels, coords)):
        assert got.tobytes() == want.tobytes()

    scopes = reference_rip_scopes(surfels, adjacency)
    downs = [e for s, es in zip(surfels, full) if not s.up for e in es]  # adjacency order
    reduced = [enforce_rip(grid, *e) for e in downs]
    assert [variables for variables, _, _ in reduced] == scopes
    assert all(pos == tuple(p[e[2].index(v)] for v in variables)
               for e, (variables, *kept) in zip(downs, reduced) for p, pos in zip(e[3:], kept))
    assert all(scopes)  # no sepset loses both variables
    stm = STMMap(grid)
    links = [stm.links(s.sid) for s in surfels]
    assert [[(other, tuple(s.vertex_ids[p] for p in pos), pos) for other, pos, *_ in ls]
            for s, ls in zip(surfels, links)] == reference_links(surfels, adjacency, scopes)
    assert all((scatter, key_in, key_out) == (scatter_index(pos, 3), (other, s.sid), (s.sid, other))
               for s, ls in zip(surfels, links) for other, pos, scatter, key_in, key_out in ls)


def test_an_empty_deep_map_allocates_almost_nothing():
    tracemalloc.start()
    try:
        STMMap(TriGrid.triangle(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_vertex_table_allocates_little_beside_its_result():
    # stacking every surfel's up and down vertex ids for one np.where peaked
    # at 4.4 times the result
    grid = TriGrid.triangle(9)
    tracemalloc.start()
    try:
        table = grid.vertex_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (grid.n_surfels, 3)
    assert peak < 2.5 * table.nbytes, peak / table.nbytes


def test_a_dropped_map_is_freed_at_once():
    # no reference cycle: a map and its grid go when the last reference does,
    # not at the next full collection (which kept dropped maps in memory)
    stm = STMMap(TriGrid.triangle(3), convergence=mapgraph.ConvergenceConfig(kl_threshold=0.1))
    incremental_update(stm, make_emulation_case("stereo"))
    stm.surfels[3], stm.links(5)
    refs = weakref.ref(stm), weakref.ref(stm.grid)
    gc.disable()
    try:
        del stm
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_reads_create_no_state(tmp_path):
    stm = STMMap(TriGrid.triangle(7), convergence=mapgraph.ConvergenceConfig(kl_threshold=0.1))
    rng = np.random.default_rng(3)
    ab = 0.3 + 0.02 * rng.uniform(size=(16, 2))
    incremental_update(stm, [Measurement([a, b, 0.1 * a], 1e-4 * np.eye(3), i) for i, (a, b) in enumerate(ab)])
    touched = [sid for sid, s in stm.states.items() if s.belief_h is not stm.untouched.belief_h]
    assert 16 <= len(stm.states) == len(touched) < stm.grid.n_surfels // 100
    query_map(stm)
    export_ply(stm, str(tmp_path / "m.ply"))
    export_map_json(stm, str(tmp_path / "m.map.json"))
    assert len(stm.states) == len(touched)


def test_every_message_is_sent_over_a_link_of_a_held_state():
    stm = STMMap(TriGrid.triangle(4), window=2, convergence=mapgraph.ConvergenceConfig(kl_threshold=1e-3))
    rng = np.random.default_rng(5)
    for k in range(3):
        ab = 0.1 + 0.2 * k + 0.05 * rng.uniform(size=(8, 2))
        incremental_update(stm, [Measurement([a, b, a - b], 1e-4 * np.eye(3), i) for i, (a, b) in enumerate(ab)])
    sizes = {key: len(pos) for sid in stm.states for _, pos, _, _, key in stm.links(sid)}
    assert 0 < len(stm.messages) <= len(sizes)
    for key, msg in stm.messages.items():
        assert msg.n == sizes[key] and len(msg.t) == msg.n * (msg.n + 3) // 2


def test_a_read_factors_the_shared_belief_once(monkeypatch):
    stm = STMMap(TriGrid.triangle(5), convergence=mapgraph.ConvergenceConfig(kl_threshold=0.1))
    incremental_update(stm, [Measurement([0.3, 0.3, 0.1], 1e-4 * np.eye(3), 0),
                             Measurement([0.6, 0.1, 0.1], 1e-4 * np.eye(3), 1)])
    rows, real = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: rows.append(len(a)) or real(a))
    query_map(stm)
    assert sum(rows) == len(stm.states) + 1 == 8


def _outputs(stm: STMMap, path: str) -> tuple:
    q = query_map(stm)
    export_map_json(stm, path)
    with open(path, "rb") as fh:
        return tuple(getattr(q, f).tobytes() for f in q.__dataclass_fields__), fh.read()


@pytest.mark.parametrize("window", [1, 2])
def test_an_update_that_raises_leaves_the_map_as_it_was(tmp_path, window):
    # An infinite xi[0] in a surfel's prior turns its first mean-plane refit
    # NaN, and the deviation refit after it raises, as `cholesky_psd` finds no
    # factor of a NaN block: after the fold, the new clusters and that refit
    # (with window 2, of the older batch's first live cluster) have changed
    # the map. With window 1 an empty batch first folds the older clusters away.
    meas = make_emulation_case("lidar")
    stm = STMMap(TriGrid.triangle(0), window=window)
    incremental_update(stm, meas[:5])
    if window == 1:
        incremental_update(stm, [])
    state = stm.surfels[0]
    state.prior_h = GaussianCanonical.of((math.inf,) + state.prior_h.t[1:], 3)
    state.recompute_beliefs()
    before = _outputs(stm, str(tmp_path / "before.map.json"))
    counts = (stm.batch, len(state.clusters), [(c.w, c.nu_scale, c.converged) for c in state.clusters])
    with pytest.raises(SingularMarginalization):
        incremental_update(stm, meas[5:])
    assert _outputs(stm, str(tmp_path / "after.map.json")) == before
    assert (stm.batch, len(state.clusters), [(c.w, c.nu_scale, c.converged) for c in state.clusters]) == counts


def test_a_raising_update_drops_what_it_created(monkeypatch):
    stm = STMMap(TriGrid.triangle(3), window=2, convergence=mapgraph.ConvergenceConfig(kl_threshold=0.1))
    first = [Measurement([0.1, 0.1, 0.5], 1e-4 * np.eye(3), 0)]
    incremental_update(stm, first)
    states, messages = list(stm.states.items()), list(stm.messages.items())
    beliefs = {sid: (s.belief_h, s.neighbor_in_msg) for sid, s in stm.states.items()}
    sends = [0]
    real = mapgraph.neighbor_out_message

    def failing(stm, sid, link):  # raises deep into the second update's spread
        sends[0] += 1
        if sends[0] == 40:
            raise RuntimeError("forced")
        return real(stm, sid, link)

    monkeypatch.setattr(mapgraph, "neighbor_out_message", failing)
    with pytest.raises(RuntimeError):
        incremental_update(stm, [Measurement([0.6, 0.3, 2.0], 1e-4 * np.eye(3), 1),
                                 Measurement([0.12, 0.1, 0.4], 1e-4 * np.eye(3), 2)])
    assert sends[0] == 40
    assert list(stm.states.items()) == states
    assert list(stm.messages.items()) == messages
    assert {sid: (s.belief_h, s.neighbor_in_msg) for sid, s in stm.states.items()} == beliefs
    assert stm._undo is None


def test_a_raise_before_a_surfel_sends_restores_the_map(monkeypatch):
    # the undo log keeps a visited surfel's keys out before it writes them:
    # a raise at its first refit leaves keys that were never written
    def fail(state, cluster):
        raise RuntimeError("forced")

    stm = STMMap(TriGrid.triangle(1))
    monkeypatch.setattr(mapgraph, "update_mean_plane_factor", fail)
    with pytest.raises(RuntimeError, match="forced"):
        incremental_update(stm, [Measurement([0.1, 0.1, 0.5], 1e-4 * np.eye(3), 0)])
    assert (stm.states, stm.messages, stm.batch, stm._undo) == ({}, {}, 0, None)


def test_a_slice_of_surfels_is_a_list_of_their_states():
    stm = STMMap(TriGrid.triangle(2))
    states = stm.surfels[1:3]
    assert states == [stm.surfels[1], stm.surfels[2]] and [s.sid for s in states] == [1, 2]
    assert [s.sid for s in stm.surfels[-3::2]] == [13, 15] and stm.surfels[-1] is stm.surfels[15]
    assert sorted(stm.states) == [1, 2, 13, 15]
    assert query_map(stm).n_meas.tolist() == [0] * 16


def _mutated_digests(monkeypatch, mutate) -> dict:
    calls = [0]
    real = mapgraph.incremental_update

    def update(stm, batch):
        calls[0] += 1
        return mutate(stm, batch, real) if calls[0] == 5 else real(stm, batch)

    with monkeypatch.context() as m:
        m.setattr(mapgraph, "incremental_update", update)
        return digest.digests(["stream"], quick=True)


def _scale_one_message(stm, batch, real):
    """Scale by 1 + 1e-12 one informative message into the lowest surfel the
    batch observes: the first sweep visits that surfel first, so its new
    clusters are refit on the changed belief before any message replaces it."""
    sids = stm.grid.locate_all(batch.means[:, 0], batch.means[:, 1])
    sid = int(sids[sids >= 0].min())
    key = next(key for _, _, _, key, _ in stm.links(sid) if key in stm.messages and any(stm.messages[key].t))
    msg = stm.messages[key]
    stm.messages[key] = GaussianCanonical.of(tuple(x * (1.0 + 1e-12) for x in msg.t), msg.n)
    return real(stm, batch)


def _count_one_more_message(stm, batch, real):
    report = real(stm, batch)
    report.messages += 1
    return report


def test_digest_flags_a_changed_message_and_a_changed_count(monkeypatch):
    clean = digest.digests(["stream"], quick=True)
    assert clean == digest.digests(["stream"], quick=True)
    for mutate, flagged in ((_scale_one_message, "query@10"), (_count_one_more_message, "reports")):
        got = _mutated_digests(monkeypatch, mutate)
        assert got.keys() == clean.keys()
        assert got[f"stream/seed1/{flagged}"] != clean[f"stream/seed1/{flagged}"]


def test_digest_against_its_own_tree_prints_nothing():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = subprocess.run([sys.executable, os.path.join(root, "tests", "digest.py"), "--quick",
                          "--only", "emulation", "--against", root], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "")
