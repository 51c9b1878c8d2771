"""The three workloads: program calls, timing, and the checks on their outputs.

Each workload's ``execute`` only calls the program and keeps its outputs;
``verify`` then checks those outputs against the benchmark's references.
``execute`` runs whole rounds, each a set-up followed by operations,
either until a number of seconds has passed (untraced runs) or for a fixed
number of rounds (both phases of a traced run, so that every count repeats
from run to run). Set-up is repeated in every round so that set-up and
operations are timed across the same stretch of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import stmmap.cli as cli
import stmmap.mapgraph as mapgraph
import stmmap.oracle as oracle
from stmmap.baseline import ElevationMap
from stmmap.geometry import TriGrid
from stmmap.mapgraph import ConvergenceConfig, PriorConfig, STMMap
from stmmap.surfel import Measurement

from . import inputs, reference, speed
from .tracer import UPDATE_CLOCK, Tracer

MAP_KL = 0.1  # the CLI's default kl_threshold, used by both map workloads


def _last_line(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


@dataclass
class Run:
    """One pass over a workload: its operations, their failures, and timings."""

    seconds: float | None  # rounds continue until this much wall time has passed ...
    rounds: int  # ... or, when seconds is None, exactly this many; at least this many either way
    failed_ops: list[bool] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    clock: Tracer = field(default_factory=lambda: Tracer(UPDATE_CLOCK))
    probes_ms: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def more(self, done_rounds: int, started: float) -> bool:
        if done_rounds < self.rounds:
            return True
        return self.seconds is not None and perf_counter() - started < self.seconds

    def probe(self) -> None:
        """Measure the machine's current speed (before each timed item)."""
        self.probes_ms.append(speed.probe_ms())

    @property
    def speed(self) -> float:
        """Factor that scales this run's times to the reference speed."""
        return speed.REFERENCE_MS / float(np.median(self.probes_ms))

    @property
    def probe_s(self) -> float:
        return 1e-3 * sum(self.probes_ms)

    def attempt(self) -> int:
        self.failed_ops.append(False)
        return len(self.failed_ops) - 1

    def fail(self, op: int, what: str, errs: list[str]) -> None:
        self.failed_ops[op] = True
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {'; '.join(errs)}")

    @property
    def attempted(self) -> int:
        return len(self.failed_ops)

    @property
    def failed(self) -> int:
        return sum(self.failed_ops)

    @property
    def update_ms_per_meas(self) -> float:
        used = self.clock.counts["mapgraph.meas_used"]
        return 1e3 * float(self.clock.durations("mapgraph.update").sum()) / max(used, 1)


def _checked(check, *args) -> list[str]:
    """Run one check; malformed output that makes the check raise is a failure."""
    try:
        return check(*args)
    except Exception as exc:  # any exception here means the output did not parse or match
        return [_last_line(exc)]


def _measurements(means, covs, first_id: int) -> list[Measurement]:
    return [Measurement(means[i], covs[i], first_id + i) for i in range(len(means))]


def _baseline_ms_per_meas(grid, batches: list[list[Measurement]], used: int) -> float:
    """The paper's comparator, ElevationMap.update, on the same batches."""
    elev = ElevationMap(grid)
    t = perf_counter()
    for b in batches:
        elev.update(b)
    return 1e3 * (perf_counter() - t) / max(used, 1)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# build_dense_stereo


class BuildDenseStereo:
    """One dense stereo scan of a whole depth-4 submap through ``stm build``.

    A round builds the empty map ``stm build`` starts from five times (the
    set-up) and then runs one in-process ``stm build`` call (parse, one
    update batch, PLY and JSON export), which is the operation.
    """

    name = "build_dense_stereo"
    # The quick size's 1.6 m surfels cannot follow 2 m waves, so its mesh limit is looser.
    sizes = {"full": {"depth": 4, "per_surfel": 10, "mse_limit": reference.MSE_LIMIT_STEREO},
             "quick": {"depth": 3, "per_surfel": 10, "mse_limit": 0.02}}
    setups_per_round = 5
    min_rounds = 1

    def __init__(self, seed: int, size: str, work: str):
        p = self.sizes[size]
        self.depth = p["depth"]
        self.mse_limit = p["mse_limit"]
        surface, scan = inputs.stereo_scan(seed, self.depth, p["per_surfel"])
        self.csv = os.path.join(work, "points.csv")
        inputs.write_points_csv(self.csv, scan)
        # `--global-frame 0,0,SIDE,SIDE` maps points through inv(diag(SIDE, SIDE, 1));
        # the same product here gives the same bits at the submap's edges.
        b_inv = np.linalg.inv(np.diag([inputs.SIDE, inputs.SIDE, 1.0]))
        rel = scan.mean @ b_inv.T
        inside = reference.inside_submap(rel[:, :2])
        faces = reference.face_index(rel[inside, :2], self.depth)
        n_faces = 4**self.depth
        self.expected_counts = np.bincount(faces, minlength=n_faces)
        elev_mean, elev_obs = reference.elevation_reference(
            faces, rel[inside, 2], scan.cov[inside, 2, 2], n_faces)
        k = 4
        ab = inputs.points_in_triangles(
            np.random.default_rng([seed, 4]), inputs.lattice_triangles(self.depth), k)
        xy = ab * inputs.SIDE
        eval_faces = np.repeat(np.arange(n_faces), k)
        self.eval_set = (ab, eval_faces, surface(xy[:, 0], xy[:, 1]), elev_mean, elev_obs)
        rel_cov = scan.cov * np.multiply.outer(np.diag(b_inv), np.diag(b_inv))
        self.measurements = _measurements(rel, rel_cov, 0)

    def execute(self, run: Run, out_dir: str) -> None:
        started = perf_counter()
        rounds = 0
        while run.more(rounds, started):
            for _ in range(self.setups_per_round):
                run.probe()
                t = perf_counter()
                STMMap(TriGrid.triangle(self.depth), PriorConfig(), window=1,
                       convergence=ConvergenceConfig(kl_threshold=MAP_KL))
                run.setup_s.append(perf_counter() - t)
            run.probe()
            op = run.attempt()
            prefix = os.path.join(out_dir, f"op{op}")
            argv = ["build", "--points", self.csv, "--depth", str(self.depth), "--out", prefix,
                    "--global-frame", f"0,0,{inputs.SIDE!r},{inputs.SIDE!r}"]
            sink = io.StringIO()
            t = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), run.clock:
                    code = cli.main(argv)
            except Exception as exc:  # a raising build is a failed operation
                code = _last_line(exc)
            run.op_ms.append(1e3 * (perf_counter() - t))
            run.probe()
            run.outputs[op] = (prefix, code)
            rounds += 1

    def verify(self, run: Run) -> None:
        for op, (prefix, code) in run.outputs.items():
            if code != 0:
                run.fail(op, f"stm build {op}", [f"exited with {code!r}"])
                continue
            errs = _checked(reference.check_map_files, prefix, self.depth, self.expected_counts,
                            self.eval_set, self.mse_limit, run.notes)
            if errs:
                run.fail(op, f"stm build {op}", errs)

    def fingerprint(self, run: Run) -> str:
        return _file_digest(run.outputs[0][0] + ".map.json")

    def baseline_ms_per_meas(self, run: Run) -> float:
        return _baseline_ms_per_meas(TriGrid.triangle(self.depth), [self.measurements],
                                     int(self.expected_counts.sum()))


# ---------------------------------------------------------------------------
# stream_lidar_d7


class StreamLidarD7:
    """Small lidar batches into a depth-7 submap, out and back along a drive.

    A round builds an empty depth-7 map (the set-up, timed) and feeds it
    one out-and-back loop of batches; every round repeats the same loop on
    a fresh map, so every round is the same work. An operation is one
    ``incremental_update`` batch. The last round's map is queried and
    exported.
    """

    name = "stream_lidar_d7"
    sizes = {"full": {"depth": 7, "n_out": 30, "min_rounds": 2},
             "quick": {"depth": 5, "n_out": 8, "min_rounds": 1}}
    per_batch = 16

    def __init__(self, seed: int, size: str, work: str):
        p = self.sizes[size]
        self.seed = seed
        self.depth = p["depth"]
        self.min_rounds = p["min_rounds"]
        self.surface = inputs.stream_surface(seed)
        # (measurements, points outside, faces, gamma, variance of the inside points) per batch
        self.batches = []
        for b, scan in enumerate(inputs.lidar_leg(seed, self.surface, p["n_out"], self.per_batch)):
            means, covs = inputs.to_submap(scan)
            inside = reference.inside_submap(means[:, :2])
            self.batches.append((_measurements(means, covs, b * self.per_batch), int((~inside).sum()),
                                 reference.face_index(means[inside, :2], self.depth),
                                 means[inside, 2], covs[inside, 2, 2]))

    def execute(self, run: Run, out_dir: str) -> None:
        reports = []
        stm = None
        started = perf_counter()
        rounds = 0
        while run.more(rounds, started):
            stm = None  # release the previous map first: peak memory is one map
            run.probe()
            t = perf_counter()
            stm = STMMap(TriGrid.triangle(self.depth), PriorConfig(), window=1,
                         convergence=ConvergenceConfig(kl_threshold=MAP_KL))
            run.setup_s.append(perf_counter() - t)
            for batch in self.batches:
                run.probe()
                op = run.attempt()
                t = perf_counter()
                try:
                    with run.clock:
                        rep = mapgraph.incremental_update(stm, batch[0])
                except Exception as exc:  # a raising update is a failed operation
                    rep = _last_line(exc)
                run.op_ms.append(1e3 * (perf_counter() - t))
                reports.append((op, rep))
            rounds += 1
        run.probe()
        prefix = os.path.join(out_dir, "map")
        t = perf_counter()
        try:
            query = mapgraph.query_map(stm)
            cli.export_ply(stm, prefix + ".ply")
            cli.export_map_json(stm, prefix + ".map.json")
        except Exception as exc:  # the final map could not be read out
            query = _last_line(exc)
        run.notes["export_s"] = perf_counter() - t
        run.outputs = {"reports": reports, "query": query, "prefix": prefix}

    def verify(self, run: Run) -> None:
        out = run.outputs
        for op, rep in out["reports"]:
            if isinstance(rep, str):
                run.fail(op, f"batch {op}", [rep])
                continue
            batch = self.batches[op % len(self.batches)]
            errs = []
            if not rep.converged:
                errs.append(f"did not converge in {rep.sweeps} sweeps")
            if rep.n_measurements + rep.n_skipped_outside != len(batch[0]):
                errs.append(f"{rep.n_measurements} used + {rep.n_skipped_outside} skipped "
                            f"!= {len(batch[0])} points")
            if rep.n_skipped_outside != batch[1]:
                errs.append(f"{rep.n_skipped_outside} skipped, {batch[1]} points lie outside")
            if errs:
                run.fail(op, f"batch {op}", errs)
        last = run.attempted - 1
        if isinstance(out["query"], str):
            run.fail(last, "final map", [out["query"]])
            return
        q = out["query"]
        errs = reference.check_finite(
            surfel_mean_heights=q.surfel_mean_heights, surfel_height_stds=q.surfel_height_stds,
            expected_deviation=q.expected_deviation, vertex_mean=q.vertex_mean,
            vertex_std=q.vertex_std)
        n_faces = 4**self.depth
        faces = np.concatenate([b[2] for b in self.batches])
        expected = np.bincount(faces, minlength=n_faces)
        elev_mean, elev_obs = reference.elevation_reference(
            faces, np.concatenate([b[3] for b in self.batches]),
            np.concatenate([b[4] for b in self.batches]), n_faces)
        observed = np.flatnonzero(expected > 0)
        k = 3
        ab = inputs.points_in_triangles(np.random.default_rng([self.seed, 5]),
                                        inputs.lattice_triangles(self.depth)[observed], k)
        xy = ab * inputs.SIDE
        eval_set = (ab, np.repeat(observed, k), self.surface(xy[:, 0], xy[:, 1]), elev_mean, elev_obs)
        errs += _checked(reference.check_map_files, out["prefix"], self.depth, expected, eval_set,
                         reference.MSE_LIMIT_LIDAR, run.notes)
        if errs:
            run.fail(last, "final map", errs)

    def fingerprint(self, run: Run) -> str:
        return _file_digest(run.outputs["prefix"] + ".map.json")

    def baseline_ms_per_meas(self, run: Run) -> float:
        return _baseline_ms_per_meas(TriGrid.triangle(self.depth), [b[0] for b in self.batches],
                                     sum(len(b[2]) for b in self.batches))


# ---------------------------------------------------------------------------
# oracle_mh


@dataclass(frozen=True)
class ChainSpec:
    case: str
    n_samples: int
    adapt_interval: int
    burn_in: float = 0.2
    thinning: int = 10

    @property
    def kept(self) -> int:
        return (self.n_samples - int(self.burn_in * self.n_samples)) // self.thinning


class OracleMH:
    """The MH oracle against the STM belief of the emulation cases.

    A round computes the belief of both cases at criterion 2's tolerance
    (the set-up; each belief is one ``incremental_update`` operation) and
    then runs one MH chain on the lidar case, seeded from the run's seed and
    the round: the chain is the operation ``op_p50_ms`` times. The stereo
    case gets no chain: its deviation marginal sits about 0.39 MH standard
    deviations from the belief, and chains short enough for a run scatter
    that figure by +-0.06, so a stereo chain would fail the 0.5 bound on
    some seeds.
    """

    name = "oracle_mh"
    cases = ("stereo", "lidar")
    chain = ChainSpec("lidar", 20_000, 500)
    min_rounds = 1

    def __init__(self, seed: int, size: str, work: str):
        self.seed = seed

    def execute(self, run: Run, out_dir: str) -> None:
        prior = PriorConfig()
        updates, chains = [], []
        started = perf_counter()
        rounds = 0
        while run.more(rounds, started):
            beliefs = {}
            run.probe()
            t = perf_counter()
            for case in self.cases:
                meas = cli.make_emulation_case(case)
                stm = STMMap(TriGrid.triangle(0), prior,
                             convergence=ConvergenceConfig(kl_threshold=1e-7, max_sweeps=500))
                op = run.attempt()
                try:
                    with run.clock:
                        rep = mapgraph.incremental_update(stm, meas)
                except Exception as exc:  # a raising update is a failed operation
                    rep = _last_line(exc)
                updates.append((op, meas, rep, stm.surfels[0]))
                beliefs[case] = (meas, stm.surfels[0])
            run.setup_s.append(perf_counter() - t)

            spec = self.chain
            meas, belief = beliefs[spec.case]
            config = oracle.ChainConfig(
                n_samples=spec.n_samples, burn_in=spec.burn_in, thinning=spec.thinning,
                adapt_interval=spec.adapt_interval,
                seed=int(np.random.SeedSequence([self.seed, rounds]).generate_state(1)[0]))
            run.probe()
            op = run.attempt()
            t = perf_counter()
            try:
                result = oracle.run_mh(meas, prior, config)
            except Exception as exc:  # includes AdaptationFailed
                result = _last_line(exc)
            run.op_ms.append(1e3 * (perf_counter() - t))
            run.probe()
            compared = None
            if not isinstance(result, str):
                try:
                    compared = oracle.compare_marginals(result, belief)
                except Exception as exc:  # a raising comparison fails the chain's operation
                    result = _last_line(exc)
            chains.append((op, spec, belief, result, compared))
            rounds += 1
        run.outputs = {"updates": updates, "chains": chains}

    def verify(self, run: Run) -> None:
        for op, meas, rep, surfel in run.outputs["updates"]:
            if isinstance(rep, str):
                run.fail(op, f"belief {op}", [rep])
                continue
            outside = int((~reference.inside_submap(np.array([m.mean[:2] for m in meas]))).sum())
            errs = [] if rep.converged else [f"did not converge in {rep.sweeps} sweeps"]
            if rep.n_measurements + rep.n_skipped_outside != len(meas) or rep.n_skipped_outside != outside:
                errs.append(f"{rep.n_measurements} used, {rep.n_skipped_outside} skipped, "
                            f"{outside} of {len(meas)} outside")
            if surfel.belief_nu.exponent != reference.A_P + 1.0 + 0.5 * surfel.n_meas_total:
                errs.append("shape bookkeeping broken")
            if errs:
                run.fail(op, f"belief {op}", errs)
        worst = run.notes.setdefault("worst_gap", {})
        for op, spec, belief, result, compared in run.outputs["chains"]:
            if isinstance(result, str):
                run.fail(op, f"{spec.case} chain", [result])
                continue
            errs = _checked(self._check_chain, spec, belief, result, compared, worst)
            if errs:
                run.fail(op, f"{spec.case} chain", errs)

    @staticmethod
    def _check_chain(spec, belief, result, compared, worst) -> list[str]:
        bel_mean, bel_std = reference.belief_marginals(
            belief.belief_h.xi, belief.belief_h.omega, belief.belief_nu.exponent, belief.belief_nu.scale)
        errs, gap, _ = reference.check_chain(result.h_samples, result.nu_samples, spec.kept,
                                             bel_mean, bel_std)
        worst[spec.case] = max(worst.get(spec.case, 0.0), gap)
        x = np.column_stack([result.h_samples, result.nu_samples])
        ours = np.abs(x.mean(axis=0) - bel_mean) / x.std(axis=0, ddof=1)
        theirs = [compared[k]["std_mean_discrepancy"] for k in ("h0", "h_alpha", "h_beta", "nu")]
        if not errs and not np.allclose(theirs, ours, rtol=1e-9, atol=1e-12):
            errs.append(f"compare_marginals reports gaps {theirs}, the samples give {ours.tolist()}")
        return errs

    def fingerprint(self, run: Run) -> str:
        h = hashlib.sha256()
        for _, _, _, result, _ in run.outputs["chains"]:
            h.update(repr(result).encode() if isinstance(result, str) else result.nu_samples.tobytes())
        return h.hexdigest()

    def baseline_ms_per_meas(self, run: Run) -> float:
        batches = [cli.make_emulation_case(c) for c in self.cases]
        used = sum(int(reference.inside_submap(np.array([m.mean[:2] for m in b])).sum()) for b in batches)
        return _baseline_ms_per_meas(TriGrid.triangle(0), batches, used)


WORKLOADS = {w.name: w for w in (BuildDenseStereo, StreamLidarD7, OracleMH)}
