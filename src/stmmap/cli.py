"""Command-line entry points, configuration, data ingestion, and export.

Subcommands:
  stm simulate --scenario {pushbroom,reobserve,accuracy2d,accuracy3d}
  stm build    --points FILE (--landmarks FILE | --global-frame X0,Y0,X1,Y1)
  stm oracle   --case {stereo,lidar}

Exit codes: 0 success, 2 configuration error, 3 inference did not converge
(artifacts still written), 4 too many unparseable input rows, 5 sampler
adaptation failure.

Every run writes a manifest (config hash, seed, versions) next to its
outputs: `stm build` once its inputs are read, `stm simulate` and `stm oracle`
last, once their run has succeeded. Re-running with the same config and seed
reproduces the outputs byte for byte.

`stm build` carries its points as arrays: parse checks and the map into the
submap frame are stacked, and one `MeasurementBatch` holds them all.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .baseline import ElevationMap
from .geometry import MAX_DEPTH, DegenerateLandmarks, TriGrid, make_relative_irf
from .mapgraph import (
    ConvergenceConfig,
    PriorConfig,
    STMMap,
    incremental_update,
    query_map,
)
from .oracle import AdaptationFailed, ChainConfig, compare_marginals, run_mh
from .simulate import (
    MIN_STEPS,
    SENSORS,
    SUBMAP_TRIANGLE,
    NoiseSpec,
    evaluate_loglik_ratio,
    evaluate_mse,
    perlin_surface,
    profile_surface,
    sample_measurements,
    scenario_pushbroom,
    scenario_reobserve,
)
from .surfel import Measurement, MeasurementBatch

# The version of every artifact's format.
FORMAT_VERSION = 1


class ConfigError(Exception):
    """Invalid, unknown, or out-of-range configuration content."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated run settings loaded from a sectioned key=value file; the map
    settings default to the library's, but for `kl_threshold`."""

    depth: int = 5
    window: int = 1
    rho: float = PriorConfig.rho
    sigma2: float = PriorConfig.sigma2
    a_p: float = PriorConfig.a_p
    b_p: float = PriorConfig.b_p
    kl_threshold: float = 0.1
    max_sweeps: int = ConvergenceConfig.max_sweeps
    seed: int = 0
    sensor: str = "stereo"
    steps: int = 6
    density: float = 10.0
    amplitude: float = 1.0
    surface_seed: int = 1
    n_eval: int = 2000

    def new_map(self, grid: TriGrid) -> STMMap:
        """An empty map with these settings; ValueError for one the library rejects."""
        return STMMap(grid, PriorConfig(self.rho, self.sigma2, self.a_p, self.b_p), window=self.window,
                      convergence=ConvergenceConfig(self.kl_threshold, self.max_sweeps))

    def noise(self) -> NoiseSpec:
        return SENSORS[self.sensor]


# The keys of each config section; a value takes the type of its RunConfig default.
_CONFIG_SCHEMA = {
    "map": ("depth", "window"),
    "prior": ("rho", "sigma2", "a_p", "b_p"),
    "convergence": ("kl_threshold", "max_sweeps"),
    "run": ("seed", "sensor"),
    "scenario": ("steps", "density", "amplitude", "surface_seed", "n_eval"),
}


def load_config(path: str) -> RunConfig:
    """Parse and validate a sectioned key=value config file.

    Unknown sections or keys are rejected, as are out-of-range values.
    The literal name "default" yields the built-in defaults.
    """
    cfg = RunConfig()
    if path == "default":
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            typ = type(getattr(RunConfig, key))
            try:
                value = typ(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            setattr(cfg, key, value)
    _validate(cfg)
    try:  # the map settings validate themselves
        cfg.new_map(TriGrid.triangle(0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _validate(cfg: RunConfig) -> None:
    checks = [
        (0 <= cfg.depth <= MAX_DEPTH, f"depth must be in 0..{MAX_DEPTH}"),
        (cfg.sensor in SENSORS, f"sensor must be {' or '.join(SENSORS)}"),
        (cfg.steps >= min(MIN_STEPS.values()), f"steps must be >= {min(MIN_STEPS.values())}"),
        (0 < cfg.density < math.inf, "density must be positive and finite"),
        (math.isfinite(cfg.amplitude), "amplitude must be finite"),
        (cfg.n_eval >= 1, "n_eval must be >= 1"),
        (min(cfg.seed, cfg.surface_seed) >= 0, "seed and surface_seed must be >= 0"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)


def write_manifest(out_prefix: str, command: str, cfg: RunConfig) -> None:
    payload = json.dumps(asdict(cfg), sort_keys=True).encode()
    manifest = {
        "command": command,
        "config": asdict(cfg),
        "config_hash": hashlib.sha256(payload).hexdigest(),
        "seed": cfg.seed,
        "versions": {
            "stmmap": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    _write_json(out_prefix + ".manifest.json", manifest, indent=2)


def _open(path: str, mode: str = "r", **kwargs):
    """open(), with a path that cannot be opened reported as a ConfigError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc


def _write_json(path: str, doc: dict, indent: int = 1) -> None:
    """An artifact: doc with the format version, keys sorted, and a final newline."""
    with _open(path, "w") as fh:
        json.dump({"format_version": FORMAT_VERSION, **doc}, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, rows: list[dict]) -> None:
    """A table: a header of the first row's keys, then a line per row."""
    with _open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


# ---------------------------------------------------------------------------
# map export


def export_ply(stm: STMMap, path: str) -> None:
    """ASCII PLY mesh: vertices x,y,z,std; faces planar_deviation, n_meas."""
    q = query_map(stm)
    grid = stm.grid
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment format_version {FORMAT_VERSION}",
        f"element vertex {grid.n_vertices}",
        "property float x",
        "property float y",
        "property float z",
        "property float std",
        f"element face {grid.n_surfels}",
        "property list uchar int vertex_indices",
        "property float planar_deviation",
        "property int n_meas",
        "end_header",
    ]
    for v, (x, y) in enumerate(grid.vertex_coords):
        lines.append(f"{x:.8g} {y:.8g} {q.vertex_mean[v]:.8g} {q.vertex_std[v]:.8g}")
    for sid, (v0, v1, v2) in enumerate(grid.vertex_table().tolist()):
        lines.append(f"3 {v0} {v1} {v2} {q.expected_deviation[sid]:.8g} {q.n_meas[sid]}")
    with _open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_map_json(stm: STMMap, path: str) -> None:
    """Full belief dump: per-surfel natural parameters, priors, metrics."""
    surfels = []
    get, untouched = stm.states.get, stm.untouched
    for sid, vertex_ids in enumerate(stm.grid.vertex_table().tolist()):
        state = get(sid, untouched)
        surfels.append(
            {
                "sid": sid,
                "vertex_ids": vertex_ids,
                "height_xi": state.belief_h.t[:3],
                "height_omega": state.belief_h.rows(),
                "deviation_exponent": state.belief_nu.exponent,
                "deviation_scale": state.belief_nu.scale,
                "n_meas": state.n_meas_total,
            }
        )
    doc = {
        "grid": {"n": stm.grid.n, "rows": stm.grid.rows, "depth": stm.grid.depth},
        "prior": asdict(stm.prior),
        "window": stm.window,
        "metrics": {
            "message_count": stm.message_count,
            "sweep_count": stm.sweep_count,
        },
        "surfels": surfels,
    }
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# input parsing


@dataclass
class ParseResult:
    means: np.ndarray  # (n, 3)
    covs: np.ndarray  # (n, 3, 3)
    warnings: list[str] = field(default_factory=list)
    n_total_rows: int = 0


_FULL_COLS = ["x", "y", "z", "sxx", "syy", "szz", "sxy", "sxz", "syz"]
_ISO_COLS = ["x", "y", "z", "sigma"]


def _finite_floats(fields) -> list[float]:
    """The fields as floats; ValueError unless every one is a finite number."""
    vals = [float(c) for c in fields]
    if not np.isfinite(vals).all():
        raise ValueError("non-finite value")
    return vals


def parse_points_csv(path: str) -> ParseResult:
    """Parse a point-cloud CSV with per-point covariance.

    Accepts the 9-column form x,y,z,sxx,syy,szz,sxy,sxz,syz or the
    4-column isotropic form x,y,z,sigma. Malformed rows, including rows
    with a NaN or infinite field, are skipped with line-numbered warnings in
    line order, each naming the first of: a field that is not a number, a
    non-finite value, the column count, sigma or the covariance (checked stacked).
    """
    rows, lines, faults = [], [], {}
    n_rows = 0
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty points file")
        header = [h.strip().lower() for h in header]
        if header not in (_FULL_COLS, _ISO_COLS):
            raise ConfigError(
                f"{path}: unrecognized header {header}; expected "
                f"{','.join(_FULL_COLS)} or {','.join(_ISO_COLS)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            n_rows += 1
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                faults[lineno] = exc
                continue
            if len(vals) == len(header):
                rows.append(vals)
                lines.append(lineno)
            else:
                faults[lineno] = (f"expected {len(header)} columns, got {len(vals)}"
                                  if all(map(math.isfinite, vals)) else "non-finite value")
    vals = np.array(rows).reshape(-1, len(header))
    finite = np.isfinite(vals).all(axis=1)
    if header == _ISO_COLS:
        covs = (vals[:, 3] * vals[:, 3])[:, None, None] * np.eye(3)
        bad = finite & (vals[:, 3] <= 0)
        fault = "sigma must be positive"
    else:
        covs = vals[:, [3, 6, 7, 6, 4, 8, 7, 8, 5]].reshape(-1, 3, 3)
        bad = finite.copy()
        bad[finite] = np.linalg.eigvalsh(covs[finite]).min(axis=1) <= 0
        fault = "covariance is not positive definite"
    faults.update({lines[i]: "non-finite value" for i in np.flatnonzero(~finite)})
    faults.update({lines[i]: fault for i in np.flatnonzero(bad)})
    keep = finite & ~bad
    warnings = [f"{path}:{lineno}: skipping row: {faults[lineno]}" for lineno in sorted(faults)]
    return ParseResult(means=vals[keep, :3], covs=covs[keep], warnings=warnings, n_total_rows=n_rows)


def parse_landmarks_csv(path: str) -> np.ndarray:
    """Three landmark rows id,x,y,z defining the submap frame, in order
    origin, alpha axis, beta axis. The id is a free label; x, y and z must
    be finite numbers."""
    rows = []
    with _open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["id", "x", "y", "z"]:
            raise ConfigError(f"{path}: expected header id,x,y,z")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                _, x, y, z = row
                rows.append(_finite_floats((x, y, z)))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad landmark row: {exc}")
    if len(rows) != 3:
        raise ConfigError(f"{path}: expected exactly 3 landmarks, got {len(rows)}")
    return np.asarray(rows)


def parse_global_frame(text: str) -> np.ndarray:
    """Frame landmarks of a --global-frame X0,Y0,X1,Y1 rectangle."""
    try:
        x0, y0, x1, y1 = _finite_floats(text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--global-frame {text}: {exc}") from exc
    return np.array([[x0, y0, 0.0], [x1, y0, 0.0], [x0, y1, 0.0]])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = args.out
    if cfg.steps < MIN_STEPS.get(args.scenario, 0):
        raise ConfigError(f"steps must be >= {MIN_STEPS[args.scenario]} for scenario {args.scenario}")
    noise = cfg.noise()

    if args.scenario in MIN_STEPS:
        surface = perlin_surface(seed=cfg.surface_seed, amplitude=cfg.amplitude)
        stm = cfg.new_map(TriGrid.triangle(cfg.depth))
        runner = scenario_pushbroom if args.scenario == "pushbroom" else scenario_reobserve
        report = runner(stm, surface, cfg.steps, density=cfg.density,
                        noise=noise, seed=cfg.seed)
        _write_csv(out + ".csv", [{**asdict(s), "normalized": f"{s.normalized:.6f}", "total_kl": f"{s.total_kl:.6e}"}
                                  for s in report.steps])
        _write_json(out + ".json", asdict(report), indent=2)
        export_ply(stm, out + ".ply")
        export_map_json(stm, out + ".map.json")
        write_manifest(out, f"simulate --scenario {args.scenario}", cfg)
        return 0

    # accuracy2d: one profile over strips of 1..6 divisions; accuracy3d: full
    # grids of depth 1..4, each averaged over 10 gradient-noise surfaces
    rows = []
    for d in range(1, 7) if args.scenario == "accuracy2d" else range(1, 5):
        if args.scenario == "accuracy2d":
            grid, region = TriGrid.strip(d), [[0, 0], [1, 0], [1 - 1 / d, 1 / d], [0, 1 / d]]
            draws = [(profile_surface(amplitude=cfg.amplitude), cfg.seed)]
        else:
            grid, region = TriGrid.triangle(d), SUBMAP_TRIANGLE
            draws = [(perlin_surface(seed=cfg.surface_seed + 100 + k, amplitude=cfg.amplitude), cfg.seed + k)
                     for k in range(10)]
        mse_s, mse_e = [], []
        for surface, seed in draws:
            meas = sample_measurements(surface, region, cfg.density, noise, seed=seed,
                                       n_elements_per_unit_area=grid.element_density)
            stm = cfg.new_map(grid)
            incremental_update(stm, meas)
            elev = ElevationMap(grid)
            elev.update(meas)
            try:  # ValueError: no evaluation point lies on an element both maps observed
                mse_s.append(evaluate_mse(stm, surface, cfg.n_eval, seed=1, companion=elev))
                mse_e.append(evaluate_mse(elev, surface, cfg.n_eval, seed=1, companion=stm))
                llr = (evaluate_loglik_ratio(stm, elev, surface, cfg.n_eval, seed=1)
                       if args.scenario == "accuracy2d" else float("nan"))
            except ValueError as exc:
                raise ConfigError(f"n_eval = {cfg.n_eval}: {exc}") from exc
        rows.append({
            "division": d,
            "mse_stm": float(np.mean(mse_s)),
            "mse_elevation": float(np.mean(mse_e)),
            "loglik_ratio": llr,
        })
    _write_csv(out + ".csv", rows)
    _write_json(out + ".json", {"rows": rows})
    write_manifest(out, f"simulate --scenario {args.scenario}", cfg)
    return 0


def _cmd_build(args) -> int:
    cfg = load_config(args.config)
    if args.depth is not None:
        cfg.depth = args.depth
        _validate(cfg)
    # every input is read before the first output is written
    parsed = parse_points_csv(args.points)
    landmarks = parse_landmarks_csv(args.landmarks) if args.landmarks else parse_global_frame(args.global_frame)
    try:
        irf = make_relative_irf(*landmarks)
    except DegenerateLandmarks as exc:
        raise ConfigError(f"submap frame: {exc}") from exc
    write_manifest(args.out, "build", cfg)
    for w in parsed.warnings:
        print(w, file=sys.stderr)
    b_inv = np.linalg.inv(irf.basis)
    # the per-point products b_inv @ (m - l0) and b_inv @ C @ b_inv.T, stacked
    means = (b_inv @ (parsed.means - irf.l0)[..., None])[..., 0]
    covs = b_inv @ parsed.covs @ b_inv.T
    n_points = len(means)
    skipped_frac = len(parsed.warnings) / max(parsed.n_total_rows, 1)
    stm = cfg.new_map(TriGrid.triangle(cfg.depth))
    t0 = time.perf_counter()
    report = incremental_update(stm, MeasurementBatch(means, covs, np.arange(n_points)))
    elapsed = time.perf_counter() - t0
    n_outside, n_rejected = report.n_skipped_outside, sum(report.n_rejected.values())
    n_used = n_points - n_outside - n_rejected
    per_meas_ms = 1e3 * elapsed / max(n_used, 1)
    print(f"ingested {n_used} of {n_points} points "
          f"({len(parsed.warnings)} rows skipped, {n_outside} outside the submap, "
          f"{n_rejected} rejected by the map); "
          f"update time {per_meas_ms:.3f} ms/measurement")

    export_ply(stm, args.out + ".ply")
    export_map_json(stm, args.out + ".map.json")

    if skipped_frac > 0.10:
        print(f"error: {100 * skipped_frac:.1f}% of rows were unparseable",
              file=sys.stderr)
        return 4
    return 0 if report.converged else 3


# pinned emulation cases, one per sensor: planar truth, model-matched deviation scatter
_ORACLE_CASES = {
    "stereo": {"n": 100, "nu_true": 0.15, "seed": 10},
    "lidar": {"n": 10, "nu_true": 0.02, "seed": 20},
}


def make_emulation_case(name: str) -> list[Measurement]:
    """Measurements from a fixed plane with genuine planar-deviation scatter, in the named sensor's noise."""
    spec, noise = _ORACLE_CASES[name], SENSORS[name]
    rng = np.random.default_rng(spec["seed"])
    out = []
    for i in range(spec["n"]):
        while True:
            a, b = rng.uniform(0.0, 1.0, 2)
            if a + b <= 1.0:
                break
        g = 0.1 + 0.2 * a - 0.1 * b + rng.normal(0.0, np.sqrt(spec["nu_true"]))
        cov = noise.draw_cov(rng)
        z = np.array([a, b, g]) + rng.multivariate_normal(np.zeros(3), cov)
        out.append(Measurement(z, cov, i))
    return out


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    measurements = make_emulation_case(args.case)
    stm = cfg.new_map(TriGrid.triangle(0))
    incremental_update(stm, measurements)

    chain_cfg = ChainConfig(seed=cfg.seed + 1)
    try:
        result = run_mh(measurements, stm.prior, chain_cfg)
    except AdaptationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    report = compare_marginals(result, stm.surfels[0])
    _write_json(args.out + ".json", {"case": args.case, "acceptance": result.acceptance, "variables": report})
    write_manifest(args.out, f"oracle --case {args.case}", cfg)
    for name, row in report.items():
        print(f"{name}: chain {row['mh_mean']:+.5f} +- {row['mh_std']:.5f}, "
              f"belief {row['belief_mean']:+.5f} +- {row['belief_std']:.5f}, "
              f"standardized discrepancy {row['std_mean_discrepancy']:.3f}")
    return 0


def main(argv: list[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stm", description="Stochastic triangular mesh terrain mapping"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="default")
    common.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="run a synthetic experiment")
    p_sim.add_argument("--scenario", required=True, choices=[*MIN_STEPS, "accuracy2d", "accuracy3d"])

    p_build = sub.add_parser("build", parents=[common], help="build a map from a points file")
    p_build.add_argument("--points", required=True)
    frame = p_build.add_mutually_exclusive_group(required=True)
    frame.add_argument("--landmarks")
    frame.add_argument("--global-frame", metavar="X0,Y0,X1,Y1")
    p_build.add_argument("--depth", type=int, default=None)

    p_oracle = sub.add_parser("oracle", parents=[common], help="validate beliefs against MCMC")
    p_oracle.add_argument("--case", required=True, choices=list(_ORACLE_CASES))

    args = parser.parse_args(argv)
    try:
        return {"simulate": _cmd_simulate, "build": _cmd_build, "oracle": _cmd_oracle}[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
