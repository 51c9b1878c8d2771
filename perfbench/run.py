"""Benchmark of the stmmap terrain-mapping package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Workloads: build_dense_stereo, stream_lidar_d7, oracle_mh (see README.md).
The package is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result. With ``--trace 0`` the
last line of output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# One process on one BLAS thread: the load is single-threaded by design.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "update_ms_per_meas": "ms",
    "peak_rss_mib": "MiB",
}

_TIMED_LAYERS = [
    ("geometry.grid", "geometry.grid_s"), ("mapgraph.map_init", "mapgraph.map_init_s"),
    ("mapgraph.enforce_rip", "mapgraph.enforce_rip_s"), ("geometry.locate", "geometry.locate_s"),
    ("surfel.cluster_init", "surfel.cluster_init_s"), ("surfel.mean_plane", "surfel.mean_plane_s"),
    ("surfel.deviation", "surfel.deviation_s"), ("distributions.kl", "distributions.kl_s"),
    ("distributions.product", "distributions.product_s"), ("distributions.divide", "distributions.divide_s"),
    ("distributions.marginalize", "distributions.marginalize_s"),
    ("distributions.solve_psd", "distributions.solve_psd_s"), ("mapgraph.lbp", "mapgraph.lbp_s"),
    ("mapgraph.update", "mapgraph.fold_s"), ("mapgraph.inference", "mapgraph.inference_self_s"),
    ("mapgraph.query", "mapgraph.query_s"), ("cli.export_ply", "cli.export_ply_s"),
    ("cli.export_json", "cli.export_json_s"), ("cli.parse", "cli.parse_s"), ("oracle.mh", "oracle.mh_s"),
    ("oracle.compare", "oracle.compare_s"),
]
_COUNTS = [
    "geometry.locate_calls", "surfel.cluster_inits", "surfel.mean_plane_refits", "surfel.deviation_refits",
    "distributions.kl_calls", "distributions.product_calls", "distributions.divide_calls",
    "distributions.marginalize_calls", "distributions.solve_psd_calls", "mapgraph.update_calls",
    "mapgraph.sweeps", "mapgraph.messages", "mapgraph.lbp_messages", "cli.rows_parsed",
    "oracle.mh_iterations",
]
PER_LAYER = {
    **{metric: "s" for _, metric in _TIMED_LAYERS},
    **{name: "count" for name in _COUNTS},
    "surfel.refits_per_meas": "ratio",
    "mapgraph.update_p90_ms": "ms",
    "oracle.mh_iters_per_s": "1/s",
    "baseline.update_ms_per_meas": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "speed.probe_ms": "ms",
    "src_lines": "lines",
}


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src" / "stmmap").rglob("*.py")))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, traced, wall_untraced: float, untraced, baseline_ms: float) -> dict[str, float]:
    """Per-layer figures of one traced phase, plus what the untraced phase gives.

    Times are scaled to the reference speed like the end-to-end metrics,
    each phase by its own probes; walls leave out the time spent probing.
    """
    import numpy as np  # loaded here, after main() has pinned the BLAS threads

    f = traced.speed
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {metric: f * selfs.get(span, 0.0) for span, metric in _TIMED_LAYERS}
    out.update({name: counts[name] for name in _COUNTS})
    out["surfel.refits_per_meas"] = counts["surfel.mean_plane_refits"] / max(counts["mapgraph.meas_used"], 1)
    updates = untraced.clock.durations("mapgraph.update")
    out["mapgraph.update_p90_ms"] = untraced.speed * 1e3 * float(np.percentile(updates, 90)) if len(updates) else 0.0
    mh_s = f * float(tracer.durations("oracle.mh").sum())
    out["oracle.mh_iters_per_s"] = counts["oracle.mh_iterations"] / mh_s if mh_s > 0 else 0.0
    out["baseline.update_ms_per_meas"] = untraced.speed * baseline_ms
    wall_traced = tracer.wall - traced.probe_s
    out["trace.overhead_ratio"] = (f * wall_traced) / (untraced.speed * (wall_untraced - untraced.probe_s))
    out["trace.coverage"] = sum(selfs.values()) / wall_traced
    out["speed.probe_ms"] = float(np.median(traced.probes_ms))
    out["src_lines"] = src_lines()
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object (without printing it)."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Run

    cls = WORKLOADS[workload]
    work = WORK / workload / f"seed{seed}-{size}"
    for sub in ("untraced", "traced"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    wl = cls(seed, size, str(work))
    notes = {}
    if not trace:
        run = Run(seconds=seconds, rounds=wl.min_rounds)
        wl.execute(run, str(work / "untraced"))
        wl.verify(run)
        runs = [run]
        raw = {
            "setup_s": statistics.median(run.setup_s),
            "op_p50_ms": statistics.median(run.op_ms),
            "update_ms_per_meas": run.update_ms_per_meas,
        }
        metrics = {k: run.speed * v for k, v in raw.items()}
        metrics["peak_rss_mib"] = _peak_rss_mib()
        notes.update({f"raw {k}": v for k, v in raw.items()})
        notes["probe_ms median"] = statistics.median(run.probes_ms)
        units = END_TO_END
    else:
        plain = Run(seconds=None, rounds=wl.min_rounds)
        t = perf_counter()
        wl.execute(plain, str(work / "untraced"))
        wall = perf_counter() - t
        wl.verify(plain)
        baseline_ms = wl.baseline_ms_per_meas(plain)
        tracer = Tracer()
        traced = Run(seconds=None, rounds=wl.min_rounds)
        with tracer:
            wl.execute(traced, str(work / "traced"))
        wl.verify(traced)
        if plain.failed == 0 and traced.failed == 0 and wl.fingerprint(plain) != wl.fingerprint(traced):
            traced.fail(traced.attempted - 1, "tracing", ["traced outputs differ from untraced outputs"])
        tracer.save(str(work / "trace.npz"))
        runs = [plain, traced]
        metrics = layer_metrics(tracer, traced, wall, plain, baseline_ms)
        units = PER_LAYER
    for r in runs:
        notes.update(r.notes)
    result = {
        "correct": all(r.failed == 0 for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    errors = [e for r in runs for e in r.errors]
    return {"result": result, "errors": errors, "notes": notes}


def _print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def _run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced and then traced."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            res = json.loads(lines[-1])
            print(f"{name} (trace {trace}): correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            _print_table(res["metrics"])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            combined["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def _import_program() -> bool:
    """Put this checkout's src/ first on the path; False when the package is not there."""
    src = ROOT / "src"
    if not (src / "stmmap" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT), str(src)]
    import stmmap

    return Path(stmmap.__file__).resolve().is_relative_to(src.resolve())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build_dense_stereo", "stream_lidar_d7", "oracle_mh", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not _import_program():
        print(f"error: no stmmap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    res = out["result"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for e in out["errors"]:
        print(f"  FAILED {e}")
    for k, v in out["notes"].items():
        print(f"  note {k} = {v}")
    _print_table(res["metrics"])
    line = json.dumps(res)
    (WORK / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
