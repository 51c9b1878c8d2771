"""Digests of the public outputs of `stmmap`: one `name sha256` line per output.

    python tests/digest.py [--quick] [--only SECTION ...] [--against DIR]

Run from the root of a checkout. The inputs come from this checkout's
`perfbench/inputs.py`, so two trees compared here see the same bytes. Only
what the public API exposes is read, so a refactor of the map's internal
state stays checkable:

- build: `stm build` on the `build_dense_stereo` input, seeds 1 and 2: the
  `.map.json`, the `.ply`, the manifest without its versions, the exit code
  and the summary line without its timing;
- stream: one `stream_lidar_d7` round, seeds 1 and 2: every report field
  after every batch, and `query_map`'s arrays and the exported map after
  every tenth batch and the last;
- emulation: both emulation cases at kl 1e-7, as report and `.map.json`;
- simulate: `stm simulate`, all four scenarios on a small config;
- mh: `run_mh` on both emulation cases (20,000 iterations, seed 11) and one
  `exact_log_joint` value each.

`--quick` shrinks every section. `--against DIR` runs the same script in a
subprocess that imports `stmmap` from `DIR/src`, and prints only the lines
that differ, as `name DIR-digest this-digest`; it exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _file(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _manifest(path: str) -> str:
    import json

    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("versions")
    return _sha(json.dumps(doc, sort_keys=True))


def _report(rep) -> tuple:
    return (rep.converged, rep.sweeps, rep.messages, rep.n_measurements, rep.n_skipped_outside,
            list(rep.n_rejected.items()), rep.active_per_sweep, list(rep.fallbacks.items()))


def _map(stm, prefix: str):
    """Digests of `query_map`'s arrays and of both exports of a map."""
    from stmmap import cli, mapgraph

    q = mapgraph.query_map(stm)
    cli.export_map_json(stm, prefix + ".map.json")
    cli.export_ply(stm, prefix + ".ply")
    yield "query", _sha(*(getattr(q, f).tobytes() for f in q.__dataclass_fields__))
    yield "map.json", _file(prefix + ".map.json")
    yield "ply", _file(prefix + ".ply")


def build(quick: bool, work: str):
    from perfbench import inputs
    from stmmap import cli

    depth = 3 if quick else 4
    for seed in SEEDS:
        csv = os.path.join(work, f"points{seed}.csv")
        inputs.write_points_csv(csv, inputs.stereo_scan(seed, depth, 10)[1])
        prefix = os.path.join(work, f"build{seed}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["build", "--points", csv, "--depth", str(depth), "--out", prefix,
                             "--global-frame", f"0,0,{inputs.SIDE!r},{inputs.SIDE!r}"])
        name = f"build/seed{seed}/"
        yield name + "exit", _sha(code, out.getvalue().split("update time")[0])
        yield name + "map.json", _file(prefix + ".map.json")
        yield name + "ply", _file(prefix + ".ply")
        yield name + "manifest", _manifest(prefix + ".manifest.json")


def stream(quick: bool, work: str):
    from perfbench import inputs
    from stmmap import mapgraph
    from stmmap.geometry import TriGrid
    from stmmap.surfel import MeasurementBatch

    depth, n_out = (5, 8) if quick else (7, 30)
    for seed in SEEDS:
        surface = inputs.stream_surface(seed)
        stm = mapgraph.STMMap(TriGrid.triangle(depth), mapgraph.PriorConfig(),
                              convergence=mapgraph.ConvergenceConfig(kl_threshold=0.1))
        scans = inputs.lidar_leg(seed, surface, n_out, 16)
        reports = []
        for k, scan in enumerate(scans, start=1):
            means, covs = inputs.to_submap(scan)
            reports.append(_report(mapgraph.incremental_update(stm, MeasurementBatch(means, covs, range(16)))))
            if k % 10 == 0 or k == len(scans):
                for name, d in _map(stm, os.path.join(work, "stream")):
                    yield f"stream/seed{seed}/{name}@{k}", d
        yield f"stream/seed{seed}/reports", _sha(reports)


def emulation(quick: bool, work: str):
    from stmmap import cli, mapgraph
    from stmmap.geometry import TriGrid

    for case in ("stereo", "lidar"):
        stm = mapgraph.STMMap(TriGrid.triangle(0), mapgraph.PriorConfig(),
                              convergence=mapgraph.ConvergenceConfig(kl_threshold=1e-7, max_sweeps=500))
        rep = mapgraph.incremental_update(stm, cli.make_emulation_case(case))
        yield f"emulation/{case}/report", _sha(_report(rep))
        cli.export_map_json(stm, os.path.join(work, "emulation.map.json"))
        yield f"emulation/{case}/map.json", _file(os.path.join(work, "emulation.map.json"))


def simulate(quick: bool, work: str):
    from stmmap import cli

    config = os.path.join(work, "small.ini")
    with open(config, "w") as fh:
        fh.write(f"[map]\ndepth = {2 if quick else 3}\n[scenario]\nsteps = 3\ndensity = 3\nn_eval = 200\n")
    scenarios = ("pushbroom", "reobserve", "accuracy2d") + (() if quick else ("accuracy3d",))
    for scenario in scenarios:
        prefix = os.path.join(work, scenario)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--scenario", scenario, "--config", config, "--out", prefix])
        yield f"simulate/{scenario}/exit", _sha(code)
        yield f"simulate/{scenario}/manifest", _manifest(prefix + ".manifest.json")
        for ext in (".csv", ".json", ".ply", ".map.json"):
            if os.path.exists(prefix + ext):
                yield f"simulate/{scenario}/{ext[1:]}", _file(prefix + ext)


def mh(quick: bool, work: str):
    import numpy as np

    from stmmap import cli, oracle
    from stmmap.mapgraph import PriorConfig

    for case in ("stereo", "lidar"):
        meas = cli.make_emulation_case(case)
        n, interval = (4_000, 200) if quick else (20_000, 500)
        config = oracle.ChainConfig(n_samples=n, adapt_interval=interval, seed=11)
        r = oracle.run_mh(meas, PriorConfig(), config)
        yield f"mh/{case}/chain", _sha(r.h_samples.tobytes(), r.nu_samples.tobytes(),
                                       sorted(r.acceptance.items()), sorted(r.proposal_stds.items()))
        m_points = np.array([m.mean for m in meas])
        value = oracle.exact_log_joint(np.array([0.1, 0.2, 0.05]), 0.05, m_points, meas, PriorConfig())
        yield f"mh/{case}/exact_log_joint", _sha(value)


SECTIONS = {f.__name__: f for f in (build, stream, emulation, simulate, mh)}


def digests(sections=tuple(SECTIONS), quick: bool = False) -> dict[str, str]:
    """name -> sha256 of every output of the given sections, in order."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)  # for perfbench.inputs
    with tempfile.TemporaryDirectory() as work:
        return {name: d for s in sections for name, d in SECTIONS[s](quick, work)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--quick", action="store_true", help="smaller inputs in every section")
    p.add_argument("--only", nargs="+", choices=list(SECTIONS), default=list(SECTIONS))
    p.add_argument("--against", metavar="DIR", help="a checkout whose src/ to compare with")
    p.add_argument("--src", help=argparse.SUPPRESS)  # import stmmap from here (the --against child)
    args = p.parse_args(argv)
    if args.src:
        sys.path.insert(0, args.src)
    elif args.against:
        flags = ["--only", *args.only] + (["--quick"] if args.quick else [])
        theirs, ours = _children([["--src", os.path.join(os.path.abspath(args.against), "src")], []], flags)
        differ = [n for n in {**theirs, **ours} if theirs.get(n) != ours.get(n)]
        for n in differ:
            print(n, theirs.get(n, "-"), ours.get(n, "-"))
        return 1 if differ else 0
    else:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    for name, d in digests(args.only, args.quick).items():
        print(name, d)
    return 0


def _children(extra: list[list[str]], flags: list[str]) -> list[dict[str, str]]:
    """The digests printed by one run of this script per entry of extra, run side by side."""
    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), *e, *flags],
                              stdout=subprocess.PIPE, text=True) for e in extra]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise RuntimeError("a digest run failed")
    return [dict(line.split() for line in out.splitlines()) for out in outs]


if __name__ == "__main__":
    sys.exit(main())
