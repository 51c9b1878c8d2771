"""Quick tests of the benchmark: every workload at small size, and every
check shown to reject a deliberately corrupted output.

Run from the root of the checkout: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference, run as bench
from perfbench.workloads import WORKLOADS, BuildDenseStereo, OracleMH, Run, StreamLidarD7

ROOT = Path(__file__).resolve().parents[1]


def _quick(name: str, trace: bool) -> dict:
    out = bench.measure(name, seed=7, seconds=0, trace=trace, size="quick")
    assert out["errors"] == []
    return out["result"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_its_checks(name, trace):
    res = _quick(name, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(res["metrics"]) == list(names)
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9


def test_traced_counts_repeat():
    a = _quick("stream_lidar_d7", True)["metrics"]
    b = _quick("stream_lidar_d7", True)["metrics"]
    counts = [k for k, m in a.items() if m["unit"] == "count"]
    assert counts and all(a[k]["value"] == b[k]["value"] for k in counts)


def test_without_the_program_it_exits_nonzero_and_prints_no_result():
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_mh", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# corrupted outputs


def _built_map(tmp: Path):
    wl = BuildDenseStereo(3, "quick", str(tmp))
    run = Run(seconds=None, rounds=1)
    wl.execute(run, str(tmp))
    prefix, code = run.outputs[0]
    assert code == 0
    return wl, prefix


def _file_checks(wl, prefix) -> list[str]:
    return reference.check_map_files(prefix, wl.depth, wl.expected_counts, wl.eval_set, wl.mse_limit, {})


def _edit_json(prefix, edit):
    path = prefix + ".map.json"
    doc = json.loads(Path(path).read_text())
    edit(doc["surfels"])
    Path(path).write_text(json.dumps(doc))


def _edit_ply_vertex(prefix, row: int, col: int, value):
    path = Path(prefix + ".ply")
    lines = path.read_text().splitlines()
    start = lines.index("end_header") + 1
    vals = lines[start + row].split()
    vals[col] = value(vals[col])
    lines[start + row] = " ".join(vals)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def built(request):
    tmp = bench.WORK / "corrupt" / request.node.name
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    wl, prefix = _built_map(tmp)
    assert _file_checks(wl, prefix) == []
    return wl, prefix


def test_rejects_shifted_deviation_exponent(built):
    wl, prefix = built

    def edit(surfels):
        surfels[5]["deviation_exponent"] += 0.5

    _edit_json(prefix, edit)
    assert any("shape bookkeeping" in e for e in _file_checks(wl, prefix))


def test_rejects_dropped_measurement(built):
    wl, prefix = built

    def edit(surfels):  # one measurement fewer, with the bookkeeping kept consistent
        surfels[2]["n_meas"] -= 1
        surfels[2]["deviation_exponent"] -= 0.5

    _edit_json(prefix, edit)
    assert any("generated points lie in the submap" in e for e in reference.check_counts(
        reference.read_map_json(prefix + ".map.json"), wl.expected_counts))


def test_rejects_perturbed_vertex_height(built):
    wl, prefix = built
    _edit_ply_vertex(prefix, 4, 2, lambda v: repr(float(v) + 0.01))
    assert any("vertex heights differ" in e for e in _file_checks(wl, prefix))


def test_rejects_non_finite_ply_value(built):
    wl, prefix = built
    _edit_ply_vertex(prefix, 1, 3, lambda v: "nan")
    assert any("not all finite" in e for e in _file_checks(wl, prefix))


def test_rejects_inaccurate_mesh(built):
    wl, prefix = built
    m = reference.read_map_json(prefix + ".map.json")
    assert reference.check_mesh_accuracy(m, wl.eval_set, wl.mse_limit, {}) == []
    m["xi"] = m["xi"] + np.einsum("sij,j->si", m["omega"], np.full(3, 0.2))  # heights + 20 cm
    errs = reference.check_mesh_accuracy(m, wl.eval_set, wl.mse_limit, {})
    assert any("elevation-map MSE" in e for e in errs)


def test_rejects_wrong_face_layout(built):
    wl, prefix = built
    ply = reference.read_ply(prefix + ".ply")
    ply["face_ids"] = ply["face_ids"][::-1]
    assert any("lattice order" in e for e in reference.check_ply(ply, wl.depth))


def _stream_run(tmp: Path):
    wl = StreamLidarD7(5, "quick", str(tmp))
    run = Run(seconds=None, rounds=1)
    wl.execute(run, str(tmp))
    return wl, run


def test_stream_rejects_bad_reports_and_non_finite_queries():
    tmp = bench.WORK / "corrupt" / "stream"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    wl, run = _stream_run(tmp)
    reports = run.outputs["reports"]
    op, rep = reports[3]
    reports[3] = (op, replace(rep, converged=False))
    op, rep = reports[4]
    reports[4] = (op, replace(rep, n_skipped_outside=rep.n_skipped_outside + 1))
    run.outputs["query"].vertex_mean[7] = np.nan
    wl.verify(run)
    assert run.failed_ops[3] and run.failed_ops[4] and run.failed_ops[-1]
    assert run.failed == 3
    text = " | ".join(run.errors)
    assert "did not converge" in text and "skipped" in text and "vertex_mean is not all finite" in text


def test_oracle_rejects_corrupted_chains():
    wl = OracleMH(2, "quick", "")
    run = Run(seconds=None, rounds=1)
    wl.execute(run, "")
    wl.verify(run)
    assert run.failed == 0
    (op, spec, belief, result, compared), = run.outputs["chains"]

    def check(h, nu, cmp=compared):
        return wl._check_chain(spec, belief, replace(result, h_samples=h, nu_samples=nu), cmp, {})

    h, nu = result.h_samples, result.nu_samples
    assert check(h, nu) == []
    assert any("expected" in e for e in check(h[1:], nu[1:]))
    assert any("mean gaps" in e for e in check(h, nu + 1.0 * nu.std()))
    assert any("std ratios" in e for e in check(h, nu.mean() + 3.0 * (nu - nu.mean())))
    wrong = {k: dict(v, std_mean_discrepancy=v["std_mean_discrepancy"] + 0.1) for k, v in compared.items()}
    assert any("compare_marginals" in e for e in check(h, nu, wrong))
