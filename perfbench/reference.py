"""Independent references and output checks.

Nothing here calls the program's mapping code: the checks read the files
the program wrote (PLY, map JSON) or the arrays it returned, and compare
them with references computed from the benchmark's own truth, or with
properties the method must have. Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .inputs import lattice_triangles

A_P = 1.0  # PriorConfig().a_p, the prior inverse-gamma shape every workload uses
MSE_LIMIT_STEREO = 0.01  # m^2: (10 cm)^2, the stereo range noise at the far corner
MSE_LIMIT_LIDAR = 0.002  # m^2: (4.5 cm)^2, several times the lidar's 1 cm range noise


# ---------------------------------------------------------------------------
# reading the program's files


def read_ply(path: str) -> dict:
    """ASCII PLY as written by ``stm build``: vertices x, y, z, std; faces ids, deviation, n_meas."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    end = lines.index("end_header")
    header = lines[:end]
    nv = int(next(l for l in header if l.startswith("element vertex")).split()[-1])
    nf = int(next(l for l in header if l.startswith("element face")).split()[-1])
    body = lines[end + 1:]
    verts = np.array([[float(v) for v in l.split()] for l in body[:nv]]).reshape(nv, -1)
    faces = [l.split() for l in body[nv:nv + nf]]
    return {
        "n_vertex": nv,
        "n_face": nf,
        "vertex": verts,
        "face_ids": np.array([[int(v) for v in f[1:4]] for f in faces]).reshape(nf, 3),
        "face_props": np.array([[float(v) for v in f[4:]] for f in faces]).reshape(nf, -1),
        "trailing": body[nv + nf:],
    }


def read_map_json(path: str) -> dict:
    """Per-surfel arrays from the ``.map.json`` belief dump."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    s = doc["surfels"]
    return {
        "depth": doc["grid"]["depth"],
        "vertex_ids": np.array([x["vertex_ids"] for x in s], dtype=int).reshape(len(s), 3),
        "xi": np.array([x["height_xi"] for x in s], dtype=float).reshape(len(s), 3),
        "omega": np.array([x["height_omega"] for x in s], dtype=float).reshape(len(s), 3, 3),
        "exponent": np.array([x["deviation_exponent"] for x in s], dtype=float),
        "scale": np.array([x["deviation_scale"] for x in s], dtype=float),
        "n_meas": np.array([x["n_meas"] for x in s], dtype=int),
    }


# ---------------------------------------------------------------------------
# lattice geometry, written from the grid's definition


def inside_submap(ab: np.ndarray) -> np.ndarray:
    a, b = ab[:, 0], ab[:, 1]
    return (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0) & (a + b <= 1.0)


def face_index(ab: np.ndarray, depth: int) -> np.ndarray:
    """Index of the element holding each inside point, in lattice order.

    Row r of a width-n lattice starts at element 2 n r - r^2 and alternates
    up (even) and down (odd) triangles; points on a shared edge go to the
    up element, as the grid defines.
    """
    n = 2**depth
    x, y = ab[:, 0] * n, ab[:, 1] * n
    r = np.minimum(y.astype(int), n - 1)
    j = np.minimum(x.astype(int), n - r - 1)
    down = (x - j) + (y - r) > 1.0
    return 2 * n * r - r * r + 2 * j + down


def surfel_means(m: dict) -> np.ndarray:
    """(S, 3) mean vertex heights of every surfel belief: omega^-1 xi."""
    return np.linalg.solve(m["omega"], m["xi"][..., None])[..., 0]


def mesh_heights(m: dict, ab: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Height of each surfel's mean plane at ab, by barycentric interpolation."""
    mu = surfel_means(m)[faces]
    p = lattice_triangles(m["depth"])[faces]  # (n, 3, 2): v0, v_alpha, v_beta
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # (n, 2, 2)
    w = np.linalg.solve(e, (ab - p[:, 0])[..., None])[..., 0]
    return (1.0 - w[:, 0] - w[:, 1]) * mu[:, 0] + w[:, 0] * mu[:, 1] + w[:, 1] * mu[:, 2]


def elevation_reference(faces: np.ndarray, gamma: np.ndarray, var: np.ndarray, n_faces: int):
    """Per-cell inverse-variance mean of measured heights: (mean, observed)."""
    w = np.bincount(faces, weights=1.0 / var, minlength=n_faces)
    wz = np.bincount(faces, weights=gamma / var, minlength=n_faces)
    observed = w > 0
    mean = np.zeros(n_faces)
    mean[observed] = wz[observed] / w[observed]
    return mean, observed


# ---------------------------------------------------------------------------
# checks


def check_ply(ply: dict, depth: int) -> list[str]:
    n = 2**depth
    errs = []
    if ply["n_vertex"] != (n + 1) * (n + 2) // 2:
        errs.append(f"PLY has {ply['n_vertex']} vertices, expected {(n + 1) * (n + 2) // 2}")
    if ply["n_face"] != 4**depth:
        errs.append(f"PLY has {ply['n_face']} faces, expected {4**depth}")
    if ply["vertex"].shape != (ply["n_vertex"], 4) or ply["face_props"].shape != (ply["n_face"], 2):
        errs.append("PLY rows have the wrong number of values")
    elif not np.allclose(ply["vertex"][ply["face_ids"], :2], lattice_triangles(depth), atol=1e-7):
        errs.append("PLY faces are not the lattice elements in lattice order")
    if ply["trailing"]:
        errs.append(f"PLY has {len(ply['trailing'])} lines after its elements")
    for key in ("vertex", "face_props"):
        if not np.all(np.isfinite(ply[key])):
            errs.append(f"PLY {key} values are not all finite")
    return errs


def check_map_consistency(ply: dict, m: dict) -> list[str]:
    """The PLY and the JSON describe one map.

    Same faces in the same order, the face n_meas equal the surfel n_meas,
    and every PLY vertex height is the inverse-variance fusion of the
    per-surfel marginal means at that vertex (printed to 8 digits).
    """
    errs = []
    if not np.array_equal(ply["face_ids"], m["vertex_ids"]):
        return ["PLY faces and JSON surfels name different vertices"]
    if not np.array_equal(ply["face_props"][:, 1].astype(int), m["n_meas"]):
        errs.append("PLY face n_meas differ from JSON n_meas")
    cov = np.linalg.inv(m["omega"])
    mu = np.einsum("sij,sj->si", cov, m["xi"])
    var = np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1e-300)
    ids = m["vertex_ids"].ravel()
    nv = ply["n_vertex"]
    w = np.bincount(ids, weights=(1.0 / var).ravel(), minlength=nv)
    wm = np.bincount(ids, weights=(mu / var).ravel(), minlength=nv)
    fused = np.divide(wm, w, out=np.zeros(nv), where=w > 0)
    z = ply["vertex"][:, 2]
    bad = np.abs(z - fused) > 1e-6 * (1.0 + np.abs(fused))
    if bad.any():
        errs.append(f"{int(bad.sum())} PLY vertex heights differ from the fused surfel marginals")
    return errs


def check_shape_bookkeeping(m: dict) -> list[str]:
    """Deviation exponent = a_p + 1 + n_meas / 2 exactly, on every surfel."""
    want = A_P + 1.0 + 0.5 * m["n_meas"]
    bad = np.flatnonzero(m["exponent"] != want)
    if bad.size:
        s = int(bad[0])
        return [f"{bad.size} surfels break the shape bookkeeping, e.g. surfel {s}: "
                f"exponent {m['exponent'][s]!r}, n_meas {m['n_meas'][s]}"]
    return []


def check_counts(m: dict, expected: np.ndarray) -> list[str]:
    """Per-surfel n_meas equal the benchmark's own association of the inputs."""
    errs = []
    if int(m["n_meas"].sum()) != int(expected.sum()):
        errs.append(f"map holds {int(m['n_meas'].sum())} measurements, "
                    f"{int(expected.sum())} generated points lie in the submap")
    elif not np.array_equal(m["n_meas"], expected):
        errs.append(f"{int((m['n_meas'] != expected).sum())} surfels hold a different "
                    "number of measurements than lie in them")
    return errs


def _mse(pred, truth) -> float:
    return float(np.mean((np.asarray(pred) - truth) ** 2)) if len(truth) else math.inf


def check_mesh_accuracy(m: dict, eval_set, limit: float, notes: dict) -> list[str]:
    """Mesh MSE against the truth, at evaluation points both maps have observed.

    eval_set is (points, their faces, truth heights, elevation-map means,
    elevation-map observed flags); the MSE figures go into notes.
    """
    ab, faces, truth, elev_mean, elev_obs = eval_set
    keep = elev_obs[faces] & (m["n_meas"][faces] > 0)
    ab, faces, truth = ab[keep], faces[keep], truth[keep]
    mse_mesh = _mse(mesh_heights(m, ab, faces), truth)
    mse_elev = _mse(elev_mean[faces], truth)
    notes["mse_mesh"], notes["mse_elevation"], notes["eval_points"] = mse_mesh, mse_elev, int(keep.sum())
    errs = []
    if not math.isfinite(mse_mesh) or mse_mesh >= limit:
        errs.append(f"mesh MSE {mse_mesh:.3g} m^2 is not below {limit:g}")
    if not mse_mesh < mse_elev:
        errs.append(f"mesh MSE {mse_mesh:.3g} is not below the elevation-map MSE {mse_elev:.3g}")
    return errs


def check_map_files(prefix: str, depth: int, expected_counts, eval_set, limit: float, notes: dict) -> list[str]:
    """Every check on one exported map: ``prefix``.ply and ``prefix``.map.json."""
    ply = read_ply(prefix + ".ply")
    m = read_map_json(prefix + ".map.json")
    errs = check_ply(ply, depth)
    errs += check_map_consistency(ply, m)
    errs += check_shape_bookkeeping(m)
    errs += check_counts(m, expected_counts)
    if errs:
        return errs
    return check_mesh_accuracy(m, eval_set, limit, notes)


def check_finite(**arrays) -> list[str]:
    return [f"{k} is not all finite" for k, v in arrays.items() if not np.all(np.isfinite(v))]


def belief_marginals(xi, omega, exponent: float, scale: float):
    """(means, stds) of (h0, h_alpha, h_beta, nu) under a surfel belief.

    The inverse-gamma with density ~ nu^-exponent exp(-scale / nu) has
    shape a = exponent - 1, mean b / (a - 1), variance b^2 / ((a-1)^2 (a-2)).
    """
    cov = np.linalg.inv(omega)
    mu = cov @ xi
    a, b = exponent - 1.0, scale
    means = [*mu, b / (a - 1.0)]
    stds = [*np.sqrt(np.diag(cov)), b / ((a - 1.0) * math.sqrt(a - 2.0))]
    return np.array(means), np.array(stds)


def check_chain(h: np.ndarray, nu: np.ndarray, kept: int, bel_mean, bel_std) -> tuple[list[str], float, float]:
    """Chain length and agreement with the belief: |mean gap| < 0.5 MH stds, std ratio in [0.5, 2].

    Returns (failures, worst mean gap in MH stds, std ratio furthest from 1).
    """
    errs = []
    if h.shape != (kept, 3) or nu.shape != (kept,):
        errs.append(f"chain kept {h.shape} heights and {nu.shape} deviations, expected {kept}")
        return errs, math.inf, math.inf
    x = np.column_stack([h, nu])
    if not np.all(np.isfinite(x)):
        return ["chain samples are not all finite"], math.inf, math.inf
    sd = x.std(axis=0, ddof=1)
    gap = np.abs(x.mean(axis=0) - bel_mean) / sd
    ratio = bel_std / sd
    worst_ratio = float(ratio[np.argmax(np.abs(np.log(ratio)))])
    if not np.all(gap < 0.5):
        errs.append(f"mean gaps {np.round(gap, 3).tolist()} MH stds, bound 0.5")
    if not np.all((ratio >= 0.5) & (ratio <= 2.0)):
        errs.append(f"std ratios {np.round(ratio, 3).tolist()}, bounds [0.5, 2]")
    return errs, float(gap.max()), worst_ratio
