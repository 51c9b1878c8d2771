"""Per-point references for the batched measurement path, which must match
them bit for bit: association by the scalar `TriGrid.locate`, one element
affine map and one `np.linalg.inv` per point, and the cluster floats each
point seeds."""

import numpy as np

from stmmap.geometry import OutsideSubmap
from stmmap.surfel import ALPHA_BETA_PRIOR_VAR, Measurement, cluster_rows, init_likelihood_cluster


def one_cluster(m: Measurement, nu_scale: float, batch: int = 0):
    """The likelihood cluster of one measurement in element coordinates."""
    row = cluster_rows(m.mean[None], m.cov[None], np.linalg.inv(m.cov)[None])[0]
    return init_likelihood_cluster(row, nu_scale, batch)


def reference_element_affine(grid, sid: int):
    """(A, v0) of an element, built as a diagonal matrix and a vertex."""
    scale = float(grid.n) if grid.cell(sid)[2] else -float(grid.n)
    return np.diag([scale, scale, 1.0]), np.array([*grid.vertex_coords[grid.vertex_ids(sid)[0]], 0.0])


def reference_associate(grid, batch: list[Measurement]) -> tuple[dict, int, int]:
    """Measurements by surfel, in the order of first sight, in element
    coordinates and paired with the inverse of their covariance there; also
    the counts of those outside the submap and of those without an LU inverse."""
    per_surfel: dict[int, list[tuple[Measurement, np.ndarray]]] = {}
    skipped = singular = 0
    for m in batch:
        try:
            sid = grid.locate(float(m.mean[0]), float(m.mean[1]))
        except OutsideSubmap:
            skipped += 1
            continue
        a, v0 = reference_element_affine(grid, sid)
        cov = a @ (0.5 * (m.cov + m.cov.T)) @ a.T
        cov = 0.5 * (cov + cov.T)
        try:
            cov_inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError:
            singular += 1
            continue
        per_surfel.setdefault(sid, []).append((Measurement(a @ (m.mean - v0), cov, m.id), cov_inv))
    return per_surfel, skipped, singular


def reference_row(m: Measurement, cov_inv: np.ndarray) -> tuple:
    """The mean, covariance upper triangle and point information a cluster keeps."""
    point_omega = cov_inv + np.diag([1.0 / ALPHA_BETA_PRIOR_VAR] * 2 + [0.0])
    (o00, o01, o02), (o10, o11, o12), (o20, o21, o22) = point_omega.tolist()
    info = (o00, 0.5 * (o01 + o10), 0.5 * (o02 + o20), o11, 0.5 * (o12 + o21), o22,
            *(point_omega @ m.mean).tolist())
    r = m.cov.tolist()
    return (*m.mean.tolist(),), (*r[0], *r[1][1:], r[2][2]), info
