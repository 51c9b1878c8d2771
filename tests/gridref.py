"""The grid and sepset topology built as lists, as the map once stored it:
references for `TriGrid`, `enforce_rip` and `STMMap.links`, which compute
the same from lattice positions."""

from collections import Counter, namedtuple

import numpy as np

# One grid element as a (sid, up, row, col, vertex_ids) tuple.
RefSurfel = namedtuple("RefSurfel", "sid up row col vertex_ids")


def reference_grid(n: int, rows: int) -> tuple[list, list, np.ndarray]:
    """(surfels, adjacency, vertex_coords) of a width-n grid of `rows` rows."""
    vertex_id: dict[tuple[int, int], int] = {}
    coords = []
    for r in range(rows + 1):
        for c in range(n - r + 1):
            vertex_id[(r, c)] = len(coords)
            coords.append((c / n, r / n))

    row_offset = []
    off = 0
    for r in range(rows):
        row_offset.append(off)
        off += 2 * (n - r) - 1

    surfels = []
    for r in range(rows):
        for t in range(2 * (n - r) - 1):
            j, up = divmod(t, 2)
            up = up == 0
            if up:
                trip = ((r, j), (r, j + 1), (r + 1, j))
            else:
                trip = ((r + 1, j + 1), (r + 1, j), (r, j + 1))
            surfels.append(RefSurfel(row_offset[r] + t, up, r, j, tuple(vertex_id[v] for v in trip)))

    adjacency = []

    def add_edge(s1: int, s2: int):
        a, b = sorted((s1, s2))
        shared = tuple(sorted(set(surfels[a].vertex_ids) & set(surfels[b].vertex_ids)))
        assert len(shared) == 2
        adjacency.append((a, b, shared))

    for s in surfels:
        if s.up:
            continue
        r, j = s.row, s.col
        add_edge(s.sid, row_offset[r] + 2 * j)  # diagonal
        if 2 * j + 2 <= 2 * (n - r) - 2:
            add_edge(s.sid, row_offset[r] + 2 * j + 2)  # vertical
        if r + 1 < rows:
            add_edge(s.sid, row_offset[r + 1] + 2 * j)  # horizontal
    return surfels, adjacency, np.array(coords)


def reference_rip_scopes(surfels: list, adjacency: list) -> list[tuple]:
    """Each vertex whose surfels form a cycle drops itself from the cycle's
    last edge in (low surfel id, high surfel id) order."""
    n_incident = Counter(v for s in surfels for v in s.vertex_ids)
    by_vertex: dict[int, list[int]] = {}
    for idx, (_, _, shared) in enumerate(adjacency):
        for v in shared:
            by_vertex.setdefault(v, []).append(idx)
    keep = [list(shared) for (_, _, shared) in adjacency]
    for v, edge_ids in by_vertex.items():
        if len(edge_ids) == n_incident[v]:
            keep[max(edge_ids, key=lambda i: adjacency[i][:2])].remove(v)
    return [tuple(k) for k in keep]


def reference_links(surfels: list, adjacency: list, scopes: list) -> list[list[tuple]]:
    """(neighbour, variables, their positions in the surfel) of the sepsets
    with a variable at each surfel, in adjacency order."""
    links = [[] for _ in surfels]
    for (a, b, _), variables in zip(adjacency, scopes):
        if variables:
            for s, other in ((a, b), (b, a)):
                links[s].append((other, variables, tuple(surfels[s].vertex_ids.index(v) for v in variables)))
    return links


def reference_element_frames(n: int, surfels: list, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, v0) of every element, from its stored orientation and vertex."""
    a, v0 = np.zeros((len(surfels), 3, 3)), np.zeros((len(surfels), 3))
    a[:, 0, 0] = a[:, 1, 1] = [n if s.up else -n for s in surfels]
    a[:, 2, 2] = 1.0
    v0[:, :2] = coords[[s.vertex_ids[0] for s in surfels]]
    return a, v0
