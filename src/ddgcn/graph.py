"""Skeleton topology and graph-convolution partition strategies.

A skeleton is a directed kinematic tree: edge (i, j) means joint j moves
around joint i (parent -> child). The adjacency matrix A has A[i, j] = 1
exactly for those edges; convolution neighborhoods are taken under A + I.
Partition labelings assign a subset index to every (root, neighbor) pair
of the undirected 1-hop neighborhood plus self, which drives kernel
weight sharing in the graph convolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

STRATEGIES = ("uniform", "distance", "spatial", "activity")


@dataclass(frozen=True)
class SkeletonTopology:
    """Directed kinematic tree over joints 0..num_joints-1."""

    num_joints: int
    edges: tuple[tuple[int, int], ...]
    root: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        v = self.num_joints
        if v < 1:
            raise ConfigError("num_joints must be positive")
        if not 0 <= self.root < v:
            raise ConfigError(f"root joint {self.root} out of range for {v} joints")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < v and 0 <= j < v):
                raise ConfigError(f"edge ({i}, {j}) references an invalid joint id")
            if i == j:
                raise ConfigError(f"self-edge at joint {i}")
            if (i, j) in seen or (j, i) in seen:
                raise ConfigError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if len(self.edges) != v - 1:
            raise ConfigError(f"a tree over {v} joints needs {v - 1} edges, got {len(self.edges)}")
        if self.names is not None and len(self.names) != v:
            raise ConfigError("names length must equal num_joints")
        # V-1 edges without duplicates form a tree iff the undirected graph is connected.
        reached = {0}
        frontier = [0]
        und = self.undirected_neighbors()
        while frontier:
            cur = frontier.pop()
            for nxt in und[cur]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        if len(reached) != v:
            raise ConfigError("edges do not form a connected tree")

    def undirected_neighbors(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_joints)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_joints, dtype=np.int64)
        for i, _ in self.edges:
            deg[i] += 1
        return deg

    def parent_of(self) -> np.ndarray:
        """Parent joint id per joint, -1 at the tree root of the edge set."""
        par = np.full(self.num_joints, -1, dtype=np.int64)
        for i, j in self.edges:
            par[j] = i
        return par

    def hops_to_root(self) -> np.ndarray:
        """Hop distance from every joint to the designated root (undirected BFS)."""
        dist = np.full(self.num_joints, -1, dtype=np.int64)
        dist[self.root] = 0
        queue = [self.root]
        und = self.undirected_neighbors()
        while queue:
            cur = queue.pop(0)
            for nxt in und[cur]:
                if dist[nxt] < 0:
                    dist[nxt] = dist[cur] + 1
                    queue.append(nxt)
        return dist


@dataclass(frozen=True)
class PartitionLabeling:
    """Subset index for every (root, neighbor) pair under the chosen strategy.

    ``labels`` is defined exactly on the pairs (i, j) with j in the
    undirected 1-hop neighborhood of i, plus (i, i).
    """

    strategy: str
    num_subsets: int
    labels: dict[tuple[int, int], int]

    def label_of(self, root: int, neighbor: int) -> int:
        return self.labels[(root, neighbor)]


def build_adjacency(topology: SkeletonTopology) -> np.ndarray:
    """V x V matrix with A[i, j] = 1 exactly for directed edges i -> j."""
    a = np.zeros((topology.num_joints, topology.num_joints), dtype=np.float64)
    for i, j in topology.edges:
        a[i, j] = 1.0
    return a


def _neighbor_pairs(topology: SkeletonTopology):
    """Yield (root, neighbor) over undirected 1-hop neighborhoods including self."""
    und = topology.undirected_neighbors()
    for i in range(topology.num_joints):
        yield i, i
        for j in und[i]:
            yield i, j


def uniform_partition(topology: SkeletonTopology) -> PartitionLabeling:
    labels = {pair: 0 for pair in _neighbor_pairs(topology)}
    return PartitionLabeling("uniform", 1, labels)


def distance_partition(topology: SkeletonTopology) -> PartitionLabeling:
    labels = {(i, j): (0 if i == j else 1) for i, j in _neighbor_pairs(topology)}
    return PartitionLabeling("distance", 2, labels)


def spatial_partition(topology: SkeletonTopology) -> PartitionLabeling:
    """Self / centripetal / centrifugal split, with hop distance to the
    designated root joint standing in for distance to the body barycenter."""
    hops = topology.hops_to_root()
    labels = {}
    for i, j in _neighbor_pairs(topology):
        if i == j:
            labels[(i, j)] = 0
        elif hops[j] < hops[i]:
            labels[(i, j)] = 1
        else:
            labels[(i, j)] = 2
    return PartitionLabeling("spatial", 3, labels)


def activity_partition(topology: SkeletonTopology) -> PartitionLabeling:
    """Subset by the neighbor's out-degree: 0 for leaves, 1 for single-child
    joints, 2 for joints driving two or more others."""
    deg = topology.out_degrees()
    labels = {}
    for i, j in _neighbor_pairs(topology):
        labels[(i, j)] = 0 if deg[j] == 0 else (1 if deg[j] == 1 else 2)
    return PartitionLabeling("activity", 3, labels)


_PARTITION_BUILDERS = {
    "uniform": uniform_partition,
    "distance": distance_partition,
    "spatial": spatial_partition,
    "activity": activity_partition,
}


def make_partition(topology: SkeletonTopology, strategy: str) -> PartitionLabeling:
    try:
        return _PARTITION_BUILDERS[strategy](topology)
    except KeyError:
        raise ConfigError(f"unknown partition strategy {strategy!r}; expected one of {STRATEGIES}")


def partition_adjacency(a: np.ndarray, labeling: PartitionLabeling, k: int) -> np.ndarray:
    """Entries of (A + I) whose pair label equals k; zero elsewhere.

    Summing over all k recovers A + I exactly.
    """
    if not 0 <= k < labeling.num_subsets:
        raise ValueError(f"subset index {k} out of range for {labeling.num_subsets} subsets")
    v = a.shape[0]
    full = a + np.eye(v)
    out = np.zeros_like(full)
    for i in range(v):
        for j in range(v):
            if full[i, j] != 0.0 and labeling.labels.get((i, j)) == k:
                out[i, j] = full[i, j]
    return out


def normalize_adjacency(a_k: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} A D^{-1/2} with row-sum degrees.

    Rows or columns whose degree is zero are mapped to zero (their D^{-1/2}
    entry is treated as 0, no epsilon).
    """
    deg = a_k.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[:, None] * a_k * inv_sqrt[None, :]


def masked_normalized_adjacency(topology: SkeletonTopology, labeling: PartitionLabeling) -> np.ndarray:
    """Per-subset normalized adjacency stack (K, V, V) used by the graph convolution."""
    a = build_adjacency(topology)
    return np.stack([
        normalize_adjacency(partition_adjacency(a, labeling, k))
        for k in range(labeling.num_subsets)
    ])


# ---------------------------------------------------------------------------
# Built-in topologies
# ---------------------------------------------------------------------------

# 25-joint skeleton in the NTU-RGB+D joint order, rooted at the mid spine.
# Edge direction is parent -> child along the kinematic tree.
NTU25_NAMES = (
    "spine_base", "spine_mid", "neck", "head",
    "shoulder_left", "elbow_left", "wrist_left", "hand_left",
    "shoulder_right", "elbow_right", "wrist_right", "hand_right",
    "hip_left", "knee_left", "ankle_left", "foot_left",
    "hip_right", "knee_right", "ankle_right", "foot_right",
    "spine_shoulder",
    "handtip_left", "thumb_left", "handtip_right", "thumb_right",
)

NTU25_EDGES = (
    (1, 0), (1, 20),
    (20, 2), (2, 3),
    (20, 4), (4, 5), (5, 6), (6, 7), (7, 21), (7, 22),
    (20, 8), (8, 9), (9, 10), (10, 11), (11, 23), (11, 24),
    (0, 12), (12, 13), (13, 14), (14, 15),
    (0, 16), (16, 17), (17, 18), (18, 19),
)


def _toy2() -> SkeletonTopology:
    return SkeletonTopology(2, ((0, 1),), root=0, names=("hub", "tip"))


def _toy5() -> SkeletonTopology:
    return SkeletonTopology(5, ((0, 1), (0, 2), (0, 3), (0, 4)), root=0)


def _chain3() -> SkeletonTopology:
    return SkeletonTopology(3, ((0, 1), (1, 2)), root=0)


def _ntu25() -> SkeletonTopology:
    return SkeletonTopology(25, NTU25_EDGES, root=1, names=NTU25_NAMES)


_BUILTIN = {"toy2": _toy2, "toy5": _toy5, "chain3": _chain3, "ntu25": _ntu25}


def get_topology(name: str) -> SkeletonTopology:
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ConfigError(f"unknown topology {name!r}; built-ins: {sorted(_BUILTIN)}")


def topology_from_dict(doc: dict) -> SkeletonTopology:
    """Build a topology from the JSON document format.

    Expected keys: num_joints, root, edges ([[parent, child], ...]) and
    optionally names.
    """
    try:
        num_joints = int(doc["num_joints"])
        root = int(doc["root"])
        edges = tuple((int(i), int(j)) for i, j in doc["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed topology document: {exc}") from exc
    names = tuple(str(n) for n in doc["names"]) if "names" in doc and doc["names"] else None
    return SkeletonTopology(num_joints, edges, root=root, names=names)


def load_topology(path: str | Path) -> SkeletonTopology:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"topology file {path} is not valid JSON: {exc}") from exc
    return topology_from_dict(doc)
