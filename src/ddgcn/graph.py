"""Skeleton topology and graph-convolution partition strategies.

A skeleton is a directed kinematic tree: edge (i, j) means joint j moves
around joint i (parent -> child). The adjacency matrix A has A[i, j] = 1
exactly for those edges; convolution neighborhoods are taken under A + I.
A partition labeling is one (V, V) int table holding the subset of neighbor
j in root i's neighborhood (the undirected 1-hop neighborhood plus self,
i.e. the support of A + A^T + I) and -1 elsewhere; subset k's mask, which
drives kernel weight sharing in the graph convolution, is A + I where the
table equals k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, read_number

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
        # V-1 edges without duplicates form a tree iff every joint is reachable from the root.
        if (self.hops_to_root() < 0).any():
            raise ConfigError("edges do not form a connected tree")

    def undirected_neighbors(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_joints)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs

    def out_degrees(self) -> np.ndarray:
        return np.bincount([i for i, _ in self.edges], minlength=self.num_joints)

    def parent_of(self) -> np.ndarray:
        """Parent joint id per joint, -1 at the tree root of the edge set."""
        par = np.full(self.num_joints, -1, dtype=np.int64)
        par[[j for _, j in self.edges]] = [i for i, _ in self.edges]
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

    ``table`` is a read-only (V, V) int array: ``table[i, j]`` is the subset
    of neighbor j in root i's neighborhood, defined exactly where j is in
    the undirected 1-hop neighborhood of i or j == i, and -1 elsewhere.
    """

    strategy: str
    num_subsets: int
    table: np.ndarray

    @property
    def labels(self) -> dict[tuple[int, int], int]:
        """The table as ``{(root, neighbor): subset}`` over its defined pairs."""
        return {(int(i), int(j)): int(self.table[i, j]) for i, j in np.argwhere(self.table >= 0)}

    def label_of(self, root: int, neighbor: int) -> int:
        v = len(self.table)
        if 0 <= root < v and 0 <= neighbor < v and self.table[root, neighbor] >= 0:
            return int(self.table[root, neighbor])
        raise KeyError((root, neighbor))


def build_adjacency(topology: SkeletonTopology) -> np.ndarray:
    """V x V matrix with A[i, j] = 1 exactly for directed edges i -> j."""
    a = np.zeros((topology.num_joints, topology.num_joints), dtype=np.float64)
    a[tuple(np.array(topology.edges, dtype=np.int64).reshape(-1, 2).T)] = 1.0
    return a


def _labeling(topology: SkeletonTopology, strategy: str, num_subsets: int, labels) -> PartitionLabeling:
    """``labels`` (broadcast to (V, V)) on the support of A + A^T + I, -1 off it."""
    a = build_adjacency(topology)
    table = np.where(a + a.T + np.eye(topology.num_joints) > 0, labels, -1)
    table.setflags(write=False)
    return PartitionLabeling(strategy, num_subsets, table)


def uniform_partition(topology: SkeletonTopology) -> PartitionLabeling:
    return _labeling(topology, "uniform", 1, 0)


def distance_partition(topology: SkeletonTopology) -> PartitionLabeling:
    return _labeling(topology, "distance", 2, 1 - np.eye(topology.num_joints, dtype=np.int64))


def spatial_partition(topology: SkeletonTopology) -> PartitionLabeling:
    """Self / centripetal / centrifugal split, with hop distance to the
    designated root joint standing in for distance to the body barycenter."""
    hops = topology.hops_to_root()
    by_hops = np.where(hops[None, :] < hops[:, None], 1, 2)  # 1: neighbor j nearer the root than i
    return _labeling(topology, "spatial", 3, np.where(np.eye(topology.num_joints, dtype=bool), 0, by_hops))


def activity_partition(topology: SkeletonTopology) -> PartitionLabeling:
    """Subset by the neighbor's out-degree: 0 for leaves, 1 for single-child
    joints, 2 for joints driving two or more others."""
    return _labeling(topology, "activity", 3, np.minimum(topology.out_degrees(), 2)[None, :])


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
    return np.where(labeling.table == k, a + np.eye(a.shape[0]), 0.0)


def normalize_adjacency(a_k: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} A D^{-1/2} with row-sum degrees,
    over the last two axes, so a (K, V, V) stack normalizes each subset.

    Rows or columns whose degree is zero are mapped to zero (their D^{-1/2}
    entry is treated as 0, no epsilon).
    """
    deg = a_k.sum(axis=-1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[..., :, None] * a_k * inv_sqrt[..., None, :]


def masked_normalized_adjacency(topology: SkeletonTopology, labeling: PartitionLabeling) -> np.ndarray:
    """Per-subset normalized adjacency stack (K, V, V) used by the graph convolution."""
    full = build_adjacency(topology) + np.eye(topology.num_joints)
    subsets = np.arange(labeling.num_subsets)[:, None, None]
    return normalize_adjacency(np.where(labeling.table == subsets, full, 0.0))


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
    optionally names, a list of strings. Joint ids are whole numbers.
    """
    try:
        num_joints = read_number(int, doc["num_joints"])
        root = read_number(int, doc["root"])
        edges = tuple((read_number(int, i), read_number(int, j)) for i, j in doc["edges"])
        names = doc.get("names")
        if names is not None and not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError(f"names must be a list of strings, got {names!r}")
        names = tuple(names) if names else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed topology document: {exc}") from exc
    return SkeletonTopology(num_joints, edges, root=root, names=names)


def load_topology(path: str | Path) -> SkeletonTopology:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read topology file {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise ConfigError(f"topology file {path} is not valid JSON: {exc}") from exc
    return topology_from_dict(doc)
