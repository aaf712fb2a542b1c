import json

import numpy as np
import pytest

from ddgcn import graph
from ddgcn.errors import ConfigError

TOPOLOGY_NAMES = ("toy2", "toy5", "chain3", "ntu25")


def test_adjacency_toy2():
    a = graph.build_adjacency(graph.get_topology("toy2"))
    assert np.array_equal(a, [[0, 1], [0, 0]])


def test_adjacency_toy5_star():
    a = graph.build_adjacency(graph.get_topology("toy5"))
    assert np.array_equal(a[0], [0, 1, 1, 1, 1])
    assert np.array_equal(a[1:], np.zeros((4, 5)))


def test_adjacency_ntu25_edge_count():
    a = graph.build_adjacency(graph.get_topology("ntu25"))
    assert a.sum() == 24
    assert np.trace(a) == 0
    assert a.shape == (25, 25)


def test_out_degree_examples():
    toy2 = graph.get_topology("toy2")
    assert toy2.out_degrees()[1] == 0
    assert graph.get_topology("toy5").out_degrees()[0] == 4
    ntu = graph.get_topology("ntu25")
    for tip in (21, 22, 23, 24):
        assert ntu.out_degrees()[tip] == 0


def test_out_degree_sums_to_edge_count():
    for name in TOPOLOGY_NAMES:
        topo = graph.get_topology(name)
        assert topo.out_degrees().sum() == len(topo.edges)


def test_activity_labels_examples():
    toy2 = graph.get_topology("toy2")
    lab = graph.activity_partition(toy2)
    assert lab.num_subsets == 3
    assert lab.label_of(0, 1) == 0  # leaf neighbor
    assert lab.label_of(0, 0) == 1  # joint 0 drives exactly one other
    star = graph.activity_partition(graph.get_topology("toy5"))
    assert star.label_of(1, 0) == 2  # hub drives four


def test_spatial_labels_examples():
    chain = graph.get_topology("chain3")
    lab = graph.spatial_partition(chain)
    assert lab.label_of(1, 1) == 0
    assert lab.label_of(2, 1) == 1  # neighbor closer to the root
    assert lab.label_of(1, 2) == 2  # neighbor farther away


def test_distance_and_uniform_labels():
    toy2 = graph.get_topology("toy2")
    uni = graph.uniform_partition(toy2)
    assert uni.num_subsets == 1
    assert set(uni.labels.values()) == {0}
    dist = graph.distance_partition(toy2)
    assert dist.num_subsets == 2
    assert dist.label_of(0, 0) == 0
    assert dist.label_of(0, 1) == 1


def test_partition_adjacency_examples():
    toy2 = graph.get_topology("toy2")
    a = graph.build_adjacency(toy2)
    uni = graph.uniform_partition(toy2)
    assert np.array_equal(graph.partition_adjacency(a, uni, 0), a + np.eye(2))
    dist = graph.distance_partition(toy2)
    assert np.array_equal(graph.partition_adjacency(a, dist, 0), np.eye(2))
    act = graph.activity_partition(toy2)
    # subset 0 holds every pair whose neighbor has out-degree 0: the leaf
    # seen from the hub, and the leaf's own self-loop
    assert np.array_equal(graph.partition_adjacency(a, act, 0), [[0, 1], [0, 1]])
    assert np.array_equal(graph.partition_adjacency(a, act, 1), [[1, 0], [0, 0]])
    assert np.array_equal(graph.partition_adjacency(a, act, 2), np.zeros((2, 2)))


def test_partition_adjacency_invalid_subset():
    toy2 = graph.get_topology("toy2")
    a = graph.build_adjacency(toy2)
    lab = graph.uniform_partition(toy2)
    with pytest.raises(ValueError, match="subset"):
        graph.partition_adjacency(a, lab, 1)


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_partition_is_exact(name, strategy):
    """Subsets are disjoint and exhaustive; masked adjacencies sum to A + I."""
    topo = graph.get_topology(name)
    lab = graph.make_partition(topo, strategy)
    und = topo.undirected_neighbors()
    for i in range(topo.num_joints):
        neighborhood = [i] + und[i]
        labels = [lab.label_of(i, j) for j in neighborhood]
        assert all(0 <= k < lab.num_subsets for k in labels)
    assert len(lab.labels) == topo.num_joints + 2 * len(topo.edges)

    a = graph.build_adjacency(topo)
    total = sum(graph.partition_adjacency(a, lab, k) for k in range(lab.num_subsets))
    assert np.array_equal(total, a + np.eye(topo.num_joints))


def test_activity_partition_relabeling_invariance():
    rng = np.random.default_rng(42)
    topo = graph.get_topology("ntu25")
    lab = graph.activity_partition(topo)
    for _ in range(5):
        perm = rng.permutation(topo.num_joints)
        edges = tuple((int(perm[i]), int(perm[j])) for i, j in topo.edges)
        permuted = graph.SkeletonTopology(topo.num_joints, edges, root=int(perm[topo.root]))
        plab = graph.activity_partition(permuted)
        for (i, j), k in lab.labels.items():
            assert plab.label_of(int(perm[i]), int(perm[j])) == k


def test_normalize_examples():
    assert np.array_equal(graph.normalize_adjacency(np.array([[1.0]])), [[1.0]])
    out = graph.normalize_adjacency(np.ones((2, 2)))
    assert np.allclose(out, 0.5 * np.ones((2, 2)), atol=1e-15)
    zero_col = graph.normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(zero_col, np.zeros((2, 2)))


def test_normalize_symmetric_properties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = int(rng.integers(2, 8))
        a = (rng.random((v, v)) < 0.4).astype(np.float64)
        a = np.triu(a, 1)
        a = a + a.T + np.eye(v)  # symmetric, non-negative, self-loops
        out = graph.normalize_adjacency(a)
        assert np.allclose(out, out.T, atol=1e-14)
        assert np.all(np.isfinite(out))
        radius = np.abs(np.linalg.eigvalsh(out)).max()
        assert radius <= 1.0 + 1e-12


def test_topology_validation():
    with pytest.raises(ConfigError):
        graph.SkeletonTopology(2, ((0, 0),), root=0)  # self edge
    with pytest.raises(ConfigError):
        graph.SkeletonTopology(3, ((0, 1), (1, 0)), root=0)  # duplicate (undirected)
    with pytest.raises(ConfigError):
        graph.SkeletonTopology(3, ((0, 1),), root=0)  # wrong edge count
    with pytest.raises(ConfigError):
        graph.SkeletonTopology(4, ((0, 1), (0, 2), (5, 3)), root=0)  # bad id
    with pytest.raises(ConfigError):
        graph.SkeletonTopology(2, ((0, 1),), root=2)  # bad root


def test_topology_json_round_trip(tmp_path):
    topo = graph.get_topology("chain3")
    doc = {"num_joints": topo.num_joints, "root": topo.root,
           "edges": [list(e) for e in topo.edges], "names": ["a", "b", "c"]}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    loaded = graph.load_topology(path)
    assert loaded.num_joints == topo.num_joints
    assert loaded.edges == topo.edges
    assert loaded.root == topo.root
    assert loaded.names == ("a", "b", "c")


def test_topology_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        graph.load_topology(path)
    with pytest.raises(ConfigError):
        graph.topology_from_dict({"num_joints": 2, "edges": [[0, 1]]})  # missing root


def test_unknown_names_rejected():
    with pytest.raises(ConfigError):
        graph.get_topology("nope")
    with pytest.raises(ConfigError):
        graph.make_partition(graph.get_topology("toy2"), "radial")


def _per_pair_masks(topo, lab):
    """The masked, normalized (K, V, V) stack built one (i, j) cell at a time,
    the algorithm the table-based partition replaced."""
    v = topo.num_joints
    full = graph.build_adjacency(topo) + np.eye(v)
    stack = []
    for k in range(lab.num_subsets):
        masked = np.zeros_like(full)
        for i in range(v):
            for j in range(v):
                if full[i, j] != 0.0 and lab.labels.get((i, j)) == k:
                    masked[i, j] = full[i, j]
        deg = masked.sum(axis=1)
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
        stack.append(inv_sqrt[:, None] * masked * inv_sqrt[None, :])
    return np.stack(stack)


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_masked_normalized_adjacency_matches_per_pair_loop(name, strategy):
    topo = graph.get_topology(name)
    lab = graph.make_partition(topo, strategy)
    assert np.array_equal(graph.masked_normalized_adjacency(topo, lab), _per_pair_masks(topo, lab))


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
@pytest.mark.parametrize("strategy", graph.STRATEGIES)
def test_table_is_undefined_exactly_off_the_neighborhood(name, strategy):
    topo = graph.get_topology(name)
    lab = graph.make_partition(topo, strategy)
    a = graph.build_adjacency(topo)
    support = a + a.T + np.eye(topo.num_joints) > 0
    assert lab.table.shape == (topo.num_joints, topo.num_joints)
    assert not lab.table.flags.writeable
    assert np.array_equal(lab.table < 0, ~support)
    for i, j in np.argwhere(~support):
        with pytest.raises(KeyError):
            lab.label_of(int(i), int(j))
    for i, j in ((-1, 0), (0, topo.num_joints)):
        with pytest.raises(KeyError):
            lab.label_of(i, j)


def test_topology_with_a_cycle_and_an_isolated_joint_is_rejected():
    # V - 1 edges and no duplicate, but joint 3 is unreachable
    with pytest.raises(ConfigError, match="connected tree"):
        graph.SkeletonTopology(4, ((0, 1), (1, 2), (2, 0)), root=0)
