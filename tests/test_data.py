import json

import numpy as np
import numpy.testing as npt
import pytest

from ddgcn import data, graph
from ddgcn.errors import DataError


def write_lines(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))


def sample_doc(sample_id="s0", label=0, joints=2, channels=3, frames=None):
    if frames is None:
        frames = [[[0.0] * channels] * joints] * 2
    return {"id": sample_id, "label": label, "joints": joints,
            "channels": channels, "frames": frames}


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert data.load_dataset(path) == []


def test_load_single_sample(tmp_path):
    path = tmp_path / "one.jsonl"
    write_lines(path, [sample_doc()])
    samples = data.load_dataset(path)
    assert len(samples) == 1
    assert samples[0].frames.shape == (2, 2, 3)
    assert samples[0].label == 0


def test_load_reads_every_json_number_whatever_else_the_line_spells(tmp_path):
    # a "u" or a second "f" in the line, or an int past int64, sends it down the coordinate walk
    path = tmp_path / "odd.jsonl"
    frames = [[[1, -2.5, 3], [0.0, 1e-300, 7]]]
    write_lines(path, [sample_doc("plain", frames=frames), sample_doc("full-of-fluff", frames=frames),
                       sample_doc("big", frames=[[[10**20, 0, 0], [0, 0, 0]]])])
    plain, fluff, big = data.load_dataset(path)
    npt.assert_array_equal(plain.frames, [[[1.0, -2.5, 3.0], [0.0, 1e-300, 7.0]]])
    npt.assert_array_equal(fluff.frames, plain.frames)
    assert big.frames[0, 0, 0] == 1e20
    assert plain.frames.dtype == fluff.frames.dtype == big.frames.dtype == np.float64


def test_load_rejects_joint_mismatch_by_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_lines(path, [sample_doc(sample_id="odd-one", joints=24,
                                  frames=[[[0.0] * 3] * 24] * 2)])
    with pytest.raises(DataError, match=r"bad\.jsonl:1: sample 'odd-one' has 24 joints, run topology expects 25"):
        data.load_dataset(path, expected_joints=25)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(sample_doc()) + "\n{oops\n")
    with pytest.raises(DataError, match=":2"):
        data.load_dataset(path)
    path2 = tmp_path / "missing.jsonl"
    write_lines(path2, [{"id": "x", "label": 0}])
    with pytest.raises(DataError, match=":1"):
        data.load_dataset(path2)
    path3 = tmp_path / "negative.jsonl"
    write_lines(path3, [sample_doc(), sample_doc(sample_id="below", label=-1)])
    with pytest.raises(DataError, match=r"negative\.jsonl:2: negative label"):
        data.load_dataset(path3)


def test_zero_frame_sample_is_data_error():
    with pytest.raises(DataError, match="empty-clip"):
        data.SkeletonSample(frames=np.zeros((0, 2, 3)), label=0, sample_id="empty-clip")


def test_load_reports_empty_frame_list_as_no_frames(tmp_path):
    path = tmp_path / "empty-frames.jsonl"
    write_lines(path, [sample_doc(), sample_doc(sample_id="blank", frames=[])])
    with pytest.raises(DataError, match="no frames"):
        data.load_dataset(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = [data.SkeletonSample(frames=rng.standard_normal((3, 2, 3)),
                                   label=i % 2, sample_id=f"s{i}")
               for i in range(4)]
    path = tmp_path / "ds.jsonl"
    data.save_dataset(samples, path)
    loaded = data.load_dataset(path, expected_joints=2)
    assert len(loaded) == 4
    for orig, back in zip(samples, loaded):
        npt.assert_array_equal(orig.frames, back.frames)
        assert (orig.label, orig.sample_id) == (back.label, back.sample_id)


def test_preprocess_centers_on_first_frame_root():
    frames = np.full((3, 2, 3), 5.0)
    frames[1] += 1.0
    sample = data.SkeletonSample(frames=frames, label=0, sample_id="s")
    out = data.preprocess(sample, target_frames=3, root_joint=0)
    npt.assert_array_equal(out.frames[0, 0], [0.0, 0.0, 0.0])
    npt.assert_array_equal(out.frames[1, 0], [1.0, 1.0, 1.0])


def test_preprocess_matching_length_only_centers():
    rng = np.random.default_rng(1)
    frames = rng.uniform(-1, 1, (4, 3, 3))
    sample = data.SkeletonSample(frames=frames, label=1, sample_id="s")
    out = data.preprocess(sample, target_frames=4, root_joint=1)
    npt.assert_allclose(out.frames, frames - frames[0, 1][None, None, :], atol=1e-15)


def test_preprocess_subsamples_every_second_frame():
    frames = np.arange(8, dtype=np.float64).reshape(8, 1, 1)
    sample = data.SkeletonSample(frames=np.tile(frames, (1, 2, 3)), label=0, sample_id="s")
    out = data.preprocess(sample, target_frames=4, root_joint=0)
    kept = out.frames[:, 1, 0] - out.frames[0, 1, 0]
    npt.assert_array_equal(kept, [0.0, 2.0, 4.0, 6.0])
    assert np.array_equal(data._resample_indices(8, 4), [0, 2, 4, 6])


def test_preprocess_pads_short_sequences():
    frames = np.arange(2, dtype=np.float64).reshape(2, 1, 1)
    sample = data.SkeletonSample(frames=np.tile(frames, (1, 2, 3)), label=0, sample_id="s")
    out = data.preprocess(sample, target_frames=5, root_joint=0)
    npt.assert_array_equal(out.frames[:, 0, 0], [0, 1, 1, 1, 1])


def test_preprocess_is_idempotent():
    rng = np.random.default_rng(2)
    sample = data.SkeletonSample(frames=rng.uniform(-1, 1, (6, 5, 3)),
                                 label=2, sample_id="s")
    once = data.preprocess(sample, target_frames=6, root_joint=0)
    twice = data.preprocess(once, target_frames=6, root_joint=0)
    npt.assert_array_equal(once.frames, twice.frames)


def synthetic_spec(**overrides):
    base = dict(num_classes=4, samples_per_class=3, frames=16,
                topology=graph.get_topology("toy5"), noise_std=0.0, seed=7)
    base.update(overrides)
    return data.SyntheticSpec(**base)


def test_synthetic_deterministic_and_noiseless_duplicates():
    spec = synthetic_spec()
    first = data.generate_synthetic(spec)
    second = data.generate_synthetic(spec)
    assert len(first) == 12
    for a, b in zip(first, second):
        npt.assert_array_equal(a.frames, b.frames)
    # zero noise makes same-class samples identical trajectories
    npt.assert_array_equal(first[0].frames, first[1].frames)


def test_synthetic_classes_are_distinct():
    samples = data.generate_synthetic(synthetic_spec(samples_per_class=1))
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            gap = np.linalg.norm(samples[i].frames - samples[j].frames)
            assert gap > 1.0


def test_synthetic_noise_is_seeded_per_sample():
    spec = synthetic_spec(noise_std=0.1)
    samples = data.generate_synthetic(spec)
    assert not np.array_equal(samples[0].frames, samples[1].frames)
    again = data.generate_synthetic(spec)
    npt.assert_array_equal(samples[0].frames, again[0].frames)


@pytest.mark.parametrize("noise_std", [-0.1, float("nan"), float("inf")])
def test_synthetic_rejects_unusable_noise(noise_std):
    with pytest.raises(DataError, match="noise_std must be finite and non-negative"):
        data.generate_synthetic(synthetic_spec(noise_std=noise_std))


def test_synthetic_linearly_separable_when_noiseless():
    """Least-squares one-vs-rest on flattened frames nails the train set."""
    spec = synthetic_spec(samples_per_class=5)
    samples = data.generate_synthetic(spec)
    x = np.stack([s.frames.ravel() for s in samples])
    x = np.hstack([x, np.ones((len(samples), 1))])
    y = -np.ones((len(samples), spec.num_classes))
    for i, s in enumerate(samples):
        y[i, s.label] = 1.0
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    predictions = (x @ w).argmax(axis=1)
    labels = np.array([s.label for s in samples])
    assert (predictions == labels).all()
