"""Quick checks of the benchmark's own generator and oracles (seconds).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
from milrank import data, model, train  # noqa: E402


@pytest.fixture
def small_sets(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "SHORT", [30, 45])
    monkeypatch.setattr(inputs, "LONG", [70, 90])
    monkeypatch.setattr(inputs, "HELDOUT", [40])
    monkeypatch.setattr(inputs, "SCORE_LENGTHS", [60, 61, 300])
    inputs.write_train_set(tmp_path, seed=3)
    inputs.write_score_set(tmp_path, seed=3)
    return tmp_path


def test_generated_files_read_back_through_the_program(small_sets):
    train_index = data.read_manifest(small_sets / "train.tsv")
    assert len(train_index) == inputs.N_EVENTS * 4
    assert sorted(train_index.events) == [f"ev{e:02d}" for e in range(inputs.N_EVENTS)]
    positives, negatives = data.split_videos(train_index, "ev00", tau=60.0)
    assert len(positives) == 2 and len(negatives) == 2 * (inputs.N_EVENTS - 1)
    heldout = data.read_manifest(small_sets / "heldout.tsv")
    assert sorted(heldout.events) == list(inputs.TRAIN_EVENTS)
    score_index = data.read_manifest(small_sets / "score.tsv")
    assert sorted(r.duration_s for r in score_index.records) == [60.0, 61.0, 300.0]
    for ref in train_index.records + heldout.records + score_index.records:
        vision, audio = data.read_feature_file(ref.feature_path)
        ours_v, ours_a = oracle.read_mnf1(ref.feature_path)
        assert vision.shape == (int(ref.duration_s), inputs.DV) and audio.shape[1] == inputs.DA
        assert np.array_equal(vision, ours_v) and np.array_equal(audio, ours_a)
        labels = data.read_labels(ref.label_path)
        assert len(labels) == len(vision) and set(labels.tolist()) <= {0, 1} and labels.sum() >= 1


def test_generator_is_deterministic_in_the_seed(small_sets):
    again = small_sets / "again"
    inputs.write_score_set(again, seed=3)
    for name in ("score.tsv", "score.mnck", "features/sc002.mnf", "labels/sc002.txt"):
        assert (again / name).read_bytes() == (small_sets / name).read_bytes()
    inputs.write_score_set(again, seed=4)
    assert (again / "score.mnck").read_bytes() != (small_sets / "score.mnck").read_bytes()


def test_checkpoint_loads_through_the_program(small_sets):
    ckpt = train.load_checkpoint(small_sets / "score.mnck")
    _, blocks = oracle.read_mnck(small_sets / "score.mnck")
    assert ckpt.config.model == model.ModelConfig(**oracle.MODEL_WIDTHS)
    for name, tensor in ckpt.params.tensors.items():
        assert np.array_equal(tensor, blocks[f"p/{name}"])


def test_reference_forward_matches_score_video_on_a_toy_model():
    widths = dict(dv=8, da=4, hv=6, hf=5, ds=3, hc=3, k=2)
    params = model.init_params(model.ModelConfig(**widths), seed=5)
    rng = np.random.default_rng(0)
    for t in params.tensors.values():
        if t.ndim == 1:
            t += rng.uniform(-0.3, 0.3, size=t.shape)
    vision, audio = rng.standard_normal((7, 8)), rng.standard_normal((7, 4))
    video = data.VideoRecord("toy", "ev00", 7.0, vision, audio)
    got = model.score_video(video, params)
    expect = oracle.reference_scores(params.tensors, vision, audio, widths["k"])
    assert np.max(np.abs(got - expect)) <= 1e-9 * np.max(np.abs(expect))
    assert oracle.ranking(expect) == oracle.ranking(got)


def test_ap_oracle():
    assert oracle.average_precision([1, 0, 1], [3, 2, 1]) == pytest.approx(5 / 6, rel=1e-15)
    assert oracle.average_precision([0, 0], [1, 2]) == 0.0
    assert oracle.average_precision([0, 1, 1], [5, 5, 1]) == pytest.approx((1 / 2 + 2 / 3) / 2)


@pytest.mark.parametrize("n_pos,n", [(1, 1), (1, 4), (2, 5), (3, 6)])
def test_random_ap_is_the_mean_over_all_rankings(n_pos, n):
    labels = [1] * n_pos + [0] * (n - n_pos)
    aps = [oracle.average_precision(labels, [-r for r in perm]) for perm in itertools.permutations(range(n))]
    assert oracle.random_ap(n_pos, n) == pytest.approx(sum(aps) / len(aps), rel=1e-12)
