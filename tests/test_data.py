import builtins
import hashlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY
from milrank.data import (
    Bag,
    DatasetIndex,
    SyntheticSpec,
    VideoRecord,
    VideoRef,
    gen_synthetic,
    load_video,
    read_feature_file,
    read_labels,
    read_manifest,
    sample_bag,
    split_videos,
    train_test_split,
    write_atomic,
    write_feature_file,
    write_manifest,
)
from milrank.errors import DataError, FormatError
from milrank.model import init_params
from milrank.train import Checkpoint, OptimizerState, TrainingConfig, save_checkpoint


def make_video(rng, n=10, dv=8, da=4, video_id="v", event="e", duration=50.0):
    return VideoRecord(
        video_id, event, duration, rng.standard_normal((n, dv)), rng.standard_normal((n, da))
    )


class TestFeatureFile:
    def test_round_trip(self, tmp_path, rng):
        vision = rng.standard_normal((7, 512)).astype(np.float32)
        audio = rng.standard_normal((7, 128)).astype(np.float32)
        path = tmp_path / "a.mnf"
        write_feature_file(path, vision, audio)
        v2, a2 = read_feature_file(path)
        assert np.array_equal(v2, vision)
        assert np.array_equal(a2, audio)

    def test_two_segment_file_size(self, tmp_path):
        path = tmp_path / "two.mnf"
        write_feature_file(path, np.zeros((2, 512)), np.zeros((2, 128)))
        assert path.stat().st_size == 16 + 4 * 2 * (512 + 128)
        assert path.stat().st_size == 5136

    def test_magic_first_four_bytes(self, tmp_path):
        path = tmp_path / "m.mnf"
        write_feature_file(path, np.zeros((1, 512)), np.zeros((1, 128)))
        assert path.read_bytes()[:4] == b"MNF1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mnf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.mnf"
        write_feature_file(path, np.zeros((2, 512)), np.zeros((2, 128)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="bytes"):
            read_feature_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.mnf"
        write_feature_file(path, np.zeros((1, 512)), np.zeros((1, 128)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="bytes"):
            read_feature_file(path)

    def test_zero_segments_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            write_feature_file(tmp_path / "z.mnf", np.zeros((0, 512)), np.zeros((0, 128)))

    def test_dim_mismatch_on_read(self, tmp_path):
        path = tmp_path / "d.mnf"
        write_feature_file(path, np.zeros((1, 8)), np.zeros((1, 4)), expect_dims=(8, 4))
        with pytest.raises(FormatError, match="dims"):
            read_feature_file(path)
        v, a = read_feature_file(path, expect_dims=(8, 4))
        assert v.shape == (1, 8) and a.shape == (1, 4)

    def test_row_count_mismatch_on_write(self, tmp_path):
        with pytest.raises(FormatError, match="row counts"):
            write_feature_file(tmp_path / "r.mnf", np.zeros((2, 512)), np.zeros((3, 128)))

    def test_nonfinite_rejected_on_read(self, tmp_path):
        # the writer refuses non-finite values, so the file is built by hand
        path = tmp_path / "n.mnf"
        vision = np.zeros((1, 512), dtype="<f4")
        vision[0, 0] = np.nan
        header = b"MNF1" + struct.pack("<III", 1, 512, 128)
        path.write_bytes(header + vision.tobytes() + np.zeros((1, 128), dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="finite"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e40, -1e39])
    @pytest.mark.parametrize("modality", ["vision", "audio"])
    def test_nonfinite_rejected_on_write(self, tmp_path, value, modality):
        arrays = {"vision": np.zeros((2, 8)), "audio": np.zeros((2, 4))}
        arrays[modality][1, 2] = value
        path = tmp_path / "n.mnf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(FormatError, match="non-finite"):
                write_feature_file(path, arrays["vision"], arrays["audio"], expect_dims=None)
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "n.mnf"
        write_feature_file(path, np.ones((2, 8)), np.ones((2, 4)), expect_dims=None)
        old = path.read_bytes()
        with pytest.raises(FormatError):
            write_feature_file(path, np.full((2, 8), 1e40), np.ones((2, 4)), expect_dims=None)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["n.mnf"]

    def test_float32_max_is_written(self, tmp_path):
        path = tmp_path / "m.mnf"
        big = np.finfo(np.float32).max
        write_feature_file(path, np.full((1, 8), big), np.full((1, 4), -big), expect_dims=None)
        vision, audio = read_feature_file(path, expect_dims=None)
        assert np.all(vision == big) and np.all(audio == -big)

    @given(
        n=st.integers(min_value=1, max_value=8),
        dv=st.integers(min_value=1, max_value=16),
        da=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_any_dims(self, tmp_path_factory, n, dv, da):
        path = tmp_path_factory.mktemp("mnf") / "f.mnf"
        rng = np.random.default_rng(n * 1000 + dv * 10 + da)
        vision = rng.standard_normal((n, dv)).astype(np.float32)
        audio = rng.standard_normal((n, da)).astype(np.float32)
        write_feature_file(path, vision, audio, expect_dims=None)
        v2, a2 = read_feature_file(path, expect_dims=None)
        assert np.array_equal(v2, vision) and np.array_equal(a2, audio)


class TestManifest:
    def write_dataset(self, tmp_path, rows):
        lines = []
        for vid, tag, dur in rows:
            fpath = tmp_path / f"{vid}.mnf"
            write_feature_file(fpath, np.zeros((2, 8)), np.zeros((2, 4)), expect_dims=None)
            lines.append(f"{vid}\t{tag}\t{dur}\t{vid}.mnf")
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("# comment\n\n" + "\n".join(lines) + "\n")
        return mpath

    def test_parse_basic(self, tmp_path):
        mpath = self.write_dataset(tmp_path, [("a", "surf", 45.0), ("b", "ski", 75.0)])
        index = read_manifest(mpath)
        assert len(index) == 2
        assert index.events == {"surf", "ski"}
        assert index.records[0].duration_s == 45.0

    def test_duplicate_id(self, tmp_path):
        mpath = self.write_dataset(tmp_path, [("a", "surf", 45.0)])
        mpath.write_text(mpath.read_text() + "a\tsurf\t30.0\ta.mnf\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_manifest(mpath)

    def test_missing_feature_file_reports_line(self, tmp_path):
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("a\tsurf\t45.0\tmissing.mnf\n")
        with pytest.raises(FormatError, match="manifest.tsv:1"):
            read_manifest(mpath)

    def test_bad_field_count(self, tmp_path):
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("a\tsurf\t45.0\n")
        with pytest.raises(FormatError, match="fields"):
            read_manifest(mpath)

    def test_bad_duration(self, tmp_path):
        fpath = tmp_path / "a.mnf"
        write_feature_file(fpath, np.zeros((1, 8)), np.zeros((1, 4)), expect_dims=None)
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("a\tsurf\tsoon\ta.mnf\n")
        with pytest.raises(FormatError, match="duration"):
            read_manifest(mpath)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_duration(self, tmp_path, value):
        mpath = self.write_dataset(tmp_path, [("a", "surf", 45.0), ("b", "ski", value)])
        with pytest.raises(FormatError, match=r"manifest.tsv:4: non-finite duration"):
            read_manifest(mpath)

    def test_write_read_round_trip(self, tmp_path):
        mpath = self.write_dataset(tmp_path, [("a", "surf", 45.5), ("b", "ski", 75.25)])
        index = read_manifest(mpath)
        out = tmp_path / "copy.tsv"
        write_manifest(index, out)
        again = read_manifest(out)
        assert [(r.video_id, r.event_tag, r.duration_s) for r in again.records] == [
            (r.video_id, r.event_tag, r.duration_s) for r in index.records
        ]

    def test_labels_round_trip(self, tmp_path):
        lpath = tmp_path / "l.txt"
        lpath.write_text("0\n1\n\n0\n")
        assert np.array_equal(read_labels(lpath), [0, 1, 0])

    def test_bad_label(self, tmp_path):
        lpath = tmp_path / "l.txt"
        lpath.write_text("0\nmaybe\n")
        with pytest.raises(FormatError, match="l.txt:2"):
            read_labels(lpath)

    def test_load_video_label_length_mismatch(self, tmp_path):
        fpath = tmp_path / "a.mnf"
        write_feature_file(fpath, np.zeros((3, 8)), np.zeros((3, 4)), expect_dims=None)
        lpath = tmp_path / "a.txt"
        lpath.write_text("1\n0\n")
        ref = VideoRef("a", "surf", 45.0, fpath, lpath)
        with pytest.raises(DataError, match="labels"):
            load_video(ref, expect_dims=(8, 4))


class TestSplit:
    def make_index(self):
        refs = [
            VideoRef("p1", "surf", 45.0, "x"),
            VideoRef("p2", "surf", 59.9, "x"),
            VideoRef("long_surf", "surf", 75.0, "x"),
            VideoRef("n1", "ski", 75.0, "x"),
            VideoRef("short_ski", "ski", 45.0, "x"),
            VideoRef("edge_pos", "surf", 60.0, "x"),
            VideoRef("edge_neg", "ski", 60.0, "x"),
        ]
        return DatasetIndex(refs)

    def test_membership(self):
        pos, neg = split_videos(self.make_index(), "surf", 60.0)
        assert {r.video_id for r in pos} == {"p1", "p2"}
        assert {r.video_id for r in neg} == {"n1"}

    def test_boundary_strict(self):
        pos, neg = split_videos(self.make_index(), "surf", 60.0)
        ids = {r.video_id for r in pos} | {r.video_id for r in neg}
        assert "edge_pos" not in ids and "edge_neg" not in ids

    def test_no_positives(self):
        with pytest.raises(DataError, match="positive"):
            split_videos(self.make_index(), "surf", 1.0)

    def test_no_negatives(self):
        index = DatasetIndex([VideoRef("p", "surf", 5.0, "x"), VideoRef("n", "ski", 5.0, "x")])
        with pytest.raises(DataError, match="negative"):
            split_videos(index, "surf", 60.0)


class TestSampleBag:
    def test_without_replacement_when_enough(self, rng):
        video = make_video(rng, n=20)
        bag = sample_bag(video, 10, rng, "positive")
        assert bag.size == 10
        assert len(set(bag.instance_indices.tolist())) == 10
        assert np.array_equal(bag.vision, video.vision[bag.instance_indices])

    def test_tiling_when_short(self, rng):
        video = make_video(rng, n=3)
        bag = sample_bag(video, 10, rng, "negative")
        counts = np.bincount(bag.instance_indices, minlength=3)
        # 10 slots over 3 segments: as even as ceil/floor allows
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_exact_fit(self, rng):
        video = make_video(rng, n=6)
        bag = sample_bag(video, 6, rng, "positive")
        assert sorted(bag.instance_indices.tolist()) == list(range(6))

    def test_multiplicity_sweep(self, rng):
        for n, size in [(1, 1), (1, 7), (5, 200), (200, 5), (60, 60)]:
            video = make_video(rng, n=n)
            bag = sample_bag(video, size, rng, "positive")
            assert bag.size == size
            counts = np.bincount(bag.instance_indices, minlength=n)
            assert counts.max() - counts.min() <= 1

    def test_bad_bag_size(self, rng):
        with pytest.raises(DataError):
            sample_bag(make_video(rng), 0, rng, "positive")


class TestTrainTestSplit:
    def make_index(self):
        refs = [VideoRef(f"e{e}_v{i}", f"e{e}", 45.0, "x") for e in range(3) for i in range(10)]
        return DatasetIndex(refs)

    def test_partition(self):
        index = self.make_index()
        train, test = train_test_split(index, 0.2, seed=1)
        assert len(train) + len(test) == len(index)
        assert {r.video_id for r in train.records}.isdisjoint(
            {r.video_id for r in test.records}
        )

    def test_per_event_counts(self):
        train, test = train_test_split(self.make_index(), 0.2, seed=1)
        for event in ("e0", "e1", "e2"):
            assert sum(r.event_tag == event for r in test.records) == 2

    def test_deterministic(self):
        a = train_test_split(self.make_index(), 0.3, seed=7)
        b = train_test_split(self.make_index(), 0.3, seed=7)
        assert [r.video_id for r in a[1].records] == [r.video_id for r in b[1].records]

    def test_seed_changes_split(self):
        splits = {
            tuple(r.video_id for r in train_test_split(self.make_index(), 0.3, seed=s)[1].records)
            for s in range(5)
        }
        assert len(splits) > 1

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            train_test_split(self.make_index(), 1.5, seed=0)


class TestSynthetic:
    SPEC = SyntheticSpec(
        n_events=3,
        videos_per_event=6,
        segments_per_video=10,
        highlight_fraction=0.2,
        noise_sigma=0.1,
        feature_dims=(8, 4),
        seed=5,
        n_background=4,
    )

    def test_counts_and_manifest(self, tmp_path):
        index = gen_synthetic(self.SPEC, tmp_path)
        assert len(index) == 18
        assert index.events == {"ev00", "ev01", "ev02"}
        again = read_manifest(tmp_path / "manifest.tsv")
        assert len(again) == 18

    def test_label_counts(self, tmp_path):
        index = gen_synthetic(self.SPEC, tmp_path)
        for ref in index.records:
            video = load_video(ref, expect_dims=(8, 4))
            assert video.labels.sum() == 2  # ceil(0.2 * 10)
            assert video.n_segments == 10

    def test_duration_split_viable_for_every_event(self, tmp_path):
        index = gen_synthetic(self.SPEC, tmp_path)
        for event in sorted(index.events):
            pos, neg = split_videos(index, event, self.SPEC.tau)
            assert len(pos) == 3
            assert len(neg) == 6

    def test_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        gen_synthetic(self.SPEC, a_dir)
        gen_synthetic(self.SPEC, b_dir)
        for name in sorted(p.name for p in (a_dir / "features").iterdir()):
            assert (a_dir / "features" / name).read_bytes() == (
                b_dir / "features" / name
            ).read_bytes()
        assert (a_dir / "labels" / "ev00_000.txt").read_text() == (
            b_dir / "labels" / "ev00_000.txt"
        ).read_text()

    def test_seed_changes_features(self, tmp_path):
        import dataclasses

        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        gen_synthetic(self.SPEC, a_dir)
        gen_synthetic(dataclasses.replace(self.SPEC, seed=6), b_dir)
        assert (a_dir / "features" / "ev00_000.mnf").read_bytes() != (
            b_dir / "features" / "ev00_000.mnf"
        ).read_bytes()

    def test_highlight_background_separation(self, tmp_path):
        index = gen_synthetic(self.SPEC, tmp_path)
        gaps = []
        for ref in index.records[:6]:
            video = load_video(ref, expect_dims=(8, 4))
            feats = np.concatenate([video.vision, video.audio], axis=1)
            feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            hl = feats[video.labels == 1].mean(axis=0)
            bg = feats[video.labels == 0].mean(axis=0)
            gaps.append(1.0 - float(hl @ bg) / (np.linalg.norm(hl) * np.linalg.norm(bg)))
        assert min(gaps) > 0.5

    def test_invalid_spec(self, tmp_path):
        import dataclasses

        with pytest.raises(DataError):
            gen_synthetic(dataclasses.replace(self.SPEC, noise_sigma=0.0), tmp_path)
        with pytest.raises(DataError):
            gen_synthetic(dataclasses.replace(self.SPEC, highlight_fraction=0.01), tmp_path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau", -5.0),
            ("tau", 0.0),
            ("tau", float("nan")),
            ("tau", float("inf")),
            ("tau", 1e308),  # its longest durations, 1.95 tau, overflow
            ("noise_sigma", float("nan")),
            ("noise_sigma", float("inf")),
            ("highlight_fraction", float("nan")),
            ("highlight_fraction", float("inf")),
        ],
    )
    def test_nonfinite_or_nonpositive_rejected(self, tmp_path, field, value):
        import dataclasses

        with pytest.raises(DataError, match=field):
            gen_synthetic(dataclasses.replace(self.SPEC, **{field: value}), tmp_path)
        assert not (tmp_path / "features").exists()

    def test_label_files_bytes_and_no_temporaries(self, tmp_path):
        gen_synthetic(self.SPEC, tmp_path)
        files = sorted((tmp_path / "labels").iterdir())
        assert [p.name for p in files] == [f"ev{e:02d}_{v:03d}.txt" for e in range(3) for v in range(6)]
        digest = hashlib.sha256()
        for p in files:
            digest.update(p.name.encode("utf-8"))
            digest.update(p.read_bytes())
        # the bytes the generator has always written for this spec
        assert digest.hexdigest() == "2767a47bdb569f325bead44c1a7fceac5d4d53d409bbe73441e8f8140be0953c"


class HalfWrite:
    """A file whose first write stores half its bytes and then fails, as on a
    full disk."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        self.fh.write(bytes(chunk)[: len(chunk) // 2])
        raise OSError(28, "No space left on device")


def write_small_checkpoint(path, seed):
    config = TrainingConfig(model=TOY)
    params = init_params(config.model, seed)
    velocity = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    save_checkpoint(path, Checkpoint(params, config, OptimizerState(velocity=velocity)))


WRITERS = {
    "helper": lambda path, seed: write_atomic(path, bytes([seed]) * 64),
    "feature-file": lambda path, seed: write_feature_file(
        path, np.full((3, 8), seed), np.full((3, 4), seed), expect_dims=None
    ),
    "checkpoint": write_small_checkpoint,
}


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out.bin"
        WRITERS[writer](path, 1)
        old = path.read_bytes()
        monkeypatch.setattr("milrank.data.open", HalfWrite, raising=False)
        with pytest.raises(OSError, match="No space"):
            WRITERS[writer](path, 2)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_whole_file(self, tmp_path, writer):
        path = tmp_path / "out.bin"
        WRITERS[writer](path, 1)
        first = path.read_bytes()
        WRITERS[writer](path, 2)
        assert path.read_bytes() != first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_atomic(tmp_path / "no" / "out.bin", b"x")
        assert list(tmp_path.iterdir()) == []
