"""Dataset handling: feature/manifest I/O, the duration split, bag sampling,
and the seeded synthetic dataset generator.

Feature files use the MNF1 container: magic ``MNF1``, three little-endian u32
fields (segment count N, vision width Dv, audio width Da), then N*Dv followed
by N*Da float32 little-endian values, row-major.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import DataError, FormatError

MNF1_MAGIC = b"MNF1"
DEFAULT_DIMS = (512, 128)


@dataclass
class VideoRecord:
    video_id: str
    event_tag: str
    duration_s: float
    vision: np.ndarray  # (n_segments, Dv)
    audio: np.ndarray  # (n_segments, Da)
    labels: Optional[np.ndarray] = None  # per-segment ints, optional

    @property
    def n_segments(self) -> int:
        return self.vision.shape[0]


@dataclass
class Bag:
    """Fixed-size multiset of segments drawn from one source video."""

    vision: np.ndarray  # (N, Dv)
    audio: np.ndarray  # (N, Da)
    polarity: str  # "positive" | "negative"
    source_video: str
    instance_indices: np.ndarray  # original segment indices, length N

    @property
    def size(self) -> int:
        return self.vision.shape[0]


@dataclass(frozen=True)
class VideoRef:
    """Manifest entry; features are loaded on demand."""

    video_id: str
    event_tag: str
    duration_s: float
    feature_path: Path
    label_path: Optional[Path] = None


@dataclass
class DatasetIndex:
    records: List[VideoRef] = field(default_factory=list)

    @property
    def events(self) -> set:
        return {r.event_tag for r in self.records}

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SyntheticSpec:
    n_events: int = 6
    videos_per_event: int = 80
    segments_per_video: int = 60
    highlight_fraction: float = 0.15
    noise_sigma: float = 0.1
    feature_dims: Tuple[int, int] = DEFAULT_DIMS
    seed: int = 0
    tau: float = 60.0
    n_background: int = 8

    def validate(self) -> None:
        if self.n_events < 1 or self.videos_per_event < 1 or self.segments_per_video < 1:
            raise DataError("synthetic spec counts must be positive")
        if not (0.0 < self.highlight_fraction < 1.0):
            raise DataError("highlight_fraction must lie in (0,1)")
        if self.highlight_fraction * self.segments_per_video < 1:
            raise DataError("highlight_fraction too small: no highlight segment per video")
        if not (0.0 < self.noise_sigma < math.inf):
            raise DataError("noise_sigma must be positive and finite")
        if not (0.0 < self.tau and 2.0 * self.tau < math.inf):  # durations reach 1.95 tau
            raise DataError("tau must be positive and finite")
        if self.seed < 0:
            raise DataError(f"seed must be nonnegative, got {self.seed}")


def write_atomic(path, *chunks: bytes) -> None:
    """Write the concatenated ``chunks`` to ``path`` through a temporary file
    in the same directory and ``os.replace``: the path holds either its old
    bytes or all of the new ones, and a failed write leaves no temporary
    file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# MNF1 feature files


def write_feature_file(
    path,
    vision: np.ndarray,
    audio: np.ndarray,
    expect_dims: Optional[Tuple[int, int]] = DEFAULT_DIMS,
) -> None:
    with np.errstate(over="ignore"):  # an overflow is refused below
        vision = np.asarray(vision, dtype=np.float32)
        audio = np.asarray(audio, dtype=np.float32)
    if vision.ndim != 2 or audio.ndim != 2:
        raise FormatError("feature arrays must be 2-d")
    if vision.shape[0] != audio.shape[0]:
        raise FormatError(
            f"row counts differ: vision {vision.shape[0]} vs audio {audio.shape[0]}"
        )
    n = vision.shape[0]
    if n == 0:
        raise FormatError("refusing to write a feature file with zero segments")
    dims = (vision.shape[1], audio.shape[1])
    if expect_dims is not None and dims != tuple(expect_dims):
        raise FormatError(f"feature dims {dims} do not match expected {tuple(expect_dims)}")
    # the reader refuses these, so the writer does too
    if not (np.all(np.isfinite(vision)) and np.all(np.isfinite(audio))):
        raise FormatError(f"{path}: non-finite feature values (after the float32 cast)")
    write_atomic(
        path,
        MNF1_MAGIC,
        struct.pack("<III", n, dims[0], dims[1]),
        np.ascontiguousarray(vision, dtype="<f4").tobytes(),
        np.ascontiguousarray(audio, dtype="<f4").tobytes(),
    )


def read_feature_file(
    path, expect_dims: Optional[Tuple[int, int]] = DEFAULT_DIMS
) -> Tuple[np.ndarray, np.ndarray]:
    """The (N, Dv) vision and (N, Da) audio arrays of an MNF1 file: views of
    one float32 array that the payload is read into, allocated only once the
    header agrees with the file's size."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise FormatError(f"{path}: truncated header")
        if head[:4] != MNF1_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        n, dv, da = struct.unpack("<III", head[4:])
        if n == 0:
            raise FormatError(f"{path}: zero segments")
        if expect_dims is not None and (dv, da) != tuple(expect_dims):
            raise FormatError(f"{path}: dims ({dv},{da}) do not match expected {tuple(expect_dims)}")
        need = 16 + 4 * n * (dv + da)
        size = os.fstat(fh.fileno()).st_size
        if size != need:
            raise FormatError(f"{path}: expected {need} bytes, found {size}")
        payload = np.empty(n * (dv + da), dtype="<f4")
        got = fh.readinto(payload)
        if got != payload.nbytes:  # the file shrank after the size check
            raise FormatError(f"{path}: expected {need} bytes, found {16 + got}")
    if not np.isfinite(payload).all():
        raise FormatError(f"{path}: non-finite feature values")
    return payload[: n * dv].reshape(n, dv), payload[n * dv :].reshape(n, da)


# ---------------------------------------------------------------------------
# Manifests and labels


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_manifest(path) -> DatasetIndex:
    """Parse a TSV manifest; paths are resolved relative to the manifest."""
    path = Path(path)
    base = path.parent
    index = DatasetIndex()
    seen = set()
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (4, 5):
            raise FormatError(f"{path}:{lineno}: expected 4 or 5 tab-separated fields, got {len(fields)}")
        video_id, event_tag, duration_s, feature_path = fields[:4]
        if video_id in seen:
            raise FormatError(f"{path}:{lineno}: duplicate video_id {video_id!r}")
        seen.add(video_id)
        try:
            duration = float(duration_s)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad duration {duration_s!r}") from None
        if not math.isfinite(duration):
            raise FormatError(f"{path}:{lineno}: non-finite duration {duration_s!r}")
        if duration < 0:
            raise FormatError(f"{path}:{lineno}: negative duration")
        fpath = base / feature_path
        if not fpath.is_file():
            raise FormatError(f"{path}:{lineno}: feature file {fpath} does not exist")
        lpath = None
        if len(fields) == 5 and fields[4]:
            lpath = base / fields[4]
            if not lpath.is_file():
                raise FormatError(f"{path}:{lineno}: label file {lpath} does not exist")
        index.records.append(VideoRef(video_id, event_tag, duration, fpath, lpath))
    return index


def write_manifest(index: DatasetIndex, path) -> None:
    path = Path(path)
    base = path.parent
    lines = []
    for r in index.records:
        fields = [
            r.video_id,
            r.event_tag,
            repr(float(r.duration_s)),
            str(Path(r.feature_path).relative_to(base) if Path(r.feature_path).is_relative_to(base) else r.feature_path),
        ]
        if r.label_path is not None:
            lp = Path(r.label_path)
            fields.append(str(lp.relative_to(base) if lp.is_relative_to(base) else lp))
        lines.append("\t".join(fields))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_labels(path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(_read_text(Path(path)).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = int(line)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad label {line!r}") from None
        if v < 0:
            raise FormatError(f"{path}:{lineno}: negative label")
        values.append(v)
    return np.asarray(values, dtype=np.int64)


def load_video(ref: VideoRef, expect_dims: Optional[Tuple[int, int]] = DEFAULT_DIMS) -> VideoRecord:
    vision, audio = read_feature_file(ref.feature_path, expect_dims=expect_dims)
    labels = None
    if ref.label_path is not None:
        labels = read_labels(ref.label_path)
        if len(labels) != vision.shape[0]:
            raise DataError(
                f"{ref.video_id}: {len(labels)} labels for {vision.shape[0]} segments"
            )
    return VideoRecord(ref.video_id, ref.event_tag, ref.duration_s, vision, audio, labels)


# ---------------------------------------------------------------------------
# Split, sampling


def split_videos(
    index: DatasetIndex, interest_event: str, tau: float
) -> Tuple[List[VideoRef], List[VideoRef]]:
    """Duration split: short interest-event videos are positives, long
    other-event videos are negatives.  Both inequalities are strict."""
    if tau <= 0:
        raise DataError("tau must be positive")
    positives = [r for r in index.records if r.event_tag == interest_event and r.duration_s < tau]
    negatives = [r for r in index.records if r.event_tag != interest_event and r.duration_s > tau]
    if not positives:
        raise DataError(f"no positive videos for event {interest_event!r} (duration < {tau})")
    if not negatives:
        raise DataError(f"no negative videos for event {interest_event!r} (duration > {tau})")
    return positives, negatives


def sample_bag(video: VideoRecord, bag_size: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of ``bag_size`` segments sampled without replacement; if the
    video is shorter, its segments tiled as evenly as possible and shuffled."""
    if bag_size < 1:
        raise DataError("bag_size must be >= 1")
    n = video.n_segments
    if n == 0:
        raise DataError(f"{video.video_id}: empty video")
    if n >= bag_size:
        idx = rng.choice(n, size=bag_size, replace=False)
    else:
        reps = math.ceil(bag_size / n)
        idx = np.tile(np.arange(n), reps)[:bag_size]
        rng.shuffle(idx)
    return np.asarray(idx, dtype=np.int64)


def train_test_split(index: DatasetIndex, test_fraction: float, seed: int) -> Tuple[DatasetIndex, DatasetIndex]:
    """Per-event shuffled split, deterministic in the seed."""
    if not (0.0 < test_fraction < 1.0):
        raise DataError("test_fraction must lie in (0,1)")
    rng = np.random.default_rng(seed)
    train, test = DatasetIndex(), DatasetIndex()
    for event in sorted(index.events):
        refs = [r for r in index.records if r.event_tag == event]
        order = rng.permutation(len(refs))
        n_test = max(1, int(round(test_fraction * len(refs))))
        test_ids = {refs[i].video_id for i in order[:n_test]}
        for r in refs:
            (test if r.video_id in test_ids else train).records.append(r)
    return train, test


# ---------------------------------------------------------------------------
# Synthetic generator


def gen_synthetic(spec: SyntheticSpec, out_dir) -> DatasetIndex:
    """Write a fully seeded synthetic dataset and return its index.

    Every event gets a unit-norm highlight prototype; all events share a pool
    of background prototypes.  Per-coordinate noise std is
    ``noise_sigma / sqrt(Dv + Da)`` so the expected noise norm is
    ``noise_sigma`` regardless of dimensionality.  Within each event, the
    first half of the videos is shorter than tau and the rest longer, so the
    duration split works with any event as the interest event.

    A failed run removes the files and directories it created.  A file that
    was there before is kept, with the new bytes if the run replaced it.
    """
    spec.validate()
    out_dir = Path(out_dir)
    created: List[Path] = []  # in creation order
    try:
        for sub in (out_dir / "features", out_dir / "labels"):
            created += reversed([d for d in (sub, *sub.parents) if not d.exists()])
            sub.mkdir(parents=True, exist_ok=True)
        return _write_synthetic(spec, out_dir, created)
    except BaseException:
        for path in reversed(created):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink(missing_ok=True)
        raise


def _write_synthetic(spec: SyntheticSpec, out_dir: Path, created: List[Path]) -> DatasetIndex:
    dv, da = spec.feature_dims
    d = dv + da
    rng = np.random.default_rng(spec.seed)

    def unit(v: np.ndarray) -> np.ndarray:
        return v / np.linalg.norm(v)

    prototypes = [unit(rng.standard_normal(d)) for _ in range(spec.n_events)]
    background = [unit(rng.standard_normal(d)) for _ in range(spec.n_background)]
    coord_sigma = spec.noise_sigma / math.sqrt(d)

    n_hl = math.ceil(spec.highlight_fraction * spec.segments_per_video)
    index = DatasetIndex()
    for e in range(spec.n_events):
        tag = f"ev{e:02d}"
        for v in range(spec.videos_per_event):
            video_id = f"{tag}_{v:03d}"
            hl_pos = rng.choice(spec.segments_per_video, size=n_hl, replace=False)
            labels = np.zeros(spec.segments_per_video, dtype=np.int64)
            labels[hl_pos] = 1
            feats = np.empty((spec.segments_per_video, d), dtype=np.float64)
            for s in range(spec.segments_per_video):
                proto = prototypes[e] if labels[s] else background[rng.integers(spec.n_background)]
                feats[s] = proto + coord_sigma * rng.standard_normal(d)
            if v < spec.videos_per_event // 2:
                duration = float(rng.uniform(0.5 * spec.tau, 0.98 * spec.tau))
            else:
                duration = float(rng.uniform(1.05 * spec.tau, 1.95 * spec.tau))
            fpath = out_dir / "features" / f"{video_id}.mnf"
            lpath = out_dir / "labels" / f"{video_id}.txt"
            created += [path for path in (fpath, lpath) if not path.exists()]
            write_feature_file(fpath, feats[:, :dv], feats[:, dv:], expect_dims=(dv, da))
            write_atomic(lpath, "".join(f"{x}\n" for x in labels).encode("utf-8"))
            index.records.append(VideoRef(video_id, tag, duration, fpath, lpath))
    manifest = out_dir / "manifest.tsv"
    if not manifest.exists():
        created.append(manifest)
    write_manifest(index, manifest)
    return index
