import dataclasses
import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from conftest import TOY
from milrank.data import SyntheticSpec, gen_synthetic
from milrank.errors import ConfigError, FormatError, NumericError
from milrank.model import ModelParams, init_params, zero_like_params
from milrank.train import (
    Checkpoint,
    OptimizerState,
    TrainingConfig,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    train_event,
)

TOY_TRAIN = TrainingConfig(
    epochs=2,
    bag_size=6,
    seed=3,
    model=dataclasses.replace(TOY, dv=8, da=4),
)

TOY_SPEC = SyntheticSpec(
    n_events=2,
    videos_per_event=6,
    segments_per_video=8,
    highlight_fraction=0.25,
    noise_sigma=0.1,
    feature_dims=(8, 4),
    seed=11,
    n_background=3,
)


@pytest.fixture(scope="module")
def toy_index(tmp_path_factory):
    return gen_synthetic(TOY_SPEC, tmp_path_factory.mktemp("toy-data"))


class TestLrSchedule:
    def test_default_schedule_values(self):
        cfg = TrainingConfig()
        assert abs(lr_at(0, cfg) - 0.005) < 1e-12
        assert abs(lr_at(19, cfg) - 0.005) < 1e-12
        assert abs(lr_at(20, cfg) - 0.0035) < 1e-12
        assert abs(lr_at(40, cfg) - 0.00245) < 1e-12

    def test_piecewise_constant(self):
        cfg = TrainingConfig(lr0=1.0, lr_decay=0.5, lr_decay_every=3)
        values = [lr_at(e, cfg) for e in range(9)]
        assert values == [1.0] * 3 + [0.5] * 3 + [0.25] * 3

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            lr_at(-1, TrainingConfig())


class FlatParams(ModelParams):
    """Bypass the config-driven shape table for scalar optimizer tests."""

    def __init__(self, tensors):
        self.config = None
        self.tensors = tensors
        self.version = 0


class TestSgdStep:
    def test_hand_first_step(self):
        cfg = TrainingConfig(momentum=0.9, weight_decay=0.0005)
        params = FlatParams({"w": np.array([1.0])})
        state = OptimizerState(velocity={"w": np.array([0.0])})
        sgd_step(params, {"w": np.array([2.0])}, state, lr=0.1, config=cfg)
        # v = 0.9 * 0 + (2 + 0.0005 * 1) = 2.0005; theta = 1 - 0.1 * v
        assert abs(params.tensors["w"][0] - 0.79995) < 1e-9
        assert abs(state.velocity["w"][0] - 2.0005) < 1e-9
        assert state.step == 1

    def test_hand_second_step_momentum(self):
        cfg = TrainingConfig(momentum=0.9, weight_decay=0.0)
        params = FlatParams({"w": np.array([0.0])})
        state = OptimizerState(velocity={"w": np.array([0.0])})
        g = {"w": np.array([1.0])}
        sgd_step(params, g, state, lr=1.0, config=cfg)
        sgd_step(params, g, state, lr=1.0, config=cfg)
        # velocities 1 then 1.9; theta = -(1 + 1.9)
        assert abs(state.velocity["w"][0] - 1.9) < 1e-9
        assert abs(params.tensors["w"][0] + 2.9) < 1e-9

    def test_pure_decay(self):
        cfg = TrainingConfig(momentum=0.0, weight_decay=0.0005)
        params = FlatParams({"w": np.array([1.0])})
        state = OptimizerState(velocity={"w": np.array([0.0])})
        sgd_step(params, {"w": np.array([0.0])}, state, lr=0.005, config=cfg)
        assert abs(params.tensors["w"][0] - 0.9999975) < 1e-9

    def test_version_bumped(self):
        params = FlatParams({"w": np.array([1.0])})
        v0 = params.version
        state = OptimizerState(velocity={"w": np.array([0.0])})
        sgd_step(params, {"w": np.array([1.0])}, state, 0.1, TrainingConfig())
        assert params.version != v0

    def test_nonfinite_gradient(self):
        params = FlatParams({"w": np.array([1.0])})
        state = OptimizerState(velocity={"w": np.array([0.0])})
        with pytest.raises(NumericError, match="w"):
            sgd_step(params, {"w": np.array([np.nan])}, state, 0.1, TrainingConfig())

    def test_float32_gradient_updates_float64_master(self, rng):
        cfg = TrainingConfig(momentum=0.9, weight_decay=0.0005)
        theta, v = rng.standard_normal(7), rng.standard_normal(7)
        g = rng.standard_normal(7).astype(np.float32)
        params = FlatParams({"w": theta.copy()})
        state = OptimizerState(velocity={"w": v.copy()})
        sgd_step(params, {"w": g}, state, lr=0.1, config=cfg)
        v_ref = 0.9 * v + (g.astype(np.float64) + 0.0005 * theta)
        assert params.tensors["w"].dtype == state.velocity["w"].dtype == np.float64
        assert np.array_equal(state.velocity["w"], v_ref)
        assert np.array_equal(params.tensors["w"], theta - 0.1 * v_ref)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr0": 0.0},
            {"lr_decay": 0.0},
            {"lr_decay_every": 0},
            {"bag_size": 0},
            {"eps": -0.1},
            {"epochs": 0},
            {"loss_variant": "best-best"},
            {"no_mmrl": True, "no_bcm": True},
            {"no_audio": True, "no_vision": True},
            {"lr0": float("nan")},
            {"lr0": float("inf")},
            {"eps": float("nan")},
            {"tau": 0.0},
            {"tau": -5.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"momentum": 7.0},
            {"weight_decay": -1.0},
            {"seed": -1},
            {"epochs": 2.5},
            {"bag_size": 2.5},
            {"epochs": True},
            {"lr_decay_every": True},
            {"seed": "1"},
            {"no_bcm": 1},
            {"no_audio": None},
            {"lr0": True},
            {"tau": "60"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            dataclasses.replace(TrainingConfig(), **kwargs).validate()

    def test_defaults_valid(self):
        TrainingConfig().validate()

    def test_int_for_float_and_numpy_int_valid(self):
        TrainingConfig(tau=60, lr0=1, seed=np.int64(3), epochs=np.int32(2)).validate()

    def test_train_event_rejects_fractional_epochs(self, toy_index):
        with pytest.raises(ConfigError, match="epochs must be of type int, got 2.5"):
            train_event(toy_index, "ev00", dataclasses.replace(TOY_TRAIN, epochs=2.5))


class TestTrainEvent:
    def test_deterministic(self, toy_index):
        p1, log1 = train_event(toy_index, "ev00", TOY_TRAIN)
        p2, log2 = train_event(toy_index, "ev00", TOY_TRAIN)
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name]), name
        assert log1 == log2

    def test_seed_changes_result(self, toy_index):
        p1, _ = train_event(toy_index, "ev00", TOY_TRAIN)
        p2, _ = train_event(toy_index, "ev00", dataclasses.replace(TOY_TRAIN, seed=4))
        assert any(not np.array_equal(p1.tensors[n], p2.tensors[n]) for n in p1.tensors)

    def test_loss_decreases(self, toy_index):
        cfg = dataclasses.replace(TOY_TRAIN, epochs=40, lr0=0.05)
        _, log = train_event(toy_index, "ev00", cfg)
        first = np.mean([e["total"] for e in log[:3]])
        last = np.mean([e["total"] for e in log[-3:]])
        assert last < first

    def test_log_file_written(self, toy_index, tmp_path):
        _, log = train_event(toy_index, "ev01", TOY_TRAIN, out_dir=tmp_path)
        lines = (tmp_path / "ev01.train.log").read_text().strip().splitlines()
        assert len(lines) == TOY_TRAIN.epochs
        fields = lines[0].split("\t")
        assert len(fields) == 6
        assert int(fields[0]) == 0
        assert abs(float(fields[1]) - TOY_TRAIN.lr0) < 1e-12

    def test_unknown_event(self, toy_index):
        from milrank.errors import DataError

        with pytest.raises(DataError):
            train_event(toy_index, "ev99", TOY_TRAIN)

    def test_outputs_stay_float64(self, toy_index, tmp_path):
        """Returned and checkpointed values are float64, and each one is a
        float32 value: training kept one float32 set of each."""
        params, _ = train_event(toy_index, "ev00", TOY_TRAIN, checkpoint_path=tmp_path / "c.mnck")
        ckpt = load_checkpoint(tmp_path / "c.mnck")
        for group in (params.tensors, ckpt.params.tensors, ckpt.state.velocity):
            for name, t in group.items():
                assert t.dtype == np.float64, name
                assert np.array_equal(t, t.astype(np.float32)), name
        for name, t in params.tensors.items():
            assert np.array_equal(ckpt.params.tensors[name], t), name

    def test_one_float32_parameter_set(self, toy_index, monkeypatch):
        import milrank.train as trainmod

        seen, forward = [], trainmod.forward_stacked

        def spy(vision, audio, params, *args, **kwargs):
            seen.append((params, {t.dtype for t in params.tensors.values()}))
            return forward(vision, audio, params, *args, **kwargs)

        monkeypatch.setattr(trainmod, "forward_stacked", spy)
        params, _ = train_event(toy_index, "ev00", TOY_TRAIN)
        assert len(seen) > 1
        assert all(p is params and dtypes == {np.dtype(np.float32)} for p, dtypes in seen)
        assert all(t.dtype == np.float64 for t in params.tensors.values())


class TestCheckpointIO:
    def make_checkpoint(self, seed=0):
        cfg = TOY_TRAIN
        params = init_params(cfg.model, seed)
        rng = np.random.default_rng(seed)
        for t in params.tensors.values():
            t += 0.01 * rng.standard_normal(t.shape)
        velocity = zero_like_params(params)
        for t in velocity.values():
            t += rng.standard_normal(t.shape)
        state = OptimizerState(velocity=velocity, step=17, epoch=3)
        rng_states = {
            "bag": np.random.default_rng(1).bit_generator.state,
            "negative": np.random.default_rng(2).bit_generator.state,
            "shuffle": np.random.default_rng(3).bit_generator.state,
        }
        return Checkpoint(params, cfg, state, rng_states)

    def test_round_trip_exact(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "c.mnck"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.state.step == 17 and loaded.state.epoch == 3
        assert loaded.rng_states == ckpt.rng_states
        for name in ckpt.params.tensors:
            assert np.array_equal(loaded.params.tensors[name], ckpt.params.tensors[name])
            assert np.array_equal(loaded.state.velocity[name], ckpt.state.velocity[name])
            assert loaded.params.tensors[name].dtype == np.float64

    def test_save_deterministic_bytes(self, tmp_path):
        ckpt = self.make_checkpoint()
        save_checkpoint(tmp_path / "a.mnck", ckpt)
        save_checkpoint(tmp_path / "b.mnck", ckpt)
        assert (tmp_path / "a.mnck").read_bytes() == (tmp_path / "b.mnck").read_bytes()

    def test_bytes_pinned(self, tmp_path):
        """One fixed checkpoint's bytes, so the container layout cannot drift."""
        save_checkpoint(tmp_path / "c.mnck", self.make_checkpoint())
        digest = hashlib.sha256((tmp_path / "c.mnck").read_bytes()).hexdigest()
        assert digest == "7786720e74a5bdf2312461ca2ae912b0fa75a4716066ee0cd10a7ab277cc9799"

    def test_magic(self, tmp_path):
        save_checkpoint(tmp_path / "c.mnck", self.make_checkpoint())
        assert (tmp_path / "c.mnck").read_bytes()[:4] == b"MNCK"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mnck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        path.write_bytes(path.read_bytes()[:-11])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    @staticmethod
    def replace_metadata(path, meta: bytes) -> None:
        raw = path.read_bytes()
        old_len = int.from_bytes(raw[8:12], "little")
        path.write_bytes(raw[:8] + len(meta).to_bytes(4, "little") + meta + raw[12 + old_len :])

    @pytest.mark.parametrize(
        "meta",
        [
            b'{"config": \xff}',
            b'{"config": ',
            b'["config", "step", "epoch"]',
            b'{"step": 0, "epoch": 0}',
            b'{"config": {"model": {}}, "epoch": 0}',
            b'{"config": {"model": {}}, "step": 0}',
            b'{"config": {"model": {}, "speed": 2}, "step": 0, "epoch": 0}',
            b'{"config": {"model": {"depth": 3}}, "step": 0, "epoch": 0}',
            b'{"config": {"lr0": 0.1}, "step": 0, "epoch": 0}',
            b'{"config": {"model": {}, "momentum": 7.0}, "step": 0, "epoch": 0}',
        ],
        ids=["utf8", "json", "not-object", "no-config", "no-step", "no-epoch",
             "unknown-key", "unknown-model-key", "no-model", "invalid-value"],
    )
    def test_bad_metadata(self, tmp_path, meta):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        self.replace_metadata(path, meta)
        with pytest.raises(FormatError, match="c.mnck: .*metadata"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    @staticmethod
    def metadata(path) -> dict:
        raw = path.read_bytes()
        return json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])

    def test_tensor_name_not_utf8(self, tmp_path):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"p/bc1", b"p/\xffc1", 1))
        with pytest.raises(FormatError, match="c.mnck: tensor name is not UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("k", ["2", 2.0, None], ids=["str", "float", "null"])
    def test_model_width_not_an_int(self, tmp_path, k):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        meta = self.metadata(path)
        del meta["meta_crc32"]  # reach the value check, not the checksum
        meta["config"]["model"]["k"] = k
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        with pytest.raises(FormatError, match="c.mnck: .*metadata"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("epochs", True), ("no_bcm", 1), ("bag_size", 2.5)])
    def test_config_field_of_wrong_type(self, tmp_path, key, value):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        meta = self.metadata(path)
        del meta["meta_crc32"]
        meta["config"][key] = value
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        with pytest.raises(FormatError, match=f"c.mnck: malformed checkpoint metadata: .*{key}"):
            load_checkpoint(path)

    def write_blocks(self, path, blocks) -> None:
        """A checkpoint whose tensor section holds ``blocks``, (name, float64
        array) pairs, with both checksums valid."""
        save_checkpoint(path, self.make_checkpoint())
        section = bytearray(struct.pack("<I", len(blocks)))
        for name, a in blocks:
            nb = name.encode("utf-8")
            section += struct.pack("<I", len(nb)) + nb
            section += struct.pack(f"<BI{a.ndim}I", 2, a.ndim, *a.shape) + a.astype("<f8").tobytes()
        meta = self.metadata(path)
        del meta["meta_crc32"]
        meta["tensor_crc32"] = zlib.crc32(section)
        meta["meta_crc32"] = zlib.crc32(json.dumps(meta, sort_keys=True).encode("utf-8"))
        meta_bytes = json.dumps(meta).encode("utf-8")
        path.write_bytes(b"MNCK" + struct.pack("<II", 1, len(meta_bytes)) + meta_bytes + section)

    def valid_blocks(self):
        ckpt = self.make_checkpoint()
        return [(f"p/{k}", v) for k, v in ckpt.params.tensors.items()] + [
            (f"v/{k}", v) for k, v in ckpt.state.velocity.items()
        ]

    def test_hand_built_blocks_load(self, tmp_path):
        path = tmp_path / "c.mnck"
        self.write_blocks(path, self.valid_blocks())
        loaded = load_checkpoint(path)
        for name, t in self.make_checkpoint().params.tensors.items():
            assert np.array_equal(loaded.params.tensors[name], t), name

    @pytest.mark.parametrize("name", ["x/wv1", "wv1", "", "p", "q/"])
    def test_stray_tensor_block(self, tmp_path, name):
        path = tmp_path / "c.mnck"
        self.write_blocks(path, self.valid_blocks() + [(name, np.zeros(3))])
        with pytest.raises(FormatError, match=f"c.mnck: unexpected tensor '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["p/wv1", "v/bc1"])
    def test_duplicate_tensor_block(self, tmp_path, name):
        blocks = self.valid_blocks()
        first = dict(blocks)[name]
        path = tmp_path / "c.mnck"
        self.write_blocks(path, blocks + [(name, first + 1.0)])
        with pytest.raises(FormatError, match=f"c.mnck: duplicate tensor {name}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["none", "missing-one", "extra-one", "wrong-shape"])
    def test_velocities_must_match_parameters(self, tmp_path, fault):
        """The error names each missing, extra or misshapen velocity tensor."""
        ckpt = self.make_checkpoint()
        velocity = ckpt.state.velocity
        if fault == "none":
            velocity.clear()
        elif fault == "missing-one":
            del velocity["bc1"]
        elif fault == "extra-one":
            velocity["extra"] = np.zeros(3)
        else:
            velocity["bc1"] = np.zeros(velocity["bc1"].size + 1)
        path = tmp_path / "c.mnck"
        save_checkpoint(path, ckpt)
        names = {
            "none": r"missing \['bc1', 'bc2', 'bh', 'bs', 'bv1', 'bv2', 'f0_b1', .*, 'wv2'\]",
            "missing-one": r"missing \['bc1'\]",
            "extra-one": r"extra \['extra'\]",
            "wrong-shape": r"misshapen \['bc1'\]",
        }[fault]
        with pytest.raises(FormatError, match=f"c.mnck: velocity tensors do not match the parameter tensors: {names}$"):
            load_checkpoint(path)

    def test_flipped_payload_bit_detected(self, tmp_path):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x10  # inside the last tensor's float64 payload
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="c.mnck: tensor checksum mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("ndim,dims,message", [
        (2, [2**32 - 1, 2**32 - 1], "truncated checkpoint"),  # more entries than int64 holds
        (100, [0] * 100, "tensor p/bc1 has 100 dimensions"),
    ])
    def test_corrupt_tensor_shape(self, tmp_path, ndim, dims, message):
        """A shape that no checksum covers (the file has none) is refused."""
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        meta = self.metadata(path)
        del meta["tensor_crc32"]
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        raw = path.read_bytes()
        at = raw.index(b"p/bc1") + len(b"p/bc1") + 1  # after the name and the dtype code
        shape = ndim.to_bytes(4, "little") + b"".join(d.to_bytes(4, "little") for d in dims)
        path.write_bytes(raw[:at] + shape + raw[at + 8:])
        with pytest.raises(FormatError, match=f"c.mnck: {message}"):
            load_checkpoint(path)

    def test_checkpoint_without_checksum_loads(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "c.mnck"
        save_checkpoint(path, ckpt)
        meta = self.metadata(path)
        del meta["tensor_crc32"], meta["meta_crc32"]
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        loaded = load_checkpoint(path)
        for name in ckpt.params.tensors:
            assert np.array_equal(loaded.params.tensors[name], ckpt.params.tensors[name])

    @pytest.mark.parametrize("key,value", [
        ("step", -9), ("step", 1.5), ("step", True), ("epoch", []), ("epoch", None),
        ("params_version", {}), ("params_version", -1), ("params_version", False),
    ])
    def test_counters_must_be_counts(self, tmp_path, key, value):
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        meta = self.metadata(path)
        del meta["meta_crc32"]
        meta[key] = value
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        with pytest.raises(FormatError, match=f"c.mnck: malformed checkpoint metadata: {key}"):
            load_checkpoint(path)

    def test_older_metadata_loads(self, tmp_path):
        """Metadata without the checksum of itself or a parameter version, as
        older checkpoints have it: it loads, and the version is 0."""
        path = tmp_path / "c.mnck"
        save_checkpoint(path, self.make_checkpoint())
        meta = self.metadata(path)
        del meta["meta_crc32"], meta["params_version"]
        self.replace_metadata(path, json.dumps(meta).encode("utf-8"))
        loaded = load_checkpoint(path)
        assert loaded.state.step == 17 and loaded.params.version == 0
