import argparse
import concurrent.futures
import json
import os
import signal
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import shift_one_entry
import milrank
from milrank.cli import build_parser, main
from milrank.data import read_feature_file, read_manifest, write_feature_file
from milrank.errors import ConfigError, FormatError
from milrank.train import TrainingConfig, load_checkpoint, train_event

SYNTH_ARGS = [
    "synth",
    "--seed",
    "8",
    "--events",
    "2",
    "--videos-per-event",
    "4",
    "--segments-per-video",
    "8",
    "--highlight-fraction",
    "0.25",
]

TRAIN_ARGS = ["--epochs", "2", "--bag-size", "4", "--seed", "5"]

# Every training config key, its flag, and a value that differs from both the
# default and TRAIN_ARGS.
CONFIG_KEYS = [
    ("lr0", "--lr0", "0.01"),
    ("lr_decay", "--lr-decay", "0.5"),
    ("lr_decay_every", "--lr-decay-every", "3"),
    ("momentum", "--momentum", "0.8"),
    ("weight_decay", "--weight-decay", "0.001"),
    ("epochs", "--epochs", "1"),
    ("bag_size", "--bag-size", "3"),
    ("tau", "--tau", "50.0"),
    ("eps", "--epsilon", "0.5"),
    ("loss_variant", "--loss-variant", "min-max"),
    ("no_audio", "--no-audio", "True"),
    ("no_vision", "--no-vision", "True"),
    ("no_mmrl", "--no-mmrl", "True"),
    ("no_bcm", "--no-bcm", "True"),
    ("seed", "--seed", "7"),
    ("model.k", "--k", "2"),
]


# Every option string of every subcommand.  A flag is added or removed by
# editing this table as well.
FLAG_SURFACE = {
    "train": [
        "-h", "--help", "--config", "--lr0", "--lr-decay", "--lr-decay-every", "--momentum",
        "--weight-decay", "--epochs", "--bag-size", "--tau", "--epsilon", "--loss-variant",
        "--no-audio", "--no-vision", "--no-mmrl", "--no-bcm", "--seed",
        "--k", "--manifest", "--event", "--out",
    ],
    "eval": ["-h", "--help", "--checkpoint", "--manifest", "--event", "--metric", "--out"],
    "score": ["-h", "--help", "--checkpoint", "--features", "--topk"],
    "synth": [
        "-h", "--help", "--out", "--seed", "--events", "--videos-per-event",
        "--segments-per-video", "--highlight-fraction", "--noise-sigma", "--tau",
    ],
    "gradcheck": ["-h", "--help", "--variant", "--seeds"],
}


def test_flag_surface():
    parser = build_parser()
    assert [o for a in parser._actions for o in a.option_strings] == ["-h", "--help"]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: [o for a in p._actions for o in a.option_strings] for name, p in sub.choices.items()}
    assert surface == FLAG_SURFACE


def child_env() -> dict:
    """Environment for a child Python that imports the package under test,
    installed or not."""
    src = str(Path(milrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    assert main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("cli-train")
    code = main(
        ["train", "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(out)]
        + TRAIN_ARGS
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["transcend"]) == 2
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_train_without_seed(self, dataset, tmp_path, capsys):
        code = main(
            [
                "train",
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev00",
                "--out",
                str(tmp_path),
                "--epochs",
                "1",
            ]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_invalid_config_value(self, dataset, tmp_path, capsys):
        code = main(
            [
                "train",
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev00",
                "--out",
                str(tmp_path),
                "--seed",
                "1",
                "--lr0",
                "-1",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_missing_manifest_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["train", "--manifest", str(tmp_path / "nope.tsv"), "--event", "e", "--out", str(tmp_path), "--seed", "1"]
        )
        assert code == 1
        capsys.readouterr()

    def test_synth_without_seed(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--events", "0"),
            ("--highlight-fraction", "2"),
            ("--tau", "-5"),
            ("--tau", "nan"),
            ("--noise-sigma", "nan"),
            ("--seed", "-1"),
        ],
    )
    def test_synth_bad_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", flag, value]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_synth_float32_overflow_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "d"
        args = SYNTH_ARGS + ["--out", str(out), "--noise-sigma", "1e40"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main(args) == 1
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    def test_non_finite_training_step_names_where(self, tmp_path, capsys):
        data = tmp_path / "d"
        synth = ["synth", "--seed", "5", "--events", "2", "--videos-per-event", "6", "--segments-per-video", "20"]
        assert main(synth + ["--out", str(data)]) == 0
        path = data / "features" / "ev00_001.mnf"
        vision, audio = read_feature_file(path)
        write_feature_file(path, np.full_like(vision, 3e37), audio)  # finite in float32, so the reader accepts it
        capsys.readouterr()
        train = ["train", "--manifest", str(data / "manifest.tsv"), "--event", "ev00", "--epochs", "2", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert main(train + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: event ev00, epoch 0, step 2, videos ev00_000 and ev01_003: non-finite values in raw scores\n"
        )

    def test_non_utf8_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\nepochs = \xff\n")
        code = main(
            ["train", "--config", str(cfg), "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"configuration error: {cfg}: not UTF-8 text" in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line",
        ["lr0 = nan", "lr0 = inf", "eps = nan", "tau = -5", "momentum = 7", "weight_decay = -1", "seed = -1"],
    )
    def test_invalid_config_file_value(self, dataset, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\nepochs = 1\n{line}\n")
        code = main(
            ["train", "--config", str(cfg), "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSynth:
    def test_writes_manifest(self, dataset):
        index = read_manifest(dataset / "manifest.tsv")
        assert len(index) == 8
        assert index.events == {"ev00", "ev01"}

    def test_deterministic_across_invocations(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(SYNTH_ARGS + ["--out", str(a)]) == 0
        assert main(SYNTH_ARGS + ["--out", str(b)]) == 0
        capsys.readouterr()
        fa = sorted(p.name for p in (a / "features").iterdir())
        fb = sorted(p.name for p in (b / "features").iterdir())
        assert fa == fb
        for name in fa:
            assert (a / "features" / name).read_bytes() == (b / "features" / name).read_bytes()


class TestTrain:
    def test_outputs(self, trained):
        assert (trained / "ev00.mnck").is_file()
        assert (trained / "ev00.train.log").is_file()
        assert (trained / "config.txt").is_file()
        ckpt = load_checkpoint(trained / "ev00.mnck")
        assert ckpt.state.epoch == 2

    def test_no_temporary_files_left(self, trained):
        assert sorted(p.name for p in trained.iterdir()) == ["config.txt", "ev00.mnck", "ev00.train.log"]

    def test_config_echo_contains_overrides(self, trained):
        text = (trained / "config.txt").read_text()
        assert "epochs = 2" in text
        assert "bag_size = 4" in text
        assert "model.k = 4" in text

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbag_size = 4\nseed = 9  # inline comment\nlr0 = 0.01\n")
        out = tmp_path / "out"
        code = main(
            [
                "train",
                "--config",
                str(cfg),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev00",
                "--out",
                str(out),
                "--lr0",
                "0.002",
            ]
        )
        capsys.readouterr()
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "lr0 = 0.002" in text
        assert "seed = 9" in text

    def test_unknown_config_key(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.1\nseed = 1\n")
        code = main(
            ["train", "--config", str(cfg), "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_old_k_key_rejected(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nseed = 1\n")
        code = main(
            ["train", "--config", str(cfg), "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "'k'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key,flag,value", CONFIG_KEYS, ids=[k for k, _, _ in CONFIG_KEYS])
    def test_every_key_echoed(self, dataset, tmp_path, capsys, key, flag, value, source):
        args = ["train", "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(tmp_path / "o")]
        if source == "flag":
            args += TRAIN_ARGS + ([flag] if value == "True" else [flag, value])
        else:
            settings = {"epochs": "2", "bag_size": "4", "seed": "5", key: value}
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            args += ["--config", str(cfg)]
        assert main(args) == 0
        capsys.readouterr()
        lines = (tmp_path / "o" / "config.txt").read_text().splitlines()
        assert f"{key} = {value}" in lines
        assert sorted(line.split(" = ")[0] for line in lines) == sorted(k for k, _, _ in CONFIG_KEYS)

    def test_config_txt_reproduces_run(self, dataset, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["train", "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out"]
        assert main(base + [str(a)] + TRAIN_ARGS + ["--k", "2", "--epsilon", "0.5", "--no-bcm"]) == 0
        assert main(base + [str(b), "--config", str(a / "config.txt")]) == 0
        capsys.readouterr()
        for name in ("config.txt", "ev00.mnck", "ev00.train.log"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert load_checkpoint(b / "ev00.mnck").config.model.k == 2

    def test_determinism_bit_identical_checkpoints(self, dataset, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                ["train", "--manifest", str(dataset / "manifest.tsv"), "--event", "ev00", "--out", str(out)]
                + TRAIN_ARGS
            )
            assert code == 0
            outs.append(out)
        capsys.readouterr()
        assert (outs[0] / "ev00.mnck").read_bytes() == (outs[1] / "ev00.mnck").read_bytes()
        assert (outs[0] / "ev00.train.log").read_text() == (outs[1] / "ev00.train.log").read_text()


class TestEvalScore:
    def test_eval_map(self, dataset, trained, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "ev00.mnck"),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev00",
                "--metric",
                "map",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        fields = out.strip().splitlines()[-1].split("\t")
        assert fields[0] == "ev00" and fields[1] == "mAP"
        assert 0.0 <= float(fields[2]) <= 1.0
        assert (tmp_path / "ev00.map.report").is_file()

    def test_eval_top5map(self, dataset, trained, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "ev00.mnck"),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev00",
                "--metric",
                "top5map",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "top5-mAP" in capsys.readouterr().out

    def test_eval_unknown_event(self, dataset, trained, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained / "ev00.mnck"),
                "--manifest",
                str(dataset / "manifest.tsv"),
                "--event",
                "ev77",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_score_lists_all_segments(self, dataset, trained, capsys):
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(feature)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        first = lines[0].split("\t")
        assert first[0] == "0" and float(first[1]) == 0.0
        float(first[2])

    def test_score_topk_clamp_warns(self, dataset, trained, capsys):
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(
            ["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(feature), "--topk", "99"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "clamped" in captured.err
        assert len(captured.out.strip().splitlines()) == 8

    def test_score_topk(self, dataset, trained, capsys):
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(
            ["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(feature), "--topk", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_score_topk_zero_is_usage_error(self, dataset, trained, capsys):
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(
            ["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(feature), "--topk", "0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "topk" in captured.err and captured.out == ""

    def test_score_rejects_wrong_dims(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.mnf"
        write_feature_file(bad, np.zeros((2, 8)), np.zeros((2, 4)), expect_dims=None)
        code = main(["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(bad)])
        assert code == 1
        capsys.readouterr()


    def test_score_corrupt_checkpoint_metadata(self, dataset, trained, tmp_path, capsys):
        raw = bytearray((trained / "ev00.mnck").read_bytes())
        raw[12] = 0xFF  # first byte of the JSON metadata
        bad = tmp_path / "bad.mnck"
        bad.write_bytes(bytes(raw))
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(["score", "--checkpoint", str(bad), "--features", str(feature)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.mnck" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("edit", [(b'"lr0": 0.005,', b'"lr0": 0.009,'), (b'"seed": 5,', b'"seed": 7,')])
    def test_score_edited_checkpoint_metadata(self, dataset, trained, tmp_path, capsys, edit):
        raw = (trained / "ev00.mnck").read_bytes()
        assert raw.count(edit[0]) == 1
        bad = tmp_path / "bad.mnck"
        bad.write_bytes(raw.replace(*edit))
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(["score", "--checkpoint", str(bad), "--features", str(feature)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.mnck: metadata checksum mismatch" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_score_deeply_nested_checkpoint_metadata(self, dataset, tmp_path, capsys):
        meta = b"[" * 200_000 + b"]" * 200_000
        bad = tmp_path / "bad.mnck"
        bad.write_bytes(b"MNCK" + (1).to_bytes(4, "little") + len(meta).to_bytes(4, "little") + meta)
        feature = next(iter(sorted((dataset / "features").iterdir())))
        code = main(["score", "--checkpoint", str(bad), "--features", str(feature)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.mnck: unreadable checkpoint metadata" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_score_checkpoint_with_pairs_per_step(self, dataset, trained, tmp_path, capsys, pairs):
        """Checkpoints from before one pair per step store `pairs_per_step`;
        the only value such a run could share with today's is 1."""
        raw = (trained / "ev00.mnck").read_bytes()
        meta_len = int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12 : 12 + meta_len])
        del meta["meta_crc32"]
        meta["config"]["pairs_per_step"] = pairs
        meta["meta_crc32"] = zlib.crc32(json.dumps(meta, sort_keys=True).encode("utf-8"))
        new_meta = json.dumps(meta, sort_keys=True).encode("utf-8")
        old = tmp_path / "old.mnck"
        old.write_bytes(raw[:8] + len(new_meta).to_bytes(4, "little") + new_meta + raw[12 + meta_len :])
        feature = next(iter(sorted((dataset / "features").iterdir())))
        assert main(["score", "--checkpoint", str(trained / "ev00.mnck"), "--features", str(feature)]) == 0
        expected = capsys.readouterr().out
        code = main(["score", "--checkpoint", str(old), "--features", str(feature)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if pairs == 1:
            assert code == 0 and captured.out == expected
            assert load_checkpoint(old).config == load_checkpoint(trained / "ev00.mnck").config
        else:
            assert code == 1 and captured.out == ""
            assert "old.mnck: malformed checkpoint metadata" in captured.err
            assert "pairs_per_step 2 is not supported" in captured.err
            with pytest.raises(FormatError, match="pairs_per_step"):
                load_checkpoint(old)


class TestGradcheckCommand:
    def test_single_variant_single_seed(self, capsys):
        code = main(["gradcheck", "--variant", "max-max", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # 3 modalities x (plain, no-bcm, no-mmrl)
        for line in lines:
            label, err = line.split("\t")
            assert float(err) < 1e-4

    def test_perturb_hook_fails(self, capsys, monkeypatch):
        """A case at the tolerance fails the command; the error comes from a
        patched check."""
        monkeypatch.setattr(milrank.cli, "run_gradient_check",
                            lambda seeds, variants: {"max-max": 1e-9, "min-max": milrank.cli.TOLERANCE})
        code = main(["gradcheck", "--variant", "max-max", "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "max-max\t1.000e-09\nmin-max\t1.000e-04\n"
        assert captured.err == "FAILED: min-max exceed 0.0001\n"

    def test_wrong_backward_fails(self, capsys, monkeypatch):
        """A backward wrong in one entry of one tensor fails every case, since
        every case trains the first fusion branch."""
        monkeypatch.setattr(milrank.gradcheck, "backward", shift_one_entry(milrank.gradcheck.backward))
        code = main(["gradcheck", "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 1
        errors = [float(line.split("\t")[1]) for line in captured.out.splitlines()]
        assert len(errors) == 27 and min(errors) >= milrank.cli.TOLERANCE
        assert captured.err.startswith("FAILED: ")

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_usage_error(self, capsys, seeds):
        code = main(["gradcheck", "--variant", "max-max", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""


class TestSubprocessEntry:
    def test_module_invocation_deterministic_bytes(self, tmp_path):
        cmd = [sys.executable, "-m", "milrank.cli"] + SYNTH_ARGS
        env = child_env()
        r1 = subprocess.run(cmd + ["--out", str(tmp_path / "a")], capture_output=True, text=True, env=env)
        r2 = subprocess.run(cmd + ["--out", str(tmp_path / "b")], capture_output=True, text=True, env=env)
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout.replace(str(tmp_path / "a"), "X") == r2.stdout.replace(
            str(tmp_path / "b"), "X"
        )


@pytest.fixture(scope="module")
def dataset4(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data4")
    args = SYNTH_ARGS + ["--out", str(out)]
    args[args.index("--events") + 1] = "4"
    assert main(args) == 0
    return out


def train_args(dataset, out, events):
    args = ["train", "--manifest", str(dataset / "manifest.tsv"), "--out", str(out)] + TRAIN_ARGS
    for event in events:
        args += ["--event", event]
    return args


def record_pids(monkeypatch, log):
    """Wrap `train_event` so every process that trains appends its pid."""
    real = milrank.cli.train_event

    def traced(index, event, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\t{event}\n")
        return real(index, event, *args, **kwargs)

    monkeypatch.setattr(milrank.cli, "train_event", traced)


def trainers(log):
    return dict(line.split("\t")[::-1] for line in log.read_text().splitlines())


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestParallelTrain:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, when a parallel run does not finish."""

        def expire(signum, frame):
            raise TimeoutError("training did not finish within 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_three_events_match_serial(self, dataset4, tmp_path, capsys, monkeypatch):
        log = tmp_path / "pids"
        record_pids(monkeypatch, log)
        usable_cpus(monkeypatch, 2)
        events = ["ev02", "ev00", "ev01"]
        assert main(train_args(dataset4, tmp_path / "par", events)) == 0
        par_out = capsys.readouterr().out
        by_event = trainers(log)
        # the parent trains the first and third event, a forked worker the second
        assert by_event["ev02"] == by_event["ev01"] == str(os.getpid()) != by_event["ev00"]

        ref = tmp_path / "ref"
        config = TrainingConfig(epochs=2, bag_size=4, seed=5)
        index = read_manifest(dataset4 / "manifest.tsv")
        for event in events:
            train_event(index, event, config, out_dir=ref, checkpoint_path=ref / f"{event}.mnck")
        usable_cpus(monkeypatch, 1)
        assert main(train_args(dataset4, tmp_path / "ser", events)) == 0
        ser_out = capsys.readouterr().out
        assert par_out.replace(str(tmp_path / "par"), "X") == ser_out.replace(str(tmp_path / "ser"), "X")
        assert par_out.splitlines() == [f"trained\t{e}\t{tmp_path / 'par' / e}.mnck" for e in events]
        assert (tmp_path / "par" / "config.txt").read_bytes() == (tmp_path / "ser" / "config.txt").read_bytes()
        names = sorted(p.name for p in (tmp_path / "par").iterdir())
        assert names == sorted(["config.txt"] + [f"{e}.{x}" for e in events for x in ("mnck", "train.log")])
        for name in names[1:]:
            assert (tmp_path / "par" / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("events,missing", [
        (["ev00", "evXX", "ev01"], "evXX"),  # a worker's event
        (["evXX", "ev00"], "evXX"),  # the parent's own
        (["ev00", "evXX", "evYY"], "evXX"),  # the first in command-line order
    ])
    def test_missing_event(self, dataset4, tmp_path, capsys, monkeypatch, events, missing):
        usable_cpus(monkeypatch, 2)
        assert main(train_args(dataset4, tmp_path / "o", events)) == 1
        captured = capsys.readouterr()
        assert f"'{missing}'" in captured.err and "Traceback" not in captured.err
        done = events[: events.index(missing)]
        assert captured.out.splitlines() == [f"trained\t{e}\t{tmp_path / 'o' / e}.mnck" for e in done]

    def test_worker_config_error_exits_2(self, dataset4, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        real = milrank.cli.train_event

        def fail_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ConfigError("rejected in the worker")
            return real(*args, **kwargs)

        monkeypatch.setattr(milrank.cli, "train_event", fail_in_worker)
        usable_cpus(monkeypatch, 2)
        assert main(train_args(dataset4, tmp_path / "o", ["ev00", "ev01"])) == 2
        captured = capsys.readouterr()
        assert "configuration error: rejected in the worker" in captured.err
        assert captured.out.splitlines() == [f"trained\tev00\t{tmp_path / 'o' / 'ev00'}.mnck"]

    def test_dead_worker_is_typed_error(self, dataset4, tmp_path):
        script = (
            "import os, sys\n"
            "import milrank.cli as cli\n"
            "parent, real = os.getpid(), cli.train_event\n"
            "def train_event(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(3)\n"
            "    return real(*args, **kwargs)\n"
            "cli.train_event = train_event\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        args = train_args(dataset4, tmp_path / "o", ["ev00", "ev01", "ev02", "ev03"])
        proc = subprocess.run([sys.executable, "-c", script] + args, capture_output=True, text=True,
                              env=child_env(), timeout=300)
        assert proc.returncode == 1
        # the parent's ev02 comes after the failing ev01, so it is not trained either
        assert "worker process died; events not trained: ev01, ev02, ev03\n" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == [f"trained\tev00\t{tmp_path / 'o' / 'ev00'}.mnck"]

    def test_blas_threads_restored(self, dataset4, tmp_path, capsys, monkeypatch):
        blas = milrank.numkit.blas_thread_count()
        if blas is None:
            pytest.skip("no OpenBLAS thread setter in this numpy")
        get, set_ = blas
        original = get()
        set_(2)  # not 1, so a count left pinned would show
        before = get()
        during = []
        real = milrank.cli.train_event

        def traced(*args, **kwargs):
            during.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(milrank.cli, "train_event", traced)
        usable_cpus(monkeypatch, 2)
        try:
            assert main(train_args(dataset4, tmp_path / "o", ["ev00", "ev01"])) == 0
            after = get()
        finally:
            set_(original)
        capsys.readouterr()
        assert during == [1]  # the parent's own event
        assert after == before

    @pytest.mark.parametrize("openblas_threads,processes", [("1", 2), ("2", 1), (None, 1)])
    def test_without_thread_setter(self, dataset4, tmp_path, capsys, monkeypatch, openblas_threads, processes):
        """Without a setter, only thread variables all at 1 allow parallel training."""
        log = tmp_path / "pids"
        record_pids(monkeypatch, log)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(milrank.numkit, "blas_thread_count", lambda: None)
        for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")
        if openblas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas_threads)
        assert main(train_args(dataset4, tmp_path / "o", ["ev00", "ev01"])) == 0
        capsys.readouterr()
        assert len(set(trainers(log).values())) == processes

    @pytest.mark.parametrize("cpus,events", [(1, ["ev00", "ev01"]), (2, ["ev00"])])
    def test_in_process_when_one_job(self, dataset4, tmp_path, capsys, monkeypatch, cpus, events):
        usable_cpus(monkeypatch, cpus)

        def forbidden(*args, **kwargs):
            raise AssertionError("worker pool created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        assert main(train_args(dataset4, tmp_path / "o", events)) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(events)

    def test_repeated_event_is_usage_error(self, dataset4, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(train_args(dataset4, out, ["ev00", "ev01", "ev00"])) == 2
        captured = capsys.readouterr()
        assert "ev00" in captured.err and captured.out == ""
        assert not out.exists()

    def test_default_blas_threads_subprocess(self, dataset4, tmp_path, capsys, monkeypatch):
        """`python -m milrank.cli train` with the BLAS thread variables unset
        (the default thread count) finishes and writes the serial bytes."""
        env = child_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        events = ["ev00", "ev01"]
        proc = subprocess.run([sys.executable, "-m", "milrank.cli"] + train_args(dataset4, tmp_path / "par", events),
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        usable_cpus(monkeypatch, 1)
        assert main(train_args(dataset4, tmp_path / "ser", events)) == 0
        ser_out = capsys.readouterr().out
        assert proc.stdout.replace(str(tmp_path / "par"), "X") == ser_out.replace(str(tmp_path / "ser"), "X")
        for name in ("config.txt", "ev00.mnck", "ev00.train.log", "ev01.mnck", "ev01.train.log"):
            assert (tmp_path / "par" / name).read_bytes() == (tmp_path / "ser" / name).read_bytes(), name
