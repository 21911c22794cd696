import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import milrank
from milrank.cli import main
from milrank.data import read_manifest, write_feature_file
from milrank.train import load_checkpoint

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
    ("pairs_per_step", "--pairs-per-step", "2"),
    ("seed", "--seed", "7"),
    ("model.k", "--k", "2"),
]


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
        ],
    )
    def test_synth_bad_argument_is_usage_error(self, tmp_path, capsys, flag, value):
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", flag, value]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "line",
        ["lr0 = nan", "lr0 = inf", "eps = nan", "tau = -5", "momentum = 7", "weight_decay = -1"],
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

    def test_perturb_hook_fails(self, capsys):
        code = main(["gradcheck", "--variant", "max-max", "--seeds", "1", "--perturb", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_usage_error(self, capsys, seeds):
        code = main(["gradcheck", "--variant", "max-max", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""


class TestSubprocessEntry:
    def test_module_invocation_deterministic_bytes(self, tmp_path):
        cmd = [sys.executable, "-m", "milrank.cli"] + SYNTH_ARGS
        # the child imports the package under test, installed or not
        src = str(Path(milrank.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        r1 = subprocess.run(cmd + ["--out", str(tmp_path / "a")], capture_output=True, text=True, env=env)
        r2 = subprocess.run(cmd + ["--out", str(tmp_path / "b")], capture_output=True, text=True, env=env)
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout.replace(str(tmp_path / "a"), "X") == r2.stdout.replace(
            str(tmp_path / "b"), "X"
        )
