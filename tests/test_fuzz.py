"""Fuzz of the files `milrank` reads from outside: MNF1 feature files, MNCK
checkpoints, manifests, label files and config files.

Each input is truncated, has one byte flipped, or is spliced from two valid
files, and then goes through `cli.main`.  The command must return 0, 1 or 2
without raising and without a traceback.  A truncation must fail (1 or 2);
exit 0 stays legal for a flip or a splice: MNF1 has no checksum, a flipped
whitespace byte in MNCK metadata leaves its checksummed values unchanged, and
a flipped digit in a text file can still be valid.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY
from milrank.cli import main
from milrank.data import write_feature_file
from milrank.model import init_params
from milrank.train import Checkpoint, OptimizerState, TrainingConfig, save_checkpoint

FUZZ = settings(max_examples=250, deadline=None, derandomize=True)

MANIFEST = "v2\tski\t75.5\tfeat/v2.mnf\tlab/v2.txt\nv1\tsurf\t45.25\tfeat/v1.mnf\tlab/v1.txt\n"
# the splice partner: another valid manifest
MANIFEST_B = "v9\tsurf\t12.5\tfeat/v2.mnf\tlab/v2.txt\n"
# the label file under test sits at `fuzz.txt`
LABEL_MANIFEST = "v1\tsurf\t45.25\tfeat/v1.mnf\tfuzz.txt\n"
CONFIG = (
    "lr0 = 0.005\nlr_decay = 0.7\nlr_decay_every = 20\nmomentum = 0.9\nweight_decay = 0.0005\n"
    "epochs = 1\nbag_size = 4\ntau = 60.0\neps = 1.0\nloss_variant = max-max\nno_audio = False\n"
    "no_vision = False\nno_mmrl = False\nno_bcm = False\nseed = 5\nmodel.k = 2\n"
)
CONFIG_B = "# a shorter run\nseed = 3\nepochs = 2\nloss_variant = min-max\nno_bcm = yes\n"


def write_checkpoint(path, seed):
    config = TrainingConfig(model=TOY, seed=seed)
    params = init_params(TOY, seed)
    velocity = {k: np.full_like(v, 0.25) for k, v in params.tensors.items()}
    save_checkpoint(path, Checkpoint(params, config, OptimizerState(velocity=velocity, step=3, epoch=1)))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A toy-width dataset: two feature files, their labels, two checkpoints."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    (root / "feat").mkdir()
    (root / "lab").mkdir()
    for vid, n in (("v1", 6), ("v2", 9)):
        write_feature_file(root / "feat" / f"{vid}.mnf", rng.standard_normal((n, TOY.dv)),
                           rng.standard_normal((n, TOY.da)), expect_dims=None)
        (root / "lab" / f"{vid}.txt").write_text("".join(f"{x}\n" for x in rng.integers(0, 2, n)))
    write_checkpoint(root / "a.mnck", 1)
    write_checkpoint(root / "b.mnck", 2)
    return root


@st.composite
def mutations(draw, valid, partner, text):
    """(kind, bytes): ``valid`` truncated, with one byte flipped, or spliced
    with ``partner``.  A text input is cut before its trailing whitespace, so
    that every truncation loses content."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return kind, valid[: draw(st.integers(0, len(valid.rstrip() if text else valid) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(valid) - 1))
        flipped = valid[i] ^ draw(st.integers(1, 255))
        return kind, valid[:i] + bytes([flipped]) + valid[i + 1:]
    return kind, valid[: draw(st.integers(0, len(valid)))] + partner[draw(st.integers(0, len(partner))):]


def run(argv, kind):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in ((1, 2) if kind == "truncate" else (0, 1, 2)), err.getvalue()


@pytest.fixture(scope="module")
def features(inputs):
    return (inputs / "feat" / "v1.mnf").read_bytes(), (inputs / "feat" / "v2.mnf").read_bytes()


@pytest.fixture(scope="module")
def checkpoints(inputs):
    return (inputs / "a.mnck").read_bytes(), (inputs / "b.mnck").read_bytes()


@pytest.fixture(scope="module")
def labels(inputs):
    return (inputs / "lab" / "v1.txt").read_bytes(), (inputs / "lab" / "v2.txt").read_bytes()


@FUZZ
@given(data=st.data())
def test_feature_file(inputs, features, data):
    kind, raw = data.draw(mutations(*features, text=False))
    (inputs / "fuzz.mnf").write_bytes(raw)
    run(["score", "--checkpoint", str(inputs / "a.mnck"), "--features", str(inputs / "fuzz.mnf")], kind)


@FUZZ
@given(data=st.data())
def test_checkpoint(inputs, checkpoints, data):
    kind, raw = data.draw(mutations(*checkpoints, text=False))
    (inputs / "fuzz.mnck").write_bytes(raw)
    run(["score", "--checkpoint", str(inputs / "fuzz.mnck"), "--features", str(inputs / "feat" / "v1.mnf")], kind)


@FUZZ
@given(data=st.data())
def test_manifest(inputs, data):
    kind, raw = data.draw(mutations(MANIFEST.encode(), MANIFEST_B.encode(), text=True))
    (inputs / "fuzz.tsv").write_bytes(raw)
    run(["eval", "--checkpoint", str(inputs / "a.mnck"), "--manifest", str(inputs / "fuzz.tsv"),
         "--event", "surf", "--out", str(inputs / "reports")], kind)


@FUZZ
@given(data=st.data())
def test_label_file(inputs, labels, data):
    kind, raw = data.draw(mutations(*labels, text=True))
    (inputs / "fuzz.txt").write_bytes(raw)
    (inputs / "labels.tsv").write_text(LABEL_MANIFEST)
    run(["eval", "--checkpoint", str(inputs / "a.mnck"), "--manifest", str(inputs / "labels.tsv"),
         "--event", "surf", "--out", str(inputs / "reports")], kind)


@FUZZ
@given(data=st.data())
def test_config_file(inputs, data):
    kind, raw = data.draw(mutations(CONFIG.encode(), CONFIG_B.encode(), text=True))
    (inputs / "fuzz.cfg").write_bytes(raw)
    # the manifest does not exist, so no training runs
    run(["train", "--config", str(inputs / "fuzz.cfg"), "--manifest", str(inputs / "missing.tsv"),
         "--event", "surf", "--out", str(inputs / "run")], kind)
