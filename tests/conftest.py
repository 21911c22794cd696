import numpy as np
import pytest

from milrank.data import Bag
from milrank.model import ModelConfig, ModelParams, init_params

TOY = ModelConfig(dv=8, da=4, hv=6, hf=5, ds=3, hc=3, k=2)


def random_bag(rng, n=5, config=TOY, scale=0.5):
    return Bag(
        vision=scale * rng.standard_normal((n, config.dv)),
        audio=scale * rng.standard_normal((n, config.da)),
        polarity="positive",
        source_video="rand",
        instance_indices=np.arange(n),
    )


def probe_stack(params, rng, n_probes, scale=0.1):
    """``n_probes`` random perturbations of ``params``: the probes one by one,
    and all of them stacked on a leading probe axis."""
    probes = [
        ModelParams(params.config, {k: v + scale * rng.standard_normal(v.shape) for k, v in params.tensors.items()})
        for _ in range(n_probes)
    ]
    stacked = ModelParams(params.config, {k: np.stack([p.tensors[k] for p in probes]) for k in params.tensors})
    return probes, stacked


def shift_one_entry(backward, name="f0_w2", index=(0, 0), delta=1e-2):
    """``backward`` with one entry of one gradient tensor moved by ``delta``,
    absolute, so the tolerance's max(1, |a|, |f|) scale cannot hide it."""

    def wrong(*args, **kwargs):
        grads = backward(*args, **kwargs)
        grads[name][index] += delta
        return grads

    return wrong


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def toy_params():
    return init_params(TOY, 77)


def pytest_terminal_summary(terminalreporter):
    """Surface the acceptance criterion pass/fail lines past output capture."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
