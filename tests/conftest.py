"""Shared fixtures for the test suite.

Expensive artifacts (ERT sweeps, the mixing grid) are session-scoped:
they are deterministic, so sharing them across tests loses nothing.
"""

from __future__ import annotations

import pytest

from repro.core import FIGURE_6A, FIGURE_6B, FIGURE_6C, FIGURE_6D
from repro.sim import simulated_snapdragon_835
from repro.soc import generic_soc, snapdragon_835


@pytest.fixture(autouse=True)
def _reset_observability():
    """Isolate tests from each other's telemetry.

    Metrics are zeroed *in place* (module-level instrument handles stay
    wired), the tracer is disabled and emptied, and provenance capture
    is switched off — so a test that enables instrumentation cannot
    leak spans or counts into the next one.
    """
    from repro.obs import reset_observability

    reset_observability()
    yield
    reset_observability()


@pytest.fixture()
def batches(monkeypatch):
    """Every batch result the explore sweeps get back, in call order.

    The sweeps reach the batch engine through the two names
    :mod:`repro.explore.sweep` imports; both are wrapped to record
    what they return.
    """
    from repro.explore import sweep

    seen: list = []
    for name in ("evaluate_batch", "evaluate_variant_batch"):
        def recording(*args, _evaluate=getattr(sweep, name), **kwargs):
            result = _evaluate(*args, **kwargs)
            seen.append(result)
            return result

        monkeypatch.setattr(sweep, name, recording)
    return seen


@pytest.fixture(scope="session")
def fig6():
    """The four Figure 6 scenarios, keyed by step letter."""
    return {"a": FIGURE_6A, "b": FIGURE_6B, "c": FIGURE_6C, "d": FIGURE_6D}


@pytest.fixture()
def two_ip_soc():
    """The Figure 6 hardware (Bpeak=10 GB/s variant)."""
    return FIGURE_6A.soc()


@pytest.fixture(scope="session")
def generic_description():
    """The Figure 3 generic SoC description."""
    return generic_soc()


@pytest.fixture(scope="session")
def generic_spec(generic_description):
    """The generic SoC lowered to Gables parameters."""
    return generic_description.to_gables_spec()


@pytest.fixture(scope="session")
def sd835_description():
    """The Snapdragon-835 description preset."""
    return snapdragon_835()


@pytest.fixture(scope="session")
def platform():
    """A calibrated simulated Snapdragon 835 (thermally controlled)."""
    return simulated_snapdragon_835()


@pytest.fixture(scope="session")
def cpu_fit(platform):
    """Fitted empirical CPU roofline (expensive; computed once)."""
    from repro.ert import fit_roofline, run_sweep

    return fit_roofline(run_sweep(platform, "CPU"))


@pytest.fixture(scope="session")
def gpu_fit(platform):
    """Fitted empirical GPU roofline."""
    from repro.ert import fit_roofline, run_sweep

    return fit_roofline(run_sweep(platform, "GPU"))


@pytest.fixture(scope="session")
def dsp_fit(platform):
    """Fitted empirical DSP roofline."""
    from repro.ert import fit_roofline, run_sweep

    return fit_roofline(run_sweep(platform, "DSP"))


@pytest.fixture(scope="session")
def mixing_sweep(platform):
    """The full Fig. 8 mixing grid (expensive; computed once)."""
    from repro.sim import run_mixing_sweep

    return run_mixing_sweep(platform)


@pytest.fixture(scope="session")
def market_dataset():
    """The default-seed synthetic market dataset."""
    from repro.market import generate_market_dataset

    return generate_market_dataset()
