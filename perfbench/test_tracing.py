"""The traced run counts spans per layer and reports wrapped names that are gone.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from statesep import states  # noqa: E402

import tracing  # noqa: E402


def test_missing_name_is_reported_and_its_metrics_left_out(monkeypatch):
    wraps = tuple(w for w in tracing.WRAPS if w[0] != "mixture")
    monkeypatch.setattr(tracing, "WRAPS", wraps + (("mixture", "statesep.saddle", "gone"),))
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        states.validate_density(np.eye(2) / 2.0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["statesep.saddle.gone"]
    metrics = tracer.metrics(1.0)
    assert "states.mixture_s" not in metrics
    assert metrics["states.validate_calls"] == (1, "count")
    assert metrics["hermitian.eig_calls"] == (1, "count")
    # validate_density's self time excludes the eigendecomposition inside it.
    assert metrics["states.validate_s"][0] >= 0.0
    assert metrics["hermitian.eig_s"][0] > 0.0
    assert states.validate_density.__name__ == "validate_density"
