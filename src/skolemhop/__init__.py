"""Multi-channel broadcast via Skolem-type channel hopping.

Sequence construction, cyclic-shift drift identification, the self-adaptive
broadcast protocol with its baselines, a deterministic slotted simulator,
and the metrics/CLI layer that reproduces the delivery-rate and latency
experiments.  The simulation names load numpy, so they are imported on first use.
"""

import importlib

from .skolem import ess_for_channel_count

__version__ = "0.1.0"
__all__ = ["SimConfig", "run", "rho_series", "ess_for_channel_count"]
_LAZY = {"SimConfig": "simenv", "run": "simenv", "rho_series": "metrics"}


def __getattr__(name):  # PEP 562: only called for names the module does not hold
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
