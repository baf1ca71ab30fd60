"""Multi-channel broadcast via Skolem-type channel hopping.

Sequence construction, cyclic-shift drift identification, the self-adaptive
broadcast protocol with its baselines, a deterministic slotted simulator,
and the metrics/CLI layer that reproduces the delivery-rate and latency
experiments.
"""

from .hopping import delivery_channels, shift
from .metrics import rho_series
from .simenv import SimConfig, run
from .skolem import ess_for_channel_count

__version__ = "0.1.0"
