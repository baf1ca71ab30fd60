"""Multi-channel broadcast via Skolem-type channel hopping.

Sequence construction, cyclic-shift drift identification, the self-adaptive
broadcast protocol with its baselines, a deterministic slotted simulator,
and the metrics/CLI layer that reproduces the delivery-rate and latency
experiments.
"""

from .hopping import (
    ALL_CHANNELS,
    canonical_drift,
    delivery_channels,
    drift_channel_table,
    shift,
)
from .metrics import (
    LatencyReport,
    RhoSeries,
    latency_report,
    missync_rate,
    rho_series,
)
from .protocol import (
    BroadcastSender,
    CssReceiver,
    RandomHopper,
    SassReceiver,
    SlotObservation,
    make_pair,
)
from .simenv import PairSimulation, PuTraffic, SimConfig, SimTrace, pu_parameters, run
from .skolem import (
    ChannelPlan,
    EssSequence,
    SkolemSequence,
    construct_skolem,
    ess_for_channel_count,
    extend_to_ess,
    make_channel_plan,
    verify_skolem,
)

__version__ = "0.1.0"
