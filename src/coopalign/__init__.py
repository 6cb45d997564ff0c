"""Simulation and analysis toolkit for limited-backhaul cooperation on the
three-user Gaussian interference channel.

The package couples an exact integer model of the monomial-lattice physical
layer with two message-passing cooperation protocols (receiver side and
transmitter side), backhaul load accounting, converse bound evaluators and
baseline schemes, all driven by a reproducible experiment harness.
"""

__version__ = "0.1.0"

from . import _heap

_heap.keep_freed_memory(_heap.libc_mallopt())

from .backhaul import BackhaulLedger, BackhaulMessage
from .errors import (ConfigError, CoopAlignError, GenericityError,
                     MLBudgetError, ParameterError, ProtocolError,
                     SingularChannelError, SymbolRangeError)
from .indices import AXIS, COORD_NAMES, window
from .lattice import (SubstreamTable, channel_inverse, channel_is_generic,
                      illustrating_gains, random_gains, require_generic)
from .rx_protocol import run_rx_protocol
from .tradeoff import (centralized_report, illustrating_example, lemma1_check,
                       normalized_bound_slope, optimal_tradeoff,
                       rx_sum_upper_bound, tdma_report, tx_sum_upper_bound)
from .tx_protocol import run_tx_backhaul, verify_diagonalization

__all__ = [
    "__version__",
    "AXIS", "COORD_NAMES", "window",
    "BackhaulLedger", "BackhaulMessage",
    "SubstreamTable", "channel_inverse", "channel_is_generic",
    "illustrating_gains", "random_gains", "require_generic",
    "run_rx_protocol",
    "run_tx_backhaul", "verify_diagonalization",
    "centralized_report", "illustrating_example", "lemma1_check",
    "normalized_bound_slope", "optimal_tradeoff", "rx_sum_upper_bound",
    "tdma_report", "tx_sum_upper_bound",
    "CoopAlignError", "ConfigError", "GenericityError", "MLBudgetError",
    "ParameterError", "ProtocolError", "SingularChannelError",
    "SymbolRangeError",
]
