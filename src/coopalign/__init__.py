"""Simulation and analysis toolkit for limited-backhaul cooperation on the
three-user Gaussian interference channel.

The package couples an exact integer model of the monomial-lattice physical
layer with two message-passing cooperation protocols (receiver side and
transmitter side), backhaul load accounting, converse bound evaluators and
baseline schemes, all driven by a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .backhaul import BackhaulLedger, BackhaulMessage
from .errors import (ConfigError, CoopAlignError, GenericityError,
                     MLBudgetError, ParameterError, ProtocolError,
                     SingularChannelError, SymbolRangeError)
from .indices import AXIS, COORD_NAMES, window
from .lattice import (ChannelMatrix, ObservationTable, SubstreamTable,
                      channel_is_generic, exact_observations, monomial_table,
                      require_generic)
from .rx_protocol import run_rx_protocol
from .tradeoff import (centralized_report, illustrating_example, lemma1_check,
                       normalized_bound_slope, optimal_tradeoff,
                       rx_sum_upper_bound, tdma_report, tx_sum_upper_bound)
from .tx_protocol import (InverseChannel, run_tx_backhaul,
                          verify_diagonalization)

__all__ = [
    "__version__",
    "AXIS", "COORD_NAMES", "window",
    "BackhaulLedger", "BackhaulMessage",
    "ChannelMatrix", "ObservationTable", "SubstreamTable",
    "channel_is_generic", "exact_observations", "monomial_table",
    "require_generic",
    "run_rx_protocol",
    "InverseChannel", "run_tx_backhaul", "verify_diagonalization",
    "centralized_report", "illustrating_example", "lemma1_check",
    "normalized_bound_slope", "optimal_tradeoff", "rx_sum_upper_bound",
    "tdma_report", "tx_sum_upper_bound",
    "CoopAlignError", "ConfigError", "GenericityError", "MLBudgetError",
    "ParameterError", "ProtocolError", "SingularChannelError",
    "SymbolRangeError",
]
