"""Check-node combining algebra for discrete BMS channels.

Channels are finite BSC mixtures; the package provides their E/H/B
functionals, exact check-node convolution, moment-series evaluation with
rigorous truncation bounds, extremal BEC/BSC bounds with randomized
checkers, the LDPC area-margin analysis, and a constrained coordinate-
descent search for extremal channels.
"""

from .channel import (
    Channel,
    ChannelError,
    ChannelFormatError,
    bec,
    bsc,
    channel,
    mix,
    parse_channel,
    serialize_channel,
)
from .functionals import Functional, evaluate, h2, h2_inv, kernel, kernel_inv
from .convolution import (
    SupportCapError,
    check_convolve,
    check_power,
    phi_of_poly_convolved,
)
from .series import (
    Polynomial,
    SeriesValue,
    coefficient,
    coefficient_tail,
    moment,
    moments,
    phi_of_poly,
    phi_series,
    poly_convex_on,
    poly_from_string,
    poly_increasing_on,
)
from .bounds import (
    BoundReport,
    ExtremalBound,
    INEQUALITIES,
    check_inequality,
    convexity_upper_bound,
    fixed_error_extremes,
    monotone_lower_bound,
    random_channel,
    random_channel_with_value,
    random_channels_with_value,
)
from .area import (
    EnsembleParams,
    area_quantity,
    bec_minimizer_condition,
    certified_interval,
    margin_conditions,
    rho_at_max_moment,
)
from .optimizer import (
    DescentResult,
    TwoPointChannel,
    Verdict,
    coordinate_descent,
    symmetrized_objective,
    transport_distance,
)

__version__ = "0.1.0"
