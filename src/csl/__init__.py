"""Collision-entropy convex-split toolkit.

Numerically verified one-shot quantum information bounds: the sandwiched
Renyi divergence family, an equality-form convex-split identity with its
derived bounds, a constructive state-splitting protocol, a universal upper
bound on smoothed max-information, and a one-shot reverse-Shannon cost
bound.  States are complex NumPy arrays (density matrices, or unit vectors
for pure states) with their register sizes passed as a ``dims`` tuple.  All
logarithms are base 2.
"""

from .matcore import (
    CertificateError,
    ContractViolation,
    fidelity,
    purified_distance,
    reduced,
    sample,
    state_from_dict,
    trace_distance,
)
from .divergences import (
    d2,
    d_alpha,
    d_alpha_with_branch,
    d_max,
    d_min,
    d_min_eps,
    d_umegaki,
    q2,
    q_alpha,
)
from .convexsplit import (
    ConvexSplitInstance,
    bounds_report,
    nu_n,
    split_equality_check,
)
from .infomeasures import f_alpha_beta, universal_rhs
from .optim import imax_sdp
from .protocols import (
    ChannelSpec,
    QSSInstance,
    qss_simulate,
    reverse_shannon_bound,
    uhlmann_isometry,
)
from .smoothing import imax_smoothed_upper, smooth_renyi_entropy_min, uab_chain_verify

__all__ = [
    "CertificateError",
    "ContractViolation",
    "fidelity",
    "purified_distance",
    "reduced",
    "sample",
    "state_from_dict",
    "trace_distance",
    "d2",
    "d_alpha",
    "d_alpha_with_branch",
    "d_max",
    "d_min",
    "d_min_eps",
    "d_umegaki",
    "q2",
    "q_alpha",
    "ConvexSplitInstance",
    "bounds_report",
    "nu_n",
    "split_equality_check",
    "f_alpha_beta",
    "imax_smoothed_upper",
    "universal_rhs",
    "imax_sdp",
    "ChannelSpec",
    "QSSInstance",
    "qss_simulate",
    "reverse_shannon_bound",
    "uhlmann_isometry",
    "smooth_renyi_entropy_min",
    "uab_chain_verify",
]

__version__ = "0.1.0"
