"""covertmac: rate regions and simulation for a three-user discrete MAC with
two covert users, one non-covert user, and an external warden."""

__version__ = "0.1.0"

from .channel import ChannelFormatError, Dmc, load_channel, paper_channel, save_channel
from .infotheory import (DEFAULT_UNIT, DivergenceProfile, capacity_x3,
                         chi_square, divergence_profile, kl_div, mixture_kl,
                         mutual_info_x3)
from .region import (Constraints, InfeasibleError, PhasePlan, RateTuple,
                     Theorem1Sizing, curve_r2_vs_k2, max_r2, rate_tuple,
                     theorem1_sizing, trace_r2_R3)
from .simulator import (CodebookEnsemble, EnumerationCapError, SimConfig,
                        SimReport, build_codebooks, channel_sample, decode,
                        encode, exact_delta, run_trials)

__all__ = [
    "ChannelFormatError", "Dmc", "load_channel", "paper_channel", "save_channel",
    "DEFAULT_UNIT", "DivergenceProfile", "capacity_x3", "chi_square",
    "divergence_profile", "kl_div", "mixture_kl", "mutual_info_x3",
    "Constraints", "InfeasibleError", "PhasePlan", "RateTuple",
    "Theorem1Sizing", "curve_r2_vs_k2", "max_r2", "rate_tuple",
    "theorem1_sizing", "trace_r2_R3",
    "CodebookEnsemble", "EnumerationCapError", "SimConfig", "SimReport",
    "build_codebooks", "channel_sample", "decode", "encode", "exact_delta",
    "run_trials",
]
