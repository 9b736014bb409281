"""Secure two-hop relaying over an untrusted (eavesdropping, Byzantine) relay.

The pieces: exact finite-field arithmetic on int-encoded elements
(``fields``), self-similar nested lattice codebooks (``lattice``), the
algebraic manipulation detection codec (``amd``), privacy amplification
and the invertible message encoder (``extract``), the two-phase Gaussian
channel with pluggable relay behaviors (``channel``), the four-stage
protocol runner (``protocol``), exhaustive verification oracles
(``oracle``), and a CLI (``cli``).
"""

from .amd import AmdParams, amd_rate, amd_tag, amd_verify, win_bound
from .channel import (
    AdditiveLatticeOffset,
    ChannelConfig,
    CustomRelay,
    HonestRelay,
    PhaseRecord,
    RandomGarble,
    SubstituteLattice,
    phase1,
    phase2,
    power_audit,
    relay_step,
)
from .extract import (
    EncoderMap,
    ExtractorMap,
    ExtractorParams,
    build_encoder,
    decode_ranks,
    encode_message,
    extract_seed,
    leakage_budget,
    leftover_bound,
    r0_max,
    r_max,
    renyi_entropy,
    search_good_extractor,
    secrecy_rate,
    secrecy_rate_from_power,
    seed_uniformity,
    shannon_entropy,
)
from .fields import (
    ExtField,
    complete_and_invert,
    digits,
    find_irreducible,
    matrix_row_rank,
    sample_matrix,
    undigits,
)
from .lattice import (
    NestedLatticePair,
    average_codebook_power,
    codebook_point,
    codebook_rate,
    decode_fine_mod_coarse,
    lattice_add,
    mod_coarse,
    quantize_coarse,
    rate_condition_ok,
    reconstruct_sums,
    represent_sums,
)
from .protocol import (
    ProtocolParams,
    RateReport,
    SimReport,
    TwoHopProtocol,
    rate_accounting,
)

__version__ = "0.1.0"
