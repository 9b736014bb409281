"""The paper's closed-form rate accounting, the reference the engine's rates are checked against.

The protocol computes its rates with ``protocol.operating_point``, whose
message code has its own (msg_q, msg_N, msg_r0).  The two agree when a
message block takes N channel uses (msg_N = N) and carries msg_r0 = N * Re
bits; the tests check the formula and, through the point scan, that
agreement.
"""

import math


def rate_accounting(N: int, r: int, q: int, d: int, Re: float) -> tuple[int, float]:
    """Channel uses per direction and the overall secrecy rate.

    n = 2N + r + ceil(d*r*log2(q) / (N*Re)) * N and RT = d*r*log2(q)/(2n);
    RT stays strictly below Re/2 and approaches it for large d.
    """
    info_bits = d * r * math.log2(q)
    blocks = math.ceil(info_bits / (N * Re))
    n = 2 * N + r + blocks * N
    return n, info_bits / (2 * n)
