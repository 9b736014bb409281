"""Secure two-hop relaying over an untrusted (eavesdropping, Byzantine) relay.

The pieces: exact finite-field arithmetic on int-encoded elements
(``fields``), self-similar nested lattice codebooks (``lattice``), the
algebraic manipulation detection codec (``amd``), privacy amplification
and the invertible message encoder (``extract``), the two-phase Gaussian
channel with pluggable relay behaviors (``channel``), the four-stage
protocol runner (``protocol``), exhaustive verification oracles
(``oracle``), and a CLI (``cli``).

Names are imported from their modules, e.g. ``from relaysec.protocol
import ProtocolParams``; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
