"""The four-stage protocol against a menu of relay behaviors.

An honest relay delivers every message; a Byzantine one can corrupt what
it forwards but almost never gets a forged message accepted: the
destination recomputes the detection tag under a seed the relay never
learns.  This script runs one Monte Carlo pass over the behaviors and prints
the rate/power accounting for the configuration.

Run: python demos/04_protocol_under_attack.py
"""

from relaysec.channel import AdditiveLatticeOffset, HonestRelay, RandomGarble, SubstituteLattice
from relaysec.protocol import ProtocolParams, TwoHopProtocol, operating_point

params = ProtocolParams(q=5, r=2, d=2, N=4)
proto = TwoHopProtocol(params)

print("=== configuration ===")
print(f"seed stages: q={params.q}, N={params.N}; tag stage dimension r={params.r}")
print(f"message: d={params.d} symbols of GF({params.q}^{params.r}) "
      f"= {proto.payload_bits} bits in {proto.blocks} blocks")
n, rt, _, bound = operating_point(params)
pt = proto.average_power(*proto.stage_powers())
print(f"channel uses per direction n = {n}, overall secrecy rate "
      f"RT = {rt:.4f} bits/use, average power PT = {pt:.3f}")

print()
print("=== Monte Carlo, 4000 noiseless trials per behavior ===")
behaviors = [
    ("honest relay", HonestRelay()),
    ("substitute a chosen codeword", SubstituteLattice((1,))),
    ("add a fine-lattice offset", AdditiveLatticeOffset((1,))),
    ("forward random codewords", RandomGarble()),
]
print(f"{'behavior':34}{'decode err':>12}{'false rej':>12}{'adv wins':>12}")
counts = proto.monte_carlo([behavior for _, behavior in behaviors], 4000, seed=2024)
for (label, _), (errors, rejects, wins) in zip(behaviors, counts / 4000):
    print(f"{label:34}{errors:>12.4f}{rejects:>12.4f}{wins:>12.4f}")
print(f"\nwin-probability bound for any additive attack: {bound:.3f}")
print("honest runs decode everything and reject nothing; every attack that")
print("changes the message is caught except for a bound-sized sliver")
