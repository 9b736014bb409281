"""Tamper detection without shared keys.

The codeword (s, x, h) ties the message s to a random seed x through the
tag h = x^(d+2) + sum_i s_i x^i.  Additive tampering has to solve a
nonzero polynomial in the seed it cannot see, so at most d+1 of the q^r
seeds let any given attack through.  The census below covers every
additive attack and shows the worst one hits that bound exactly.

Run: python demos/02_tamper_detection_code.py
"""

import numpy as np

from relaysec.amd import AmdParams, amd_rate, amd_tag, amd_verify, win_bound
from relaysec.fields import ExtField, digits
from relaysec.oracle import exact_amd_win_census

rng = np.random.default_rng(7)

print("=== honest encode/verify, GF(5^2), d = 2 ===")
field = ExtField(5, 2)
params = AmdParams(field=field, d=2)
message = (8, 20)  # coefficients (3, 1) and (0, 4): base-5 digits, x^0 first
x = int(rng.integers(0, field.order))  # the uniform seed
h = int(amd_tag(params, message, x))
print(f"message symbols: {message}, coefficients {digits(message, 5, 2).tolist()}")
print(f"seed x = {x} {digits(x, 5, 2).tolist()}, tag h = {h} {digits(h, 5, 2).tolist()}")
print(f"verifies: {amd_verify(params, message, x, h)}")
print(f"code rate d/(d+2) = {amd_rate(params):.3f}, "
      f"worst-case attack bound (d+1)/q^r = {win_bound(params):.3f}")

print()
print("=== exhaustive attack census ===")
for q, r, d in [(5, 1, 1), (5, 2, 2)]:
    census = exact_amd_win_census(AmdParams(field=ExtField(q, r), d=d))
    print(f"q={q}, r={r}, d={d}: {census.attacks} attacks covered; "
          f"max success {census.max_success:.4f} vs bound {census.bound:.4f} "
          f"-> {'OK' if census.holds else 'VIOLATED'}")
    top = sorted(census.histogram.items())
    as_text = ", ".join(f"{hits} seeds: {count} attacks" for hits, count in top)
    print(f"  histogram of accepted-seed counts -> {as_text}")

print()
print("=== the bound shrinks exponentially in r at fixed rate ===")
for r in range(1, 6):
    b = win_bound(AmdParams(field=ExtField(5, r), d=2))
    print(f"  r = {r}: bound {b:.6f}")
