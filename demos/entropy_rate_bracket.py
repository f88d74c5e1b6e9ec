"""Bracketing the product-state capacity through the flip-process entropy rate.

On basis-state inputs the channel output is classical: a hidden-Markov
binary process (hidden state = active depolarizing branch, symbol = did the
qubit flip).  Conditional block entropies squeeze its entropy rate from both
sides, and 1 - rate is the product-state capacity.  The bracket tightens
geometrically with the block length.
"""

from qmemchan import (
    ChannelParams,
    FlipProcess,
    capacity_upper_bound,
    entropy_rate_bracket,
    markov_entropy_rate,
    product_state_capacity,
)

params = ChannelParams(mu=2 / 3, a=1 / 3, d=-1.0)
process = FlipProcess.from_params(params)

print(f"channel: mu = {params.mu:.4f}, x0 = {params.x0:.4f}, x1 = {params.x1:.4f}\n")
print(f"{'n':>3} {'lower':>14} {'upper':>14} {'width':>10}")
for n in range(2, 21, 2):
    b = entropy_rate_bracket(process, n)
    print(f"{n:3d} {b.lower:14.10f} {b.upper:14.10f} {b.width:10.2e}")

est = product_state_capacity(params, n_max=20, tolerance=1e-9)
print(f"\nentropy rate      = {est.rate_bracket.estimate:.10f} bits/symbol")
print(f"product capacity  = {est.capacity:.10f} bits/use "
      f"(bracket [{est.lower:.10f}, {est.upper:.10f}], n = {est.n_used})")
print(f"memory chain rate = {markov_entropy_rate(params.memory):.10f} bits/symbol")
print(f"classical capacity upper bound (clamped) = {capacity_upper_bound(params, est):.10f}")

# identical branches make the flips i.i.d. and the bracket collapses at n = 2
flat = ChannelParams(mu=0.5, a=1.0, d=0.0)
b = entropy_rate_bracket(FlipProcess.from_params(flat), 2)
print(f"\nd = 0 sanity: bracket collapses to {b.lower:.12f} (binary entropy of 1/4)")
