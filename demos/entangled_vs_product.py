"""Does entanglement keep its edge as blocks grow?  (Evidence: no.)

Per-use mutual information of the Pauli-orbit ensembles of four input
families, at the strongly correlated point mu = 0.9, a = 2/3, d = -4/3
(branch 0 maximally noisy, branch 1 noiseless).  Entangled inputs win at
n = 2 and n = 4, but the basis product states overtake them at n = 6 and
stay ahead out to n = 20 - the numerical core of the
capacity-equals-product-capacity conjecture.  The product, GHZ and
half-chain states are stabilizer states, whose output spectra need no
density matrix; the W output commutes with sum_i Z_i and is diagonalized
one Hamming-weight block of size C(n, w) at a time, up to n = 12.
"""

from qmemchan import ChannelParams, InputFamily, orbit_mutual_information, threshold_f
from qmemchan.ensembles import FAMILY_MAX_QUBITS, W_MAX_QUBITS

params = ChannelParams(mu=0.9, a=2 / 3, d=-4 / 3)
print(f"mu = {params.mu}, a = {params.a:.4f}, d = {params.d:.4f} "
      f"(x0 = {params.x0:.4f}, x1 = {params.x1:.4f}), f = {threshold_f(params):.4f}\n")

kinds = ["product", "ghz", "w", "max_entangled"]
print(f"{'n':>3} " + " ".join(f"{k:>14}" for k in kinds) + "   best")
for n in (2, 4, 6, 8, 10, 12, 16, 20):
    # a family refuses an n above its cap, so build only the ones that reach n
    families = [InputFamily(kind, n) for kind in kinds
                if n <= FAMILY_MAX_QUBITS[kind] and (kind != "max_entangled" or n % 2 == 0)]
    per_use = {
        mi.family.kind: mi.per_use
        for mi in (orbit_mutual_information(f, params) for f in families)
    }
    best = max(per_use, key=per_use.get)
    cells = (f"{per_use[k]:14.6f}" if k in per_use else f"{'—':>14}" for k in kinds)
    print(f"{n:3d} " + " ".join(cells) + f"   {best}")

print("\nper-use values are I_n / n in bits; each row's ensemble is the")
print(f"equiprobable Pauli orbit of the named state; — marks W above n = {W_MAX_QUBITS}.")
