"""The conjugate route: subdivision, the Frobenius-style comparison, the ledger.

Subdividing the cyclic object p-fold makes a Z/p symmetry visible. Group
homology of that symmetry rebuilds Hochschild homology (the comparison
map is literally the p-th power on fixed coordinates, and c^p = c in F_p),
and in degree zero it is the honest power map on A/[A,A]. Stacking the
rows against cyclic homology gives a per-degree degeneration ledger.
"""

from nchodge.cartier import cartier0, conjugate_ss, edgewise_hh_check
from nchodge.corpus import build
from nchodge.hochcyc import hodge_ss

p = 3

print("subdivision does not change Hochschild homology:")
rep = edgewise_hh_check(build("dual-numbers", p), 3)
print(f"  dual-numbers: subdivided {rep.sd_dims} == plain {rep.hh}")

print("\ngroup homology rows of the subdivided object match HH:")
ss = conjugate_ss(build("dual-numbers", p), 2)
print(f"  E_2 rows {ss.e2_positive} vs HH {ss.hh}  (match: {ss.matches_hh})")

print("\ndegree zero is the power map on A/[A,A]:")
c0 = cartier0(build("trunc-poly-4", p), samples=500, seed=0)
print(f"  trunc-poly-4: matrix of x -> x^{p} is")
for row in c0.matrix.to_dense().tolist():
    print("   ", row)

print("\nthe degeneration ledger, HC_n vs stacked HH:")
for name in ("upper-tri-2", "dual-numbers"):
    rep = hodge_ss(build(name, p), 5, pages_budget=0)
    rows = [(n, rep.abutment[n], total) for n, total in sorted(rep.hodge_sums.items())]
    print(f"  {name}: degenerate = {rep.degenerate}  rows (n, HC, sum)={rows}")
