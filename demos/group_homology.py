"""Z/p acting on tensor powers: homology read off the orbits, repeated words.

The cyclic group of order p rotates the factors of V^(x p). Its homology
in every positive degree has dimension exactly dim V, and the classes are
presented by repeated words v (x) v (x) ... (x) v. That tiny statement is
the engine of the whole Cartier comparison: it is checked here by raw
linear algebra, no simplicial machinery involved.
"""

from nchodge.cartier import ZpModuleAction, block_rotation, iota_iso, zp_homology_dims

for p, dim in ((3, 2), (3, 4), (5, 3)):
    act = ZpModuleAction(block_rotation(dim, p, 1, p), p)  # an index array
    hom = zp_homology_dims(act, l_max=4)
    print(f"dim V = {dim}, p = {p}: V^(x p) has dim {act.dim}, "
          f"H_l = {[hom[l] for l in range(5)]} for l = 0..4")
    print(f"  orbits: {act.n_orbits()}, of which {act.n_fixed()} fixed words")

    iota_iso(dim, p, l_max=4, samples=100, seed=0)
    print("  repeated words: a natural basis of every H_l, powering additive mod boundaries")
