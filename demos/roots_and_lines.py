#!/usr/bin/env python3
"""Root lattices feed one pipeline: pick the distinguished norm-2 vector,
enumerate its congruence class at norm 2m + 2, and read the equiangular
family off that shell.  This walk prints the whole table, then takes E8
apart piece by piece."""

from eqlat.constructions import root_equiangular_table, root_lattice, standard_x0
from eqlat.lines import absolute_bound, certify
from eqlat.mod2 import equiangular_direct

print("family table (t pairs of lines, r = rank of the family)")
print(f"{'lattice':>8} {'t':>4} {'r':>3}   note")
for fam, n, t, r in root_equiangular_table(12):
    note = ""
    if t == r:
        note = "acute: t = r"
    if t == absolute_bound(r):
        note = f"meets the absolute bound {absolute_bound(r)}"
    print(f"{fam + str(n):>8} {t:>4} {r:>3}   {note}")

print()
print("E8 in detail")
e8 = root_lattice("E", 8).lattice
x0 = standard_x0("E", 8)
es = equiangular_direct(e8, x0)
print(f"  base point x0 = {x0}, norm {e8.norm(x0)}")
print(f"  class shell at norm {2 * 2 + 2}: {len(es)} pairs, "
      f"rank {es.rank}, alpha = {es.alpha}")

cert = certify(es)
for chk in cert["checks"]:
    name = chk["check"]
    if name == "least_eigenvalue":
        lo, hi = chk["interval"]
        where = f"= {lo}" if lo == hi else f"in [{lo}, {hi}]"
        print(f"  least Seidel eigenvalue {where}, multiplicity {chk['multiplicity']}"
              f" (t - r = {es.t - es.rank})")
    elif name == "absolute_bound":
        eq = "met with equality" if chk["equality"] else "strict"
        print(f"  absolute bound {chk['bound']}: {eq}")
    elif name == "relative_bound" and chk["applicable"]:
        print(f"  relative bound at alpha = {es.alpha}: {chk['bound']}")
print(f"  every check passed: {cert['ok']}")

print()
print("the three exceptional families against the known maxima")
for fam_name, n in (("E", 6), ("E", 7), ("E", 8)):
    lat = root_lattice(fam_name, n).lattice
    es = equiangular_direct(lat, standard_x0(fam_name, n))
    known = certify(es)["annotations"]["known_max_at_rank"]
    print(f"  {fam_name}{n}: {len(es)} lines at rank {es.rank}; "
          f"published maximum there is {known}")
