#!/usr/bin/env python3
"""The 276-line family in dimension 23, computed exactly from the Leech
lattice.  Everything below is integer arithmetic; the slow part is the one
enumeration of the 98280 minimal pairs.  Expect roughly half a minute."""

import argparse
import time
from fractions import Fraction

from eqlat.constructions import leech, section_search
from eqlat.errors import NotEquiangular
from eqlat.lines import absolute_bound, certify, line_family
from eqlat.mod2 import equiangular_direct, relative_lattice, sqrt2_even_check
from eqlat.shortvec import minimum, shell_count

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--budget", type=int, default=3,
                    help="hyperplane candidates per section step (default 3)")
parser.add_argument("--depth", type=int, default=1,
                    help="descending section steps (default 1)")
args = parser.parse_args()

t0 = time.time()
big = leech()
lat = big.lattice
print(f"Leech lattice: dim {lat.dim}, det {lat.det}, {lat.integrality()}")
print(f"  minimum {minimum(lat)} with s = {shell_count(lat, 4)} "
      f"({time.time() - t0:.1f}s)")

x0 = big.marks["x0"]
print(f"\nbase point x0 of norm {lat.norm(x0)}")
t0 = time.time()
es = equiangular_direct(lat, x0)
print(f"  class shell at norm 10: {len(es)} pairs, rank {es.rank}, "
      f"alpha = {es.alpha} ({time.time() - t0:.1f}s)")

cert = certify(es)
least = next(c for c in cert["checks"] if c["check"] == "least_eigenvalue")
print(f"  least Seidel eigenvalue {least['interval'][0]} with multiplicity "
      f"{least['multiplicity']} = t - rank")
print(f"  absolute bound in rank 23 is {absolute_bound(23)}: met with equality")
print(f"  certificate: {cert['ok']}")

print("\nthe relative lattice carries the family as its minimal vectors")
t0 = time.time()
rel = relative_lattice(lat, x0).induced
print(f"  dim {rel.dim}, minimum {minimum(rel)}, "
      f"s = {shell_count(rel, minimum(rel))} ({time.time() - t0:.1f}s)")

half = rel.rescale(Fraction(1, 2))
print(f"  rescaled by 1/2: {half.integrality()}, minimum {minimum(half)}")
even = sqrt2_even_check(half)
print(f"  its halved even part: {even.integrality()}, minimum {minimum(even)}, "
      f"det {even.det}")

print(f"\ngreedy sections from dimension 23 "
      f"(budget {args.budget}, depth {args.depth})")
t0 = time.time()
for row in section_search(rel, budget=args.budget, depth=args.depth):
    shape = f"dim {row['dim']:>2}, minimum {row['minimum']}, s = {row['s']}"
    try:
        sub = line_family(row["lattice"], row["pairs"])
        note = f"equiangular at alpha = {sub.alpha}"
    except NotEquiangular:
        note = "not equiangular, count only"
    print(f"  depth {row['depth']}: {shape}  ({note})")
print(f"  ({time.time() - t0:.1f}s)")
