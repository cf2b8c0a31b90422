#!/usr/bin/env python3
"""What a certificate actually certifies.  A small family is worked end to
end: its Seidel matrix, the exact characteristic polynomial, Budan-Fourier
counts locating the least eigenvalue, and the three counting bounds."""

from fractions import Fraction

from eqlat.constructions import dn_projection_gram
from eqlat.lines import (
    absolute_bound,
    least_eigenvalue,
    line_family,
    neumann_check,
    relative_bound,
    seidel,
    seidel_charpoly,
    KNOWN_MAX_LINES,
)
from eqlat.shortvec import shell

lat = dn_projection_gram(4).lattice
fam = line_family(lat, shell(lat, 3))
print(f"family: t = {fam.t} lines of norm {fam.pairs.norm} in rank {fam.rank}, "
      f"alpha = {fam.alpha}")

s = seidel(fam)
print("\nSeidel matrix (signs of pairwise inner products)")
for row in s.rows:
    print("  " + " ".join(f"{v:>2}" for v in row))

poly = seidel_charpoly(s)
terms = []
for k in range(len(poly) - 1, -1, -1):
    c = poly[k]
    if c == 0:
        continue
    power = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
    if power and abs(c) == 1:
        coef = ("-" if c < 0 else "+" if terms else "")
    else:
        coef = f"{'+' if c > 0 and terms else ''}{c}"
    terms.append(f"{coef}{power}")
print("\ncharacteristic polynomial " + " ".join(terms))

lo, hi = least_eigenvalue(s)
where = f"exactly {lo}" if lo == hi else f"inside [{lo}, {hi}]"
print(f"least eigenvalue {where}; -1/alpha = {-1 / fam.alpha}")

print("\ncounting bounds")
print(f"  absolute: t <= {absolute_bound(fam.rank)} lines in rank {fam.rank}")
print(f"  relative at alpha = {fam.alpha}: "
      f"t <= {relative_bound(fam.rank, fam.alpha)}")
print(f"  parity (t > 2n would force odd 1/alpha): "
      f"{neumann_check(fam.t, fam.rank, fam.alpha)}")

print("\nhow the known maxima grow with the rank")
print(f"{'rank':>5} {'bound':>6} {'known':>8}")
for n in (2, 3, 5, 7, 15, 17, 18, 22, 23):
    known = KNOWN_MAX_LINES[n]
    shown = f"{known[0]}..{known[1]}" if isinstance(known, tuple) else str(known)
    print(f"{n:>5} {absolute_bound(n):>6} {shown:>8}")
print("(the rank-7 and rank-23 bounds are met with equality; see the other demos)")
