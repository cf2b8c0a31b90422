"""The numpy slice-product check against the pair-by-pair loop it replaced.

Skipped when hypothesis is not installed.  Lattices are root lattices and
their integral duals, the axis any vector of norm 2m - 2 in them, so the
reports cover both outcomes of the applicability test, products in range
and slices that hold antipodal partners.
"""

import pytest
from oracles import ref_check_scalar_products_after_projection

from eqlat.constructions import integral_dual, root_lattice
from eqlat.errors import EqlatError
from eqlat.mod2 import check_scalar_products_after_projection
from eqlat.shortvec import minimum, shell

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROOTS = ([("A", n) for n in range(1, 10)] + [("D", n) for n in range(4, 10)]
         + [("E", n) for n in (6, 7, 8)])


def report(check, lat, v):
    try:
        return check(lat, v)
    except EqlatError as err:
        return type(err), str(err)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(ROOTS), st.booleans(), st.integers(min_value=0))
def test_slice_report_matches_pairwise_loop(root, dual, k):
    named = root_lattice(*root)
    lat = integral_dual(named) if dual else named.lattice
    m = minimum(lat)
    axes = shell(lat, 2 * m - 2) if m > 1 else []
    hypothesis.assume(axes)
    v = axes[k % len(axes)]
    assert (report(check_scalar_products_after_projection, lat, v)
            == report(ref_check_scalar_products_after_projection, lat, v))
