"""A witness that neither route shares: the seeded circuits of
:data:`golden_error.JUDGED` that the goldens do not cover, judged on every
backend against the one physics reference, ``tools/golden_error.py``.

Cross-route agreement cannot see a mistake the routes share, such as a
consistent sign error in the splitter.  On a nearest-neighbour brick mesh
that error is a conjugation by diag((-1)^m), which no detector statistic
shows; the odd cycle shows it.
"""

import pytest
from golden_error import BACKENDS, JUDGED
from test_golden_reference import judge, run

WITNESSES = [name for name, row in JUDGED.items() if not row.golden and row.backends == BACKENDS]
FERMIONS = [name for name in WITNESSES if name.startswith("fermion_")]
BOSONS = [name for name in WITNESSES if name not in (*FERMIONS, "bunched")]


@pytest.mark.parametrize("name", BOSONS)
def test_both_routes_match_the_permanent(name):
    judge(name, run(name, "both").stdout)


def test_bunched_input_matches_the_permanent():
    judge("bunched", run("bunched", "both").stdout)


@pytest.mark.parametrize("name", FERMIONS)
def test_fermions_match_the_determinant(name):
    judge(name, run(name, "both").stdout)


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
@pytest.mark.parametrize("name", WITNESSES)
def test_each_route_alone_matches_the_reference(name, backend):
    # a route's own digits: ``both`` prints the numeric route's numbers only
    judge(name, run(name, backend).stdout)
