"""Every claim of the paper's evaluation, checked at its quick grid.

The rows live in :mod:`repro.experiments.claims`; a failure names the
claim, its measurement and its bound.  ``benchmarks/test_claims.py``
checks the same rows at the paper grid.
"""

import pytest

from repro.experiments.claims import CLAIMS, EXPERIMENTS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds_at_the_quick_grid(claim, quick_result):
    value = claim.measure(quick_result(claim.experiment))
    assert claim.holds(value, "quick"), claim.report(value, "quick")


def test_ids_are_unique_and_every_experiment_has_a_row():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)
