"""Every claim of the paper's evaluation, checked at its paper grid.

``pytest benchmarks/test_claims.py -s`` runs each experiment of
:mod:`repro.experiments.claims` at the grid EXPERIMENTS.md's numbers
come from, prints its rows and one line per claim, and fails naming
every claim that does not hold.  ``tests/test_claims.py`` checks the
same rows at the quick grid.
"""

import pytest

from repro.experiments.claims import EXPERIMENTS, claims_of


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_claims_hold_at_the_paper_grid(name):
    experiment = EXPERIMENTS[name]
    result = experiment.run(**experiment.paper)
    lines = [claim.report(claim.measure(result), "paper") for claim in claims_of(name)]
    print(f"\n{experiment.format(result)}\n" + "\n".join(lines))
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not failed, "\n".join(failed)
