"""The self-check table: every check draws its inputs from a Generator seeded
by its own name, so it reports the same numbers whatever runs before it."""

import pytest

from symtrans.verify import OP_TOL_STD, OP_TOL_WIDE, SUITES, run_checks

CHECKS = {check.name: check for suite in SUITES.values() for check in suite}


def test_check_names_are_unique():
    names = [check.name for suite in SUITES.values() for check in suite]
    assert len(names) == len(set(names)) == len(CHECKS)


def test_every_gradcheck_holds_the_one_tolerance_pair():
    tols = {"std": OP_TOL_STD, "wide": OP_TOL_WIDE}
    assert {check.name: check.tol for check in SUITES["gradcheck"]} == {
        check.name: tols[check.name.rsplit(".", 1)[1]] for check in SUITES["gradcheck"]}


def recorded(check, states):
    """``check``, noting the state of each Generator it is handed."""
    def measure(rng):
        states.append(rng.bit_generator.state)
        return check.measure(rng)
    return check._replace(measure=measure)


# (a check that draws from its Generator, a cheap check of the same suite)
@pytest.mark.parametrize("first, shared", [
    ("gradcheck.add_mul.std", "gradcheck.matmul.wide"),
    ("oracle.attention", "oracle.adam"),
    ("diffeo.fold_free_integration", "diffeo.inverse_consistency"),
])
def test_a_check_reports_the_same_after_another(first, shared):
    after, alone = [], []
    two = run_checks([CHECKS[first], recorded(CHECKS[shared], after)])
    one = run_checks([recorded(CHECKS[shared], alone)])
    assert after == alone
    assert two[1] == one[0]
    assert two[1][1], two[1]
