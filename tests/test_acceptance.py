"""Acceptance gate: one test per criterion, one printed line each."""

import pytest

from carrays.acceptance import ALL_CHECKS, CHECK_IDS


@pytest.mark.parametrize(
    "check, check_id",
    zip(ALL_CHECKS, CHECK_IDS),
    ids=[check.__name__ for check in ALL_CHECKS],
)
def test_criterion(check, check_id, capsys):
    result = check()
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status}  {result.check_id:32}  {result.detail}")
    assert result.check_id == check_id
    assert result.passed, f"{result.check_id}: {result.detail}"


def test_registry_is_complete():
    assert len(ALL_CHECKS) == len(CHECK_IDS)
    assert len(set(CHECK_IDS)) == len(CHECK_IDS)
