"""Acceptance gate: one test per criterion, one printed line each."""

import pytest

from carrays import acceptance
from carrays.acceptance import CHECKS, CheckResult, run_check


@pytest.mark.parametrize(
    "check_id, check",
    CHECKS.items(),
    ids=[check.__name__ for check in CHECKS.values()],
)
def test_criterion(check_id, check, capsys):
    # a failing check raises CheckFailed, which pytest shows with its witness
    detail = check()
    with capsys.disabled():
        print(f"\nPASS  {check_id:32}  {detail}")


def test_registry_pins_ids_in_selftest_order():
    # a dropped check or a repeated dict key shortens this list
    assert list(CHECKS) == [
        "1-bijection-round-trip",
        "2-first-row-statistic",
        "3-row-bumping-lemma",
        "4-normal-array-counts",
        "5-content-permutation-reduction",
        "6a-straightening-phi-soundness",
        "6b-straightening-derived-forms",
        "7-independence-ranks",
        "8-hilbert-three-way",
        "9-codimension-series",
        "10a-weak-identity-c3",
        "10b-weak-identity-p",
        "10c-non-identity-witness",
        "10d-squared-pair-scalar",
    ]


def test_planted_fault_reports_its_witness(monkeypatch):
    monkeypatch.setattr(acceptance, "dimension", lambda content: -1)
    assert run_check("5-content-permutation-reduction") == CheckResult(
        "5-content-permutation-reduction",
        False,
        "dimension formula mismatch at (0, 0, 0, 0, 0, 0, 0, 0)",
    )


def test_engine_errors_are_not_check_failures(monkeypatch):
    def broken(content):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(acceptance, "dimension", broken)
    with pytest.raises(RuntimeError, match="engine fault"):
        run_check("5-content-permutation-reduction")
