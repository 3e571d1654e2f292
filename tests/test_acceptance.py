"""Acceptance gate: one test per criterion, printed as one pass/fail line each.

Criteria 3 and 4 share the density-grid computation (module-scoped fixture);
it dominates the suite's runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines as they complete.
"""

import dataclasses

import pytest

from aircomp import acceptance
from aircomp.analytical import mse_analytic


@pytest.fixture(scope="module")
def fig2_grid():
    assert acceptance.N_ITER == 10_000  # pinned for criteria 2-4
    return acceptance.compute_fig2_grid()


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number}: {result.name}\n"
          f"        {result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"


def test_criterion_1_special_functions():
    report(acceptance.criterion_1())


def test_criterion_2_campbell_oracle():
    assert acceptance.N_ITER == 10_000
    report(acceptance.criterion_2())


def test_criterion_3_theorem_adjudication(fig2_grid):
    report(acceptance.criterion_3(fig2_grid))


def test_criterion_4_mse_decreasing_in_density(fig2_grid):
    report(acceptance.criterion_4(fig2_grid))


def test_criterion_5_optimal_access_radius():
    report(acceptance.criterion_5())


def test_criterion_6_eta_optimizer_vs_dense_grid():
    report(acceptance.criterion_6())


def test_criterion_6_rejects_optimizer_two_percent_off(monkeypatch):
    real_optimize_eta = acceptance.optimize_eta

    def off_by_two_percent(params, variant="rederived", **kw):
        opt = real_optimize_eta(params, variant, **kw)
        eta = 1.02 * opt.eta
        return dataclasses.replace(
            opt, eta=eta, mse=mse_analytic(params, eta, variant).total)

    monkeypatch.setattr(acceptance, "optimize_eta", off_by_two_percent)
    assert not acceptance.criterion_6().passed


def test_criterion_7_per_realization_stationarity():
    report(acceptance.criterion_7())


def test_criterion_8_determinism():
    report(acceptance.criterion_8())
