"""Gain selection and rule validation."""

import numpy as np
import pytest

import mgshare as mg


def ring5():
    return mg.CommGraph.ring(5)


def reference_spec(**kw):
    base = dict(delta_f_max=0.005, rocof_star=2.5)
    base.update(kw)
    return mg.TuningSpec(**base)


def test_reference_consensus_gain():
    tuned = mg.tune(reference_spec(), ring5(), 0.95, 1.05)
    # k_d / sigma2 on the unit-weight 5-ring; the gain table rounds to 7.24
    assert tuned.k == pytest.approx(10.0 / (2 - 2 * np.cos(2 * np.pi / 5)), abs=1e-9)
    assert tuned.k == pytest.approx(7.236, abs=0.005)


def test_reference_droop_gains():
    tuned = mg.tune(reference_spec(), ring5(), 0.95, 1.05)
    assert tuned.m_star == pytest.approx(2 * np.pi * 0.005 * 50.0, abs=1e-12)
    assert tuned.m_star == pytest.approx(1.571, abs=1e-3)
    assert np.allclose(tuned.m_v_pu, 0.05)
    assert np.allclose(tuned.m_v_volt, 11.0)


def test_reference_time_constants():
    tuned = mg.tune(reference_spec(), ring5(), 0.95, 1.05)
    assert tuned.tau_omega == pytest.approx(0.1)
    assert tuned.tau_d == pytest.approx(0.1)
    assert tuned.tau_v == pytest.approx(1.0)
    assert tuned.beta == 0.01
    assert tuned.warnings == ()


def test_beta_halving_under_tight_budget():
    tuned = mg.tune(reference_spec(beta_error_budget=1e-4), ring5(), 0.95, 1.05)
    # halved from 0.01 until beta * Delta / V_star <= budget
    assert tuned.beta == pytest.approx(0.01 / 8)
    assert tuned.beta * 0.05 / 1.0 <= 1e-4 * (1 + 1e-9)


def test_unreachable_budget_rejected():
    with pytest.raises(mg.MgshareError, match="budget"):
        mg.tune(reference_spec(beta_error_budget=1e-25), ring5(), 0.95, 1.05)


def test_unreachable_budget_quotes_the_beta_it_needs(lv5):
    """On lv5's band, Delta / V_star = 0.05 / 1.0, so a 1e-30 budget needs beta < 2e-29."""
    p = lv5.params
    with pytest.raises(mg.MgshareError, match=r"needs beta < 2\.000e-29\)"):
        mg.tune(reference_spec(beta_error_budget=1e-30), lv5.graph, p.v_min, p.v_max)


@pytest.mark.parametrize("v_min, v_max", [(1.05, 0.95), (np.array([0.95, 1.0]), 1.0)],
                         ids=["inverted", "empty-band"])
def test_tune_rejects_an_empty_band(v_min, v_max):
    with pytest.raises(mg.MgshareError, match="^need v_min < v_max$"):
        mg.tune(reference_spec(), ring5(), v_min, v_max)


def test_tau_v_range_warning():
    tuned = mg.tune(reference_spec(rocof_star=0.05), ring5(), 0.95, 1.05)
    assert tuned.tau_v > 10.0
    assert any("1-10 s" in w for w in tuned.warnings)


def test_per_unit_heterogeneous_limits():
    tuned = mg.tune(reference_spec(), ring5(),
                    [0.95, 0.96, 0.95, 0.95, 0.95], [1.05, 1.04, 1.05, 1.05, 1.05])
    assert tuned.m_v_pu[1] == pytest.approx(0.04)


def test_validate_reference_gains(lv5):
    report = mg.validate(lv5.params, beta_error_budget=5e-4)
    assert report.ok, report.violations
    assert len(report.checked) == 3


def test_validate_boundary_exactly_10x_passes():
    p = mg.IbrParams(
        s_rated=np.ones(2), m_omega=np.ones(2), m_v=np.full(2, 0.05),
        v_min=np.full(2, 0.95), v_max=np.full(2, 1.05),
        tau_omega=0.1, tau_v=1.0, tau_p=0.01, tau_d=0.1, beta=0.01, k=1.0,
    )
    assert mg.validate(p).ok


def test_validate_flags_violations():
    p = mg.IbrParams(
        s_rated=np.ones(2), m_omega=np.ones(2), m_v=np.full(2, 0.05),
        v_min=np.full(2, 0.95), v_max=np.full(2, 1.05),
        tau_omega=0.5, tau_v=1.0, tau_p=0.05, tau_d=0.1, beta=0.01, k=1.0,
    )
    report = mg.validate(p)
    assert not report.ok
    assert len(report.violations) == 2


def test_validate_sharing_rule_divides_by_v_star():
    """At V_star = 0.5, beta * Delta / V_star = 0.01 * 0.05 / 0.5 = 1e-3: a 5e-4
    budget fails, and 2e-3 passes."""
    p = mg.IbrParams(
        s_rated=np.ones(2), m_omega=np.ones(2), m_v=np.full(2, 0.05),
        v_min=np.full(2, 0.45), v_max=np.full(2, 0.55),
        tau_omega=0.1, tau_v=1.0, tau_p=0.01, tau_d=0.1, beta=0.01, k=1.0,
    )
    failed = mg.validate(p, beta_error_budget=5e-4).violations
    assert len(failed) == 1 and failed[0].startswith("beta * Delta / V_star")
    assert mg.validate(p, beta_error_budget=2e-3).ok


def test_bad_spec_rejected():
    with pytest.raises(mg.MgshareError):
        mg.TuningSpec(delta_f_max=0.0, rocof_star=2.5)
