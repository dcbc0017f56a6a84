"""Admission control: tenant quotas, closed tenancy, and the
tenant → overload-policy mapping."""

import pytest

from repro.runtime.errors import ReproRuntimeError
from repro.runtime.overload import OverloadPolicy
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantSpec,
)


def test_quota_admits_up_to_max_then_refuses():
    ctrl = AdmissionController(tenants=(TenantSpec("acme", max_sessions=2),))
    assert ctrl.admit("acme", 0).name == "acme"
    assert ctrl.admit("acme", 1).name == "acme"
    with pytest.raises(AdmissionError, match="quota exhausted"):
        ctrl.admit("acme", 2)


def test_unknown_tenant_refused_under_closed_tenancy():
    ctrl = AdmissionController(tenants=(TenantSpec("acme"),))
    with pytest.raises(AdmissionError, match="unknown tenant") as ei:
        ctrl.spec("ghost")
    assert ei.value.tenant == "ghost"
    # an AdmissionError is a runtime error like every other typed failure
    assert isinstance(ei.value, ReproRuntimeError)


def test_default_spec_serves_unknown_tenants():
    fallback = TenantSpec("anyone", max_sessions=1)
    ctrl = AdmissionController(default=fallback)
    assert ctrl.spec("whoever") is fallback
    with pytest.raises(AdmissionError):
        ctrl.admit("whoever", 1)


def test_tenant_policy_mapping_reaches_sessions():
    """The spec carries the per-tenant OverloadPolicy (max_pending budget,
    dead-letter capacity) that open_session installs on the intake."""
    strict = OverloadPolicy("shed_newest", max_pending=1,
                            dead_letter_capacity=8)
    lax = OverloadPolicy("shed_newest", max_pending=64,
                         dead_letter_capacity=1024)
    ctrl = AdmissionController(tenants=(
        TenantSpec("strict", overload=strict),
        TenantSpec("lax", overload=lax),
    ))
    assert ctrl.spec("strict").overload is strict
    assert ctrl.spec("lax").overload is lax
    assert ctrl.spec("lax").overload.max_pending == 64


def test_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("t", max_sessions=0)
    with pytest.raises(ValueError):
        TenantSpec("t", workers=0)
