"""Per-tenant admission control for the coordinator service.

Admission happens at two levels, and this module is the *session* level:

* **Session quotas** — a tenant may hold at most ``max_sessions`` open
  sessions; opening one past the quota raises the typed
  :class:`AdmissionError` (recorded as ``outcome="rejected"`` in
  ``repro_serve_admissions_total``).
* **Operation budgets** — every admitted session inherits the tenant's
  :class:`~repro.runtime.overload.OverloadPolicy` (the ``max_pending``
  budget and ``block``/``shed_newest`` discipline) on its intake vertex,
  plus the tenant's dead-letter capacity, so overload never makes
  accounting lie: shed values are captured per session and the
  conservation law stays exact.

The controller itself is deliberately dumb data: a name → spec table with
an optional default for unknown tenants.  The service owns the metrics and
the open-session bookkeeping; the controller only decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.errors import ReproRuntimeError
from repro.runtime.overload import OverloadPolicy


class AdmissionError(ReproRuntimeError):
    """A session was refused admission: unknown tenant, or quota exhausted.

    Carries ``tenant`` and ``reason`` so callers (and the load harness's
    conservation books) can count rejections per tenant."""

    def __init__(self, tenant: str, reason: str):
        self.tenant = tenant
        self.reason = reason
        super().__init__(f"tenant {tenant!r} refused admission: {reason}")


def _default_policy() -> OverloadPolicy:
    return OverloadPolicy("shed_newest", max_pending=64,
                          dead_letter_capacity=4096)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission contract.

    ``overload`` is installed on every session's intake vertex — the
    tenant → :class:`OverloadPolicy` mapping.  ``workers`` is the default
    farm width for the tenant's sessions (callers may override per
    session)."""

    name: str
    max_sessions: int = 4
    overload: OverloadPolicy = field(default_factory=_default_policy)
    workers: int = 2

    def __post_init__(self):
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class AdmissionController:
    """Decides whether a tenant may open another session.

    ``default`` (a :class:`TenantSpec`, or ``None``) is what unknown
    tenants get; with ``None`` an unknown tenant is refused outright —
    the closed-tenancy configuration."""

    def __init__(self, tenants: tuple[TenantSpec, ...] = (),
                 default: TenantSpec | None = None):
        self._tenants = {t.name: t for t in tenants}
        self.default = default

    def spec(self, tenant: str) -> TenantSpec:
        """The tenant's spec (or the default), :class:`AdmissionError` when
        the tenancy is closed and the tenant unknown."""
        found = self._tenants.get(tenant)
        if found is not None:
            return found
        if self.default is not None:
            return self.default
        raise AdmissionError(tenant, "unknown tenant (closed tenancy)")

    def admit(self, tenant: str, open_sessions: int) -> TenantSpec:
        """Admit one more session for ``tenant`` given its current count of
        open (non-closed) sessions; returns the spec the session inherits,
        raises :class:`AdmissionError` past the quota."""
        spec = self.spec(tenant)
        if open_sessions >= spec.max_sessions:
            raise AdmissionError(
                tenant,
                f"session quota exhausted ({open_sessions}/{spec.max_sessions})",
            )
        return spec
