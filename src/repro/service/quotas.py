"""Per-tenant quotas for the serving core.

Tenancy in the server is a *namespace*: every registration and request
carries a tenant id, registrations live under ``tenant/name`` keys, and
each tenant is metered against a :class:`TenantQuota`:

* ``rps`` — a token bucket (capacity ``burst``) limiting sustained
  requests per second;
* ``max_inflight`` — a bulkhead on queued + executing requests, so one
  tenant flooding the queue cannot starve the rest;
* ``max_plans`` — a bulkhead on *resident plans* (distinct registered
  permutations), bounding how much of the shared plan cache one tenant
  can pin.

All accounting happens under the server's admission lock, so the
bucket and gauges here are deliberately lock-free.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.telemetry import MetricsRegistry

__all__ = ["TenantQuota", "TenantState", "UNLIMITED_QUOTA"]


@dataclass(frozen=True)
class TenantQuota:
    """Limits for one tenant; ``None`` fields are unlimited."""

    rps: float | None = None
    burst: int = 8
    max_inflight: int | None = None
    max_plans: int | None = None

    def __post_init__(self) -> None:
        if self.rps is not None and self.rps <= 0:
            raise ValidationError(f"rps must be > 0, got {self.rps}")
        if self.burst < 1:
            raise ValidationError(f"burst must be >= 1, got {self.burst}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_plans is not None and self.max_plans < 1:
            raise ValidationError(
                f"max_plans must be >= 1, got {self.max_plans}"
            )


#: The default: no limits (single-tenant deployments pay nothing).
UNLIMITED_QUOTA = TenantQuota()


class TenantState:
    """Live accounting for one tenant (guarded by the server lock).

    Rate-limit decisions count into ``metrics`` (the server's registry,
    or a private one) as ``tenant_admitted_total{tenant=}`` and
    ``tenant_rate_limited_total{tenant=}``.
    """

    def __init__(
        self,
        quota: TenantQuota,
        clock: Callable[[], float] = time.monotonic,
        *,
        tenant: str = "default",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.quota = quota
        self._clock = clock
        self.tokens = float(quota.burst)
        self.last_refill = clock()
        self.inflight = 0
        self.plans: set[str] = set()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._admitted = metrics.counter("tenant_admitted_total",
                                         tenant=tenant)
        self._rate_limited = metrics.counter(
            "tenant_rate_limited_total", tenant=tenant
        )

    def _refill(self) -> None:
        assert self.quota.rps is not None
        now = self._clock()
        self.tokens = min(
            float(self.quota.burst),
            self.tokens + (now - self.last_refill) * self.quota.rps,
        )
        self.last_refill = now

    def try_acquire(self) -> float:
        """Take one rate token.

        Returns 0.0 on success, else the seconds until the next token
        accrues (the retry-after hint).  Unlimited tenants always
        succeed.
        """
        if self.quota.rps is None:
            self._admitted.inc()
            return 0.0
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self._admitted.inc()
            return 0.0
        self._rate_limited.inc()
        return (1.0 - self.tokens) / self.quota.rps

    def inflight_available(self) -> bool:
        return (
            self.quota.max_inflight is None
            or self.inflight < self.quota.max_inflight
        )

    def plan_slot_available(self, key: str) -> bool:
        return (
            self.quota.max_plans is None
            or key in self.plans
            or len(self.plans) < self.quota.max_plans
        )

    def snapshot(self) -> dict:
        return {
            "inflight": self.inflight,
            "resident_plans": len(self.plans),
            "admitted": self._admitted.value,
            "rejected": self._rate_limited.value,
            "rps": self.quota.rps,
            "max_inflight": self.quota.max_inflight,
            "max_plans": self.quota.max_plans,
        }
