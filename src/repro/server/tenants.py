"""Per-tenant namespaces: one middleware, one mapping, one token each.

A *tenant* is an isolation boundary, not a label: every tenant owns a
complete :class:`~repro.core.middleware.S2SMiddleware` — its own
ontology mapping, data-source registry, circuit breakers, semantic
store and metrics wiring.  One tenant's open breakers,
stale materializations or runaway queries are invisible to every other
tenant; the only shared resources are the server's accept thread and
its admission-control slots.

Authentication is deliberately minimal (a per-tenant bearer token
checked at HELLO); the interesting property is the namespace isolation
behind it.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field

from ..errors import S2SError


@dataclass
class Tenant:
    """One tenant: a name, its middleware and an optional token.

    ``token=None`` means the tenant accepts unauthenticated sessions
    (useful for demos and loopback deployments).  ``owned`` marks
    middlewares the server constructed itself — those are closed on
    server shutdown; injected middlewares are the caller's to close."""

    name: str
    middleware: object  # S2SMiddleware, duck-typed to avoid import cycles
    token: str | None = None
    owned: bool = False

    def authenticate(self, token: str | None) -> bool:
        """Constant-time token check; trivially true for open tenants."""
        if self.token is None:
            return True
        if token is None:
            return False
        return hmac.compare_digest(self.token, token)


@dataclass
class TenantRegistry:
    """name → :class:`Tenant`, the server's authentication surface."""

    tenants: dict[str, Tenant] = field(default_factory=dict)

    @classmethod
    def of(cls, middlewares: dict) -> "TenantRegistry":
        """A registry from ``{name: middleware}`` (open tenants)."""
        registry = cls()
        for name, middleware in middlewares.items():
            registry.add(Tenant(name, middleware))
        return registry

    def add(self, tenant: Tenant) -> Tenant:
        """Register a tenant; names are unique."""
        if not tenant.name:
            raise S2SError("tenant name must be non-empty")
        if tenant.name in self.tenants:
            raise S2SError(f"tenant {tenant.name!r} already registered")
        self.tenants[tenant.name] = tenant
        return tenant

    def authenticate(self, name: str | None, token: str | None) -> Tenant:
        """The tenant for a HELLO, or raises :class:`S2SError`.

        Unknown tenants and bad tokens raise the *same* message, so a
        probe cannot distinguish which half was wrong."""
        tenant = self.tenants.get(name or "")
        if tenant is None or not tenant.authenticate(token):
            raise S2SError("unknown tenant or bad token")
        return tenant

    def names(self) -> list[str]:
        """Registered tenant names, sorted."""
        return sorted(self.tenants)

    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(self.tenants.values())
