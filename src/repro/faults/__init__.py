"""Deterministic fault injection for the retrieval service.

A serving system's failure paths are code too — and untested code is
broken code.  This package makes failures *provokable on demand and
replayable bit-for-bit*:

* :mod:`~repro.faults.plan` — :class:`FaultSpec` / :class:`FaultPlan`
  (seeded, JSON-serializable fault rules) and the :class:`FaultClock`
  of per-``(site, key)`` invocation counters that makes every firing
  decision a pure function of the plan;
* :mod:`~repro.faults.inject` — the ambient-contextvars activation
  (:func:`activate_faults`) and the :func:`fault_point` hook
  instrumented modules plant at named sites, mirroring
  :mod:`repro.obs`'s tracer plumbing (and sharing its disabled-cost
  budget);
* :mod:`~repro.faults.plans` — the six builtin scenarios
  (``BUILTIN_PLAN_NAMES``) the CI chaos job replays on every PR;
* :mod:`~repro.faults.replay` — the chaos replay behind ``cli chaos``
  and the fault suite: one feedback workload, fault-free and under a
  plan, checked page by page against the resilience contract.

Disabled by default: with no plan armed, every injection point costs
one context-variable read.  See ``docs/RESILIENCE.md`` for the site
catalogue and the recovery semantics each plan exercises.
"""

from .inject import (
    ActiveFaults,
    activate_faults,
    active_faults,
    fault_point,
    faults_active,
    register_site,
    registered_sites,
)
from .plan import (
    FAULT_KINDS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_payload,
)
from .plans import BUILTIN_PLAN_NAMES, builtin_plan, builtin_plans

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultClock",
    "InjectedFault",
    "corrupt_payload",
    "ActiveFaults",
    "activate_faults",
    "active_faults",
    "faults_active",
    "fault_point",
    "register_site",
    "registered_sites",
    "BUILTIN_PLAN_NAMES",
    "builtin_plan",
    "builtin_plans",
]
