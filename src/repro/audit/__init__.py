"""Determinism auditor: schedule perturbation + conservation invariants.

The engine's correctness story rests on one property: a parallel region
produces bit-identical results no matter how its events interleave, because
every order-sensitive reduction is staged and applied in provenance
order.  This package turns that claim into a machine-checked property:

- :mod:`repro.audit.invariants` — the conservation checker wired behind
  ``EngineConfig.audit``: request/ack accounting, outstanding counters,
  staged-group drainage, back-pressure state, and network port timelines,
  all verified at the end of every job.
- :mod:`repro.audit.harness` — the schedule-perturbation harness: runs a
  workload K times under K seeded tie-break permutations of equal-time
  events (the only legal reordering), solo and interleaved with a second
  tenant, and diffs property bit-patterns, dispatch logs, and stats.

``python -m repro audit`` drives the harness from the command line; see
``docs/auditing.md`` for the determinism contract and the invariant list.

This module deliberately imports only :mod:`repro.audit.invariants` (the
harness pulls in the whole engine; the engine's job runner pulls in the
invariants — keeping the harness import lazy avoids the cycle).
"""

from .invariants import AuditTracker, AuditViolation, check_execution

__all__ = ["AuditTracker", "AuditViolation", "check_execution"]
