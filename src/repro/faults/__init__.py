"""Deterministic, seeded fault injection for simulated training runs.

See :mod:`repro.faults.spec` for the serializable schedule format and
:mod:`repro.faults.injector` for the runtime machinery; ``docs/faults.md``
covers the fault model end to end.
"""

from repro.faults.injector import (
    ChaosError,
    FaultClock,
    FaultInjector,
)
from repro.faults.spec import (
    FAULT_SCHEMA_VERSION,
    DeviceFailure,
    FaultSpec,
    LinkFault,
    Straggler,
    parse_link,
)

__all__ = [
    "FAULT_SCHEMA_VERSION",
    "ChaosError",
    "DeviceFailure",
    "FaultClock",
    "FaultInjector",
    "FaultSpec",
    "LinkFault",
    "Straggler",
    "parse_link",
]
