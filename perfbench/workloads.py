"""The benchmark's workloads by name."""

from __future__ import annotations

NAMES = ("derive", "verify", "cli")


def in_process(name: str):
    """Build an in-process workload: imports gausscalc and builds its towers."""
    if name == "derive":
        from derive import Derive

        return Derive()
    if name == "verify":
        from verify import Verify

        return Verify()
    raise ValueError(f"{name!r} is not an in-process workload")
