"""NAS problem classes, at paper scale and at laptop scale.

The paper evaluates classes A, B and C of NAS IS and NAS MG on a 92-node
IBM P655.  Full-size classes are constructible here, but the default
classes are scaled down (documented in DESIGN.md §7) so each benchmark
runs in seconds of wall time; the virtual-time cost model still charges
full per-element costs, so the *shape* of the efficiency figures is
governed by the same compute/latency ratio as at full scale — scaled
classes shift where that ratio sits, exactly like the paper's own
A-vs-B-vs-C progression.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["ISClass", "MGClass", "is_class", "mg_class", "IS_CLASSES",
           "IS_CLASSES_FULL", "MG_CLASSES", "MG_CLASSES_FULL"]


@dataclass(frozen=True)
class ISClass:
    """NAS IS problem instance: number of keys and key range."""

    name: str
    n_keys: int
    max_key: int  # keys are drawn from [0, max_key)


@dataclass(frozen=True)
class MGClass:
    """NAS MG problem instance (only the grid matters for ZRAN3)."""

    name: str
    nx: int
    ny: int
    nz: int

    @property
    def n_points(self) -> int:
        return self.nx * self.ny * self.nz


#: Paper-scale classes (NPB 3.x definitions).
IS_CLASSES_FULL: dict[str, ISClass] = {
    "S": ISClass("S", 1 << 16, 1 << 11),
    "W": ISClass("W", 1 << 20, 1 << 16),
    "A": ISClass("A", 1 << 23, 1 << 19),
    "B": ISClass("B", 1 << 25, 1 << 21),
    "C": ISClass("C", 1 << 27, 1 << 23),
}

#: Laptop-scale classes (DESIGN.md §7): same S, A/B/C shrunk 16x/16x/16x.
IS_CLASSES: dict[str, ISClass] = {
    "S": ISClass("S", 1 << 16, 1 << 11),
    "W": ISClass("W", 1 << 18, 1 << 14),
    "A": ISClass("A", 1 << 19, 1 << 15),
    "B": ISClass("B", 1 << 21, 1 << 17),
    "C": ISClass("C", 1 << 23, 1 << 19),
}

MG_CLASSES_FULL: dict[str, MGClass] = {
    "S": MGClass("S", 32, 32, 32),
    "A": MGClass("A", 256, 256, 256),
    "B": MGClass("B", 256, 256, 256),
    "C": MGClass("C", 512, 512, 512),
}

MG_CLASSES: dict[str, MGClass] = {
    "S": MGClass("S", 32, 32, 32),
    "A": MGClass("A", 64, 64, 64),
    "B": MGClass("B", 96, 96, 96),
    "C": MGClass("C", 128, 128, 128),
}


def is_class(name: str, *, full: bool = False) -> ISClass:
    """Look up an IS class by letter; ``full=True`` for paper scale."""
    table = IS_CLASSES_FULL if full else IS_CLASSES
    try:
        return table[name.upper()]
    except KeyError:
        raise ReproError(
            f"unknown IS class {name!r}; choose from {sorted(table)}"
        ) from None


def mg_class(name: str, *, full: bool = False) -> MGClass:
    """Look up an MG class by letter; ``full=True`` for paper scale."""
    table = MG_CLASSES_FULL if full else MG_CLASSES
    try:
        return table[name.upper()]
    except KeyError:
        raise ReproError(
            f"unknown MG class {name!r}; choose from {sorted(table)}"
        ) from None
