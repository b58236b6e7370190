"""Declarative, seeded fault-injection plans.

A :class:`FaultPlan` is pure data: *what* can go wrong, with what
probability or at what point.  It contains no mutable state and can be
reused across runs; binding it to a world (and materializing the
per-rank RNG streams) is the job of
:class:`repro.faults.injection.FaultInjector`.

Reproducibility contract: a plan plus a world size determines every
fault decision.  Each rank draws from its own ``random.Random`` seeded
with ``f"{seed}:{rank}"`` (string seeding is stable across Python
versions and platforms), so rank *r*'s fault stream does not depend on
what other ranks do or on the thread schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = [
    "FailStop",
    "RackFailure",
    "LinkFaults",
    "FaultPlan",
    "expand_rack_failures",
    "random_plan",
    "reseed",
    "TransientPlan",
    "transient_plan",
]


@dataclass(frozen=True)
class FailStop:
    """Schedule one rank's fail-stop (crash) point.

    Exactly one of ``at_time`` / ``at_op`` should be set:

    ``at_time``
        Die at the first virtual-clock charge that reaches this time.
    ``at_op``
        Die immediately before this rank's nth message send (1-based).
        ``at_op=1`` kills the rank at its first send — under the
        global-view drivers that is inside the combine phase, after the
        local accumulate completed.
    """

    rank: int
    at_time: float | None = None
    at_op: int | None = None

    def __post_init__(self):
        if (self.at_time is None) == (self.at_op is None):
            raise ValueError("FailStop needs exactly one of at_time / at_op")
        if self.at_op is not None and self.at_op < 1:
            raise ValueError(f"at_op is 1-based, got {self.at_op}")


@dataclass(frozen=True)
class RackFailure:
    """Schedule the loss of one rack-level fault domain.

    A rack failure (ToR switch death, PDU trip) takes out *every* rank
    placed under that switch at once.  Racks are a property of the
    world's :class:`~repro.runtime.fabric.Topology`, not of the plan, so
    a ``RackFailure`` stays symbolic until a world binds the plan:
    :func:`expand_rack_failures` lowers it to one per-rank
    :class:`FailStop` (``at_time``-triggered) per member placed in the
    doomed rack.  From there the existing machinery — fail-stop checks,
    ULFM revoke/shrink, engine quarantine — applies unchanged.

    On a flat topology every rank is in rack 0: ``RackFailure(rack=0)``
    is then a whole-world failure.
    """

    rack: int
    at_time: float = 0.0

    def __post_init__(self):
        if self.rack < 0:
            raise ValueError(f"rack must be >= 0, got {self.rack}")
        if self.at_time < 0:
            raise ValueError(f"at_time must be >= 0, got {self.at_time}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-message perturbation probabilities (applied sender-side).

    ``drop_rate``
        Probability a transmission attempt is lost.  The reliable layer
        models the retransmit: the sender pays exponential-backoff
        virtual time per lost attempt, then the message goes through —
        drops cost *time*, never data.
    ``dup_rate``
        Probability the message is delivered twice (the duplicate is
        discarded by receiver-side sequence numbers).
    ``delay_rate`` / ``delay_seconds``
        Probability of, and maximum magnitude of, extra wire latency
        (uniform in ``[0, delay_seconds]``).
    ``reorder_rate``
        Probability a message overtakes the previous in-flight message
        to the same destination queue (repaired by sequence numbers).
    """

    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 1e-4
    reorder_rate: float = 0.0

    def __post_init__(self):
        for name in ("drop_rate", "dup_rate", "delay_rate", "reorder_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.drop_rate >= 1.0:
            raise ValueError("drop_rate must be < 1 (retransmit must terminate)")

    @property
    def any_active(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.dup_rate > 0.0
            or self.delay_rate > 0.0
            or self.reorder_rate > 0.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible fault schedule for one SPMD run.

    Attributes
    ----------
    seed:
        Root seed for all probabilistic decisions (link faults).  The
        deterministic parts (fail-stops, stragglers) do not consume
        randomness at injection time.
    failstops:
        Fail-stop schedules, at most one per rank.
    link:
        Lossy-link perturbation rates, applied to every send.
    stragglers:
        ``{rank: multiplier}`` — rank's compute charges are scaled by
        ``multiplier`` (> 1 slows the rank down).
    rto:
        Base retransmission timeout (virtual seconds) for the reliable
        layer's exponential backoff: attempt *i* of a dropped message
        costs ``rto * 2**i`` extra virtual time at the sender.
    rack_failures:
        Rack-scoped fault domains: each entry fail-stops every rank the
        world's topology places in that rack (lowered to per-rank
        :class:`FailStop` entries by :func:`expand_rack_failures` when a
        world binds the plan).
    """

    seed: int = 0
    failstops: tuple[FailStop, ...] = ()
    link: LinkFaults = field(default_factory=LinkFaults)
    stragglers: dict[int, float] = field(default_factory=dict)
    rto: float = 1e-4
    rack_failures: tuple[RackFailure, ...] = ()

    def __post_init__(self):
        ranks = [f.rank for f in self.failstops]
        if len(ranks) != len(set(ranks)):
            raise ValueError("at most one FailStop per rank")
        for r, m in self.stragglers.items():
            if m <= 0:
                raise ValueError(f"straggler multiplier for rank {r} must be > 0")
        if self.rto <= 0:
            raise ValueError("rto must be > 0")

    @property
    def can_fail(self) -> bool:
        """True if the plan schedules any rank fail-stop."""
        return bool(self.failstops) or bool(self.rack_failures)

    @property
    def lossy(self) -> bool:
        """True if the plan perturbs message delivery at all."""
        return self.link.any_active

    def rank_stream(self, rank: int) -> random.Random:
        """The deterministic RNG stream for one rank's link faults."""
        return random.Random(f"{self.seed}:{rank}")

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for f in self.failstops:
            when = (
                f"t={f.at_time:g}" if f.at_time is not None else f"op={f.at_op}"
            )
            parts.append(f"failstop(rank={f.rank}, {when})")
        if self.link.any_active:
            parts.append(
                f"link(drop={self.link.drop_rate:g}, dup={self.link.dup_rate:g}, "
                f"delay={self.link.delay_rate:g}, reorder={self.link.reorder_rate:g})"
            )
        if self.stragglers:
            parts.append(
                "stragglers(" + ", ".join(
                    f"{r}x{m:g}" for r, m in sorted(self.stragglers.items())
                ) + ")"
            )
        for rf in self.rack_failures:
            parts.append(f"rack_failure(rack={rf.rack}, t={rf.at_time:g})")
        return "FaultPlan(" + ", ".join(parts) + ")"


def expand_rack_failures(plan, topology, members) -> "FaultPlan":
    """Lower a plan's rack-scoped failures for one concrete placement.

    ``members`` is the group-rank-ordered tuple of world ranks the plan
    will govern (``range(nprocs)`` for a standalone world, the gang's
    pool placement for an engine job); ``topology`` maps world ranks to
    racks.  Every member whose rack appears in ``plan.rack_failures``
    gains an ``at_time`` :class:`FailStop` addressed by its *group*
    rank — the coordinate space fault plans always use, which keeps a
    rack-chaos job reproducible wherever the pool places it.  Members
    that already carry an explicit ``FailStop`` keep it (the
    at-most-one-per-rank invariant).  Plans without rack failures are
    returned unchanged.
    """
    racks = getattr(plan, "rack_failures", ())
    if not racks:
        return plan
    claimed = {f.rank for f in plan.failstops}
    extra: list[FailStop] = []
    for rf in racks:
        for g, w in enumerate(members):
            if topology.rack_of(w) == rf.rack and g not in claimed:
                extra.append(FailStop(rank=g, at_time=rf.at_time))
                claimed.add(g)
    return FaultPlan(
        seed=plan.seed,
        failstops=plan.failstops + tuple(extra),
        link=plan.link,
        stragglers=plan.stragglers,
        rto=plan.rto,
    )


def random_plan(
    seed: int,
    nprocs: int,
    *,
    failstop: bool = True,
    lossy: bool = True,
    stragglers: bool = True,
    max_drop: float = 0.3,
    max_dup: float = 0.3,
) -> FaultPlan:
    """Derive a random-but-reproducible plan from a single seed.

    Used by the chaos harness: the same ``(seed, nprocs)`` always yields
    the same plan.  Rank 0 is never fail-stopped (it is the conventional
    root/survivor against which recovered results are checked), and
    exactly one rank dies per plan when ``failstop`` is enabled — the
    single-failure model the recovery protocol is specified for.
    """
    rng = random.Random(f"plan:{seed}:{nprocs}")
    failstops: tuple[FailStop, ...] = ()
    if failstop and nprocs >= 2:
        victim = rng.randrange(1, nprocs)
        # at_op=1: die at the first send, i.e. inside the combine phase
        # of a global-view reduction (accumulate does not communicate).
        failstops = (FailStop(rank=victim, at_op=1),)
    link = LinkFaults()
    if lossy:
        link = LinkFaults(
            drop_rate=rng.uniform(0.0, max_drop),
            dup_rate=rng.uniform(0.0, max_dup),
            delay_rate=rng.uniform(0.0, 0.3),
            delay_seconds=10 ** rng.uniform(-5, -3),
            reorder_rate=rng.uniform(0.0, 0.3),
        )
    slow: dict[int, float] = {}
    if stragglers and rng.random() < 0.5:
        slow[rng.randrange(nprocs)] = rng.uniform(1.5, 8.0)
    return FaultPlan(seed=seed, failstops=failstops, link=link, stragglers=slow)


def reseed(plan: FaultPlan, attempt: int) -> FaultPlan:
    """Derive the fault plan for retry ``attempt`` (0 = first attempt).

    A retried job must not replay the exact fault stream that killed it
    — a deterministic at-op fail-stop would recur forever — so the
    engine's :class:`~repro.engine.resilience.RetryPolicy` reseeds the
    plan per attempt.  The derivation is itself deterministic (seed
    arithmetic, no entropy), preserving the reproducibility contract:
    the same submitted plan and attempt number always yield the same
    derived plan.  Fail-stop schedules are kept only on attempt 0; link
    faults and stragglers persist (the reliable layer makes them
    bit-transparent) with a reseeded probabilistic stream.
    """
    if attempt == 0:
        return plan
    return FaultPlan(
        seed=plan.seed + 1_000_003 * attempt,
        failstops=(),
        link=plan.link,
        stragglers=plan.stragglers,
        rto=plan.rto,
    )


class TransientPlan:
    """A callable fault-plan source modelling *transient* faults.

    The engine accepts either a static :class:`FaultPlan` or a callable
    ``attempt -> FaultPlan | None`` as a job's ``fault_plan``; this is
    the canonical callable: each attempt independently (but
    deterministically, from the seed) draws whether a fail-stop strikes,
    so a job under a :class:`~repro.engine.resilience.RetryPolicy`
    eventually lands a clean attempt and completes bit-identically to a
    fault-free run.  This is the chaos-tenant primitive used by the
    chaos soak (``tests/test_engine_resilience.py::TestChaosSoak``).
    """

    __slots__ = ("seed", "nprocs", "failstop_rate", "lossy", "max_drop")

    def __init__(
        self,
        seed: int,
        nprocs: int,
        *,
        failstop_rate: float = 0.5,
        lossy: bool = True,
        max_drop: float = 0.2,
    ):
        if not 0.0 <= failstop_rate <= 1.0:
            raise ValueError(
                f"failstop_rate must be in [0, 1], got {failstop_rate}"
            )
        self.seed = seed
        self.nprocs = nprocs
        self.failstop_rate = failstop_rate
        self.lossy = lossy
        self.max_drop = max_drop

    def __call__(self, attempt: int) -> FaultPlan:
        rng = random.Random(
            f"transient:{self.seed}:{self.nprocs}:{attempt}"
        )
        failstops: tuple[FailStop, ...] = ()
        if self.nprocs >= 2 and rng.random() < self.failstop_rate:
            victim = rng.randrange(1, self.nprocs)
            failstops = (FailStop(rank=victim, at_op=1),)
        link = LinkFaults()
        if self.lossy:
            link = LinkFaults(
                drop_rate=rng.uniform(0.0, self.max_drop),
                dup_rate=rng.uniform(0.0, 0.2),
                delay_rate=rng.uniform(0.0, 0.2),
                delay_seconds=10 ** rng.uniform(-5, -4),
                reorder_rate=rng.uniform(0.0, 0.2),
            )
        return FaultPlan(
            seed=self.seed + 1_000_003 * attempt,
            failstops=failstops,
            link=link,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransientPlan(seed={self.seed}, nprocs={self.nprocs}, "
            f"failstop_rate={self.failstop_rate:g})"
        )


def transient_plan(
    seed: int,
    nprocs: int,
    *,
    failstop_rate: float = 0.5,
    lossy: bool = True,
    max_drop: float = 0.2,
) -> TransientPlan:
    """Convenience constructor for :class:`TransientPlan` (chaos tenants)."""
    return TransientPlan(
        seed, nprocs,
        failstop_rate=failstop_rate, lossy=lossy, max_drop=max_drop,
    )
