"""Operator-law validation (sampling-based).

The paper's abstraction is only correct when the user's operator obeys
the algebra the runtime exploits:

* **identity law** — ``combine(ident(), s) == s`` and (for the schedules
  that place identities on the right) ``combine(s, ident()) == s``;
* **associativity** — ``combine`` associates, which is what licenses the
  log-tree combine phase ("If the ⊕ operator is associative then an
  efficient parallel implementation exists", §1);
* **commutativity flag honesty** — if ``commutative`` is True, combine
  must commute; the paper's §4.1 experiment shows exactly what happens
  when it is dishonestly set (the sorted reduction "did fail to verify");
* **accumulate/combine consistency** — accumulating a sequence must
  equal combining the accumulations of any contiguous split, which is
  the identity the accumulate/combine phase split relies on;
* **tile-exactness honesty** — if ``tile_exact`` is True, folding a
  block tile by tile must give the byte-identical state as folding it
  whole, which is what lets the kernel tier share one sweep of the
  block between operators.

These cannot be proven for arbitrary user code, so they are *sampled*:
:func:`check_operator` draws random splits of user-provided sample data
and raises :class:`~repro.errors.OperatorLawError` on any violation.
Hypothesis-based tests build on the same helpers.
"""

from __future__ import annotations

import pickle
from typing import Any, Sequence

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError, OperatorLawError
from repro.util.sizing import copy_for_transfer

__all__ = [
    "check_operator",
    "state_equal",
    "check_identity_law",
    "check_associativity",
    "check_commutativity",
    "check_split_consistency",
    "check_tile_exactness",
    "sequential_reduce",
    "sequential_scan",
]


def state_equal(a: Any, b: Any) -> bool:
    """Structural equality that tolerates NumPy arrays and containers."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape or a_arr.dtype.kind != b_arr.dtype.kind:
            return False
        if a_arr.dtype.kind == "f":
            return bool(np.allclose(a_arr, b_arr, equal_nan=True))
        return bool(np.array_equal(a_arr, b_arr))
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (np.isnan(a) and np.isnan(b)):
            return True
        # relative tolerance for large magnitudes, absolute for values
        # near zero (floating-point combines are associative only up to
        # rounding — e.g. Chan-style mean/variance merging)
        return abs(a - b) <= max(1e-12, 1e-12 * max(abs(a), abs(b)))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(state_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(state_equal(v, b[k]) for k, v in a.items())
    if hasattr(a, "__dict__") and hasattr(b, "__dict__") and type(a) is type(b):
        return state_equal(vars(a), vars(b))
    if hasattr(type(a), "__slots__") and type(a) is type(b):
        slots = type(a).__slots__
        return all(
            state_equal(getattr(a, s), getattr(b, s)) for s in slots
        )
    try:
        return bool(a == b)
    except Exception as exc:  # pragma: no cover - defensive
        raise OperatorError(
            f"cannot compare states of types {type(a).__name__} and "
            f"{type(b).__name__}; override state_eq()"
        ) from exc


def _accumulate(op: ReduceScanOp, values: Sequence[Any]) -> Any:
    """Accumulate ``values`` into a fresh state with pre/post hooks."""
    state = op.ident()
    n = len(values)
    if n > 0:
        state = op.pre_accum(state, values[0])
        state = op.accum_block(state, values)
        state = op.post_accum(state, values[n - 1])
    return state


def sequential_reduce(op: ReduceScanOp, values: Sequence[Any]) -> Any:
    """Single-processor reference semantics of the reduction."""
    return op.red_gen(_accumulate(op, values))


def sequential_scan(
    op: ReduceScanOp, values: Sequence[Any], *, exclusive: bool = False
) -> list[Any]:
    """Single-processor reference semantics of the scan."""
    state = op.ident()
    if len(values) > 0:
        state = op.pre_accum(state, values[0])
    out, state = op.scan_block(state, values, exclusive=exclusive)
    return out


def check_identity_law(op: ReduceScanOp, state: Any) -> None:
    """combine(ident, s) == s == combine(s, ident) (on copies)."""
    left = op.combine(op.ident(), copy_for_transfer(state))
    if not op.state_eq(left, state):
        raise OperatorLawError(
            f"{op.name}: combine(ident(), s) != s — the identity state is "
            "not a left identity; empty ranks would corrupt results"
        )
    right = op.combine(copy_for_transfer(state), op.ident())
    if not op.state_eq(right, state):
        raise OperatorLawError(
            f"{op.name}: combine(s, ident()) != s — the identity state is "
            "not a right identity; empty ranks would corrupt results"
        )


def check_associativity(op: ReduceScanOp, s1: Any, s2: Any, s3: Any) -> None:
    """(s1 ⊕ s2) ⊕ s3 == s1 ⊕ (s2 ⊕ s3) (on copies)."""
    a = op.combine(
        op.combine(copy_for_transfer(s1), copy_for_transfer(s2)),
        copy_for_transfer(s3),
    )
    b = op.combine(
        copy_for_transfer(s1),
        op.combine(copy_for_transfer(s2), copy_for_transfer(s3)),
    )
    if not op.state_eq(a, b):
        raise OperatorLawError(
            f"{op.name}: combine is not associative on sampled states; "
            "tree-shaped combining would give schedule-dependent results"
        )


def check_commutativity(op: ReduceScanOp, s1: Any, s2: Any) -> None:
    """If flagged commutative, s1 ⊕ s2 == s2 ⊕ s1 (on copies)."""
    if not op.commutative:
        return
    a = op.combine(copy_for_transfer(s1), copy_for_transfer(s2))
    b = op.combine(copy_for_transfer(s2), copy_for_transfer(s1))
    if not op.state_eq(a, b):
        raise OperatorLawError(
            f"{op.name}: flagged commutative but combine(s1, s2) != "
            "combine(s2, s1) on sampled states — as-available combining "
            "would give wrong results (the paper's §4.1 failure mode)"
        )


def check_split_consistency(
    op: ReduceScanOp, values: Sequence[Any], split: int
) -> None:
    """accumulate(values) == combine(accumulate(left), accumulate(right))."""
    whole = _accumulate(op, values)
    left = _accumulate(op, values[:split])
    right = _accumulate(op, values[split:])
    combined = op.combine(left, right)
    if not op.state_eq(whole, combined):
        raise OperatorLawError(
            f"{op.name}: accumulating a block differs from combining the "
            f"accumulations of its split at {split} — the accumulate/"
            "combine phase split would change results with the number of "
            "processors"
        )


def check_tile_exactness(
    op: ReduceScanOp, values: Sequence[Any], cuts: Sequence[int]
) -> None:
    """If declared ``tile_exact``, ``accum_block`` over the whole block
    and threaded through the tiles ``cuts`` delimit give byte-identical
    states (compared as pickled, the form a send would carry)."""
    if not op.tile_exact:
        return
    whole = op.accum_block(op.ident(), values)
    tiled = op.ident()
    bounds = [0, *cuts, len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        tiled = op.accum_block(tiled, values[lo:hi])
    if pickle.dumps(whole) != pickle.dumps(tiled):
        raise OperatorLawError(
            f"{op.name}: declares tile_exact but folding the block in "
            f"tiles cut at {list(cuts)} differs from one whole-block "
            "accum_block — the operator is mis-declared; the shared "
            "accumulate sweep would change its results"
        )


def check_operator(
    op: ReduceScanOp,
    sample_values: Sequence[Any],
    *,
    n_trials: int = 20,
    rng: np.random.Generator | None = None,
) -> None:
    """Sample the operator laws on user-supplied representative data.

    Raises :class:`~repro.errors.OperatorLawError` on the first violation;
    returns None when all sampled checks pass.  Passing is evidence, not
    proof — but it catches the common mistakes (wrong identity, an accum
    that is not a homomorphism, a dishonest commutative flag) before they
    become wrong answers at scale.  Floating-point re-association shows
    only on blocks long enough for NumPy to reduce pairwise, so give a
    ``tile_exact`` declaration a few hundred sample values to answer to.
    """
    values = list(sample_values)
    if len(values) < 2:
        raise ValueError(
            "check_operator needs at least 2 sample values to test laws"
        )
    rng = rng if rng is not None else np.random.default_rng(0)

    def random_state() -> Any:
        lo = int(rng.integers(0, len(values)))
        hi = int(rng.integers(lo + 1, len(values) + 1))
        return _accumulate(op, values[lo:hi])

    check_identity_law(op, _accumulate(op, values))
    for _ in range(n_trials):
        check_identity_law(op, random_state())
        check_associativity(op, random_state(), random_state(), random_state())
        check_commutativity(op, random_state(), random_state())
        check_split_consistency(
            op, values, int(rng.integers(0, len(values) + 1))
        )
        check_tile_exactness(
            op, values, sorted(rng.integers(0, len(values) + 1, 3).tolist())
        )
