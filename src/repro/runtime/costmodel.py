"""LogGP-style communication/computation cost model.

The paper's performance figures were measured on an IBM P655 cluster; this
reproduction replaces the cluster with a message-level simulator whose cost
parameters follow the LogGP family:

* ``send_overhead`` (o_s): CPU time the sender spends injecting a message.
* ``recv_overhead`` (o_r): CPU time the receiver spends extracting one.
* ``latency`` (L): wire time for the first byte.
* ``byte_time`` (G): wire time per additional byte (1/bandwidth).

A message of ``b`` bytes sent at sender-time ``t_s`` becomes available to
the receiver at ``t_s + o_s + L + b*G``; the sender's clock advances by
``o_s`` only (eager/asynchronous send).

``L + b*G`` (:meth:`CostModel.wire_time`) is the price of one *uniform*
link.  Worlds no longer call it directly: every send is priced through
the world's :class:`repro.runtime.fabric.Topology` via
``path_cost(src, dst, nbytes, cost_model)``, which on the default flat
topology evaluates exactly this formula — the model above is the flat
fabric — while multi-tier fabrics substitute per-tier parameters (see
``docs/topology.md``).  This object remains the single source of truth
for overheads, compute rates, and the inter-node tier's defaults.

Local computation is charged through named **rates** (seconds/element).
Rates can be fixed (the deterministic defaults below, loosely modeled on a
2000s-era cluster node so the compute/latency ratio is realistic) or
**calibrated** by timing the actual Python/NumPy kernels on the current
machine via :func:`calibrate_rate`.  Calibration is one explicit step
(``python -m benchmarks.rates``) that times the kernels the figures
charge for and writes the rates to the committed ``results/rates.json``;
every figure benchmark reads that file, so the reproduced curves reflect
real relative costs of this implementation, communication follows the
model, and each committed figure regenerates byte for byte.
"""

from __future__ import annotations

from repro import _lazy
from repro.util.record import Record

__all__ = [
    "CostModel",
    "DEFAULT_RATES",
    "calibrate_rate",
    "cluster_2006",
    "modern_node",
]

#: Deterministic default per-element compute rates (seconds per element).
#:
#: ``python_loop``  — an interpreted per-element accumulate loop.
#: ``numpy_stream`` — a streaming vectorized pass (one read per element).
#: ``numpy_stream2``— a vectorized pass making two reads per element
#:                    (the "two memory references" NAS IS verifier).
#: ``compare``      — one compare+branch per element in compiled-like code.
DEFAULT_RATES: dict[str, float] = {
    "python_loop": 2.0e-7,
    "numpy_stream": 2.0e-9,
    "numpy_stream2": 4.0e-9,
    "compare": 1.0e-9,
    "flop": 1.0e-9,
}


class CostModel(Record, frozen=True):
    """Immutable bundle of communication and computation cost parameters."""

    __slots__ = ("latency", "byte_time", "send_overhead", "recv_overhead", "rates")

    def __init__(
        self,
        latency: float = 5.0e-6,
        byte_time: float = 1.0 / 500.0e6,  # 500 MB/s
        send_overhead: float = 1.0e-6,
        recv_overhead: float = 1.0e-6,
        rates: dict[str, float] | None = None,
    ):
        for name, value in (
            ("latency", latency),
            ("byte_time", byte_time),
            ("send_overhead", send_overhead),
            ("recv_overhead", recv_overhead),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        Record.__init__(
            self, latency, byte_time, send_overhead, recv_overhead,
            dict(DEFAULT_RATES) if rates is None else rates,
        )

    # -- communication ---------------------------------------------------

    def wire_time(self, nbytes: int) -> float:
        """Time from send-injection to receive-availability for nbytes."""
        return self.latency + nbytes * self.byte_time

    # -- computation -----------------------------------------------------

    def compute_time(self, rate_name: str, n_elements: float) -> float:
        """Modeled seconds for processing ``n_elements`` at a named rate."""
        try:
            rate = self.rates[rate_name]
        except KeyError:
            raise KeyError(
                f"unknown compute rate {rate_name!r}; known rates: "
                f"{sorted(self.rates)}"
            ) from None
        return rate * n_elements

    def with_rates(self, **rates: float) -> "CostModel":
        """Return a copy with the given named rates added/overridden."""
        merged = dict(self.rates)
        merged.update(rates)
        return self.replace(rates=merged)

    def with_params(self, **params: float) -> "CostModel":
        """Return a copy with communication parameters overridden."""
        return self.replace(**params)


def cluster_2006() -> CostModel:
    """A cost model loosely matching the paper's IBM P655 interconnect:
    a few microseconds of latency, hundreds of MB/s of bandwidth."""
    return CostModel(
        latency=5.0e-6,
        byte_time=1.0 / 500.0e6,
        send_overhead=1.5e-6,
        recv_overhead=1.5e-6,
    )


def modern_node() -> CostModel:
    """A cost model resembling a modern multi-core node's shared memory
    (sub-microsecond latency, ~10 GB/s): useful for sensitivity checks."""
    return CostModel(
        latency=5.0e-7,
        byte_time=1.0 / 10.0e9,
        send_overhead=2.0e-7,
        recv_overhead=2.0e-7,
    )


# ``calibrate_rate`` times kernels on the host: only the rates script runs it.
__getattr__, __dir__, _ = _lazy.attach(__name__, {"calibrate": ("calibrate_rate",)})
