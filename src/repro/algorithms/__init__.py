"""Algorithms built on scans — Blelloch's vector-model classics.

The paper closes by noting that generalized reduce/scan "make the full
power of the parallel prefix technique available"; its reference [3]
(Blelloch) builds whole algorithm libraries on exactly that power.
This package provides the canonical examples over the library's own
primitives:

* :func:`stream_compact` — keep flagged elements, rebalanced into block
  order (one aggregated exscan + one all-to-all);
* :func:`split_by_flag` — Blelloch's stable *split*: 0-flagged elements
  before 1-flagged, order preserved within each side;
* :func:`radix_sort` — repeated split by bit: a globally stable sort
  made of nothing but scans and routing.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "scan_based": (
        "radix_sort", "sample_sort", "split_by_flag", "stream_compact"
    ),
})
