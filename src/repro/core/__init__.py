"""The paper's primary contribution: global-view user-defined
reductions and scans (Section 3)."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "chapel": ("ChapelOp", "ChapelOpAdapter"),
    "functional": ("from_binary", "make_op"),
    "fusion": ("PendingReduction", "ReductionBucket", "global_reduce_many"),
    "kernels": (
        "ElementwiseKernel", "FallbackKernel", "Kernel", "KernelCache",
        "SegmentedKernel", "batched_accumulate", "compile_kernel"
    ),
    "operator": ("ReduceScanOp", "state_equal"),
    "reduce": ("accumulate_local", "accumulate_local_many", "global_reduce"),
    "scan": ("global_scan", "global_xscan"),
    "validation": ("check_operator", "sequential_reduce", "sequential_scan"),
})
