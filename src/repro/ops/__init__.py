"""The operator library: every example operator from the paper plus the
library-grade generalizations (paper §3.1, §4.2; RSMPI's "library of
operators")."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "arithmetic": ("MaxOp", "MinOp", "ProdOp", "SumOp", "UfuncOp"),
    "collect": ("ConcatOp", "DistinctCountOp", "UnionOp"),
    "counts": ("CountsOp",),
    "extrema": ("ExtremaKLocOp", "ExtremaState", "MaxKLocOp", "MinKLocOp"),
    "fused": ("FusedOp",),
    "histogram": ("HistogramOp",),
    "location": ("MaxiOp", "MiniOp"),
    "logical": ("AllOp", "AnyOp", "BandOp", "BorOp", "BxorOp", "XorOp"),
    "mink": ("MaxKOp", "MinKOp", "TranslateMinKOp"),
    "recurrence": ("AffineOp", "LogSumExpOp", "linear_recurrence"),
    "segmented": ("SegmentedOp",),
    "sorted_op": ("DishonestCommutativeSortedOp", "SortedOp", "SortedState"),
    "stats": ("MeanVarOp", "MeanVarResult", "MeanVarState"),
    "topk": ("TopKOp",),
})
