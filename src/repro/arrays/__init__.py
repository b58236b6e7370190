"""Global-view distributed arrays and their distributions."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "distribution": (
        "BlockCyclicDist", "BlockDist", "CyclicDist", "Distribution",
        "ExplicitDist"
    ),
    "global_array": ("GlobalArray",),
    "multidim": ("GlobalMatrix",),
})
