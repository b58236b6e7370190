"""Shared utilities: the NAS ``randlc`` generator and transfer sizing."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "rng": (
        "RANDLC_A", "RANDLC_SEED", "Randlc", "randlc_array", "randlc_pow",
        "randlc_skip"
    ),
    "sizing": (
        "TransferSafe", "TransferSized", "copy_for_transfer", "payload_nbytes"
    ),
})
