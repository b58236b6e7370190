"""NAS IS (Integer Sort): keygen, parallel bucket sort, and the three
verification variants of the paper's Figure 2."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "bucket_sort": ("SortResult", "bucket_sort", "local_key_block"),
    "driver": ("ISRun", "VERIFIERS", "run_is"),
    "kernels": (
        "count_unsorted_vectorized", "sorted_check_scalar",
        "sorted_check_tworef", "sorted_check_vectorized"
    ),
    "keygen": ("generate_keys", "generate_keys_block"),
    "verify": ("verify_mpi", "verify_rsmpi", "verify_rsmpi_commutative"),
})
