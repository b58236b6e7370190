"""The recorded machine rates every virtual-clock reproduction reads.

Communication follows the paper's cluster era
(:func:`repro.runtime.cluster_2006`); the per-element compute rates of
the five kernels the figures charge for are measured on a real machine
(the honest part of the substitution documented in DESIGN.md §2/§5).
Measuring is one explicit step::

    PYTHONPATH=src python -m benchmarks.rates

which writes ``results/rates.json``: the five rates, a host fingerprint
and the command that wrote it.  The file is committed, so every table
under ``results/`` is a pure function of the code and this one file,
and re-calibrating is its own change: the file plus the regenerated
tables.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
from pathlib import Path

import numpy as np

from repro.runtime import CostModel, calibrate_rate, cluster_2006

RATES_FILE = Path(__file__).resolve().parent.parent / "results" / "rates.json"
COMMAND = "PYTHONPATH=src python -m benchmarks.rates"


def calibrate() -> dict[str, float]:
    """Time the real kernels behind the five rates the figures charge."""
    from repro.nas.intsort.kernels import sorted_check_scalar, sorted_check_tworef
    from repro.ops.extrema import ExtremaKLocOp

    rng = np.random.default_rng(7)
    sample_list = np.sort(rng.integers(0, 10_000, 20_000)).tolist()
    sample_arr = np.sort(rng.random(200_000))
    pairs = np.column_stack([rng.random(200_000), np.arange(200_000.0)])
    op = ExtremaKLocOp(10)
    return {
        "is_check_tworef": calibrate_rate(
            lambda n: sorted_check_tworef(sample_list[:n]), 20_000
        ),
        "is_check_scalar": calibrate_rate(
            lambda n: sorted_check_scalar(sample_list[:n]), 20_000
        ),
        "np_check": calibrate_rate(
            lambda n: bool(np.all(sample_arr[1:n] >= sample_arr[: n - 1])),
            200_000,
        ),
        "mg_accum": calibrate_rate(
            lambda n: op.accum_block(op.ident(), pairs[:n]), 200_000
        ),
        "mg_scan": calibrate_rate(
            lambda n: int(
                np.argmax(np.where(np.zeros(n, dtype=bool), -np.inf, sample_arr[:n]))
            ),
            200_000,
        ),
    }


def host() -> dict[str, object]:
    """Enough of the machine to tell two recordings apart."""
    return {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "date": datetime.date.today().isoformat(),
    }


def load_model() -> CostModel:
    """cluster_2006 communication plus the recorded compute rates."""
    return cluster_2006().with_rates(**json.loads(RATES_FILE.read_text())["rates"])


if __name__ == "__main__":
    record = {"rates": calibrate(), "host": host(), "command": COMMAND}
    RATES_FILE.write_text(json.dumps(record, indent=2) + "\n")
    print(RATES_FILE.read_text(), end="")
