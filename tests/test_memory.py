"""Memory of a command-line run, as a multiple of the data it reads.

``correct`` holds one numeric design (the data's columns plus the black
box's) and no per-row Python objects: its peak allocation, traced in-process
on a warm data sidecar, stays a small multiple of the parsed data's bytes.
``r_factor`` copies one block of rows at a time, so factoring a tall matrix
allocates a small fraction of the matrix's bytes.
"""

import tracemalloc

import numpy as np

from impartial.cli import main
from impartial.linalg import r_factor

N_ROWS = 20_000
# y, s0, x0..x5 and w0..w3, as float64 values
PARSED_BYTES = N_ROWS * 12 * 8
# Measured 2.3x (4.1x while r_factor copied the whole matrix); a run that
# keeps the parsed Dataset, a second design and per-row labels alongside the
# design measured 6.0x.
PEAK_BOUND = 5.0


def test_correct_peak_allocation_is_a_small_multiple_of_the_data(tmp_path):
    data, out = tmp_path / "data.csv", tmp_path / "out.csv"
    assert main(["simulate", "dag", "--n", str(N_ROWS), "--px", "6", "--pw", "4",
                 "--seed", "11", "--out", str(data)]) == 0
    schema = data.with_suffix(".schema")
    predictions = tmp_path / "predictions.csv"
    assert main(["fit", "--variant", "full", "--data", str(data), "--schema", str(schema),
                 "--out", str(predictions)]) == 0  # also writes the data sidecar
    argv = ["correct", "--predictions", str(predictions), "--data", str(data),
            "--schema", str(schema), "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / PARSED_BYTES < PEAK_BOUND, f"peak {peak / PARSED_BYTES:.2f}x the parsed data"


def test_r_factor_peak_allocation_is_a_fraction_of_the_matrix():
    # Measured 0.09x; factoring the whole matrix in one QR measured 2.0x.
    m = np.random.default_rng(7).standard_normal((100_000, 13))
    tracemalloc.start()
    try:
        r_factor(m[:, :12], m[:, 12])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4, f"peak {peak / m.nbytes:.2f}x the matrix"
