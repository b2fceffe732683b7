"""Memory of a command-line run, as a multiple of the data it reads.

``correct`` holds one numeric design (the data's columns plus the black
box's) and no per-row Python objects: its peak allocation, traced in-process
on a warm data sidecar, stays a small multiple of the parsed data's bytes.
"""

import tracemalloc

from impartial.cli import main

N_ROWS = 20_000
# y, s0, x0..x5 and w0..w3, as float64 values
PARSED_BYTES = N_ROWS * 12 * 8
# Measured 4.1x; a run that keeps the parsed Dataset, a second design and
# per-row labels alongside the design measured 6.0x.
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
