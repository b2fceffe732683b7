"""README's deterministic numbers, each reproduced at the precision it is
printed with. Timings are not checked.

- The library tour is run as README prints it; each ``print`` line's
  trailing comment quotes the value the line prints.
- ``audit --variant total`` on the 100k-row ``simulate dag --px 6 --pw 4
  --seed 11`` data prints ``is`` 3.02828e-16 under its own roles and
  0.0167392 with ``--mode seo``; the commands run in-process.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from impartial.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def tour() -> str:
    return README.split("## Library quick tour\n\n```python\n", 1)[1].split("```", 1)[0]


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_tour_prints_the_quoted_values():
    quoted = [re.search(r"# (-?\d\.\d+e-\d+)", line).group(1)
              for line in tour().splitlines() if line.startswith("print(")]
    assert len(quoted) == 2
    printed = []
    exec(tour(), {"print": printed.append})
    for value, text in zip(printed, quoted):
        digits = len(text.split("e")[0].split(".")[1])
        assert format(value, f".{digits}e") == text


@pytest.fixture(scope="module")
def dag_100k(tmp_path_factory):
    data = tmp_path_factory.mktemp("readme") / "dag.csv"
    run_cli(["simulate", "dag", "--n", "100000", "--px", "6", "--pw", "4", "--seed", "11",
             "--out", str(data)])
    return ["--data", str(data), "--schema", str(data.with_suffix(".schema"))]


@pytest.mark.parametrize("flags, printed", [([], "3.02828e-16"), (["--mode", "seo"], "0.0167392")])
def test_audit_of_total_prints_the_quoted_is(dag_100k, flags, printed):
    assert f" {printed}" in README
    out = run_cli(["audit", "--variant", "total", *flags, *dag_100k])
    assert f"{'is':<22}{printed}" in out.splitlines()
