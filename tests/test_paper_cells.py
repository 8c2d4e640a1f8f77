"""Pins the paper's cells: their fingerprints, labels and order.

The cells are the benchmarks' Table II-V and Fig. 2/9 grids and the
CLI's default ``compare`` line-up for each of its workloads.  Each is a
content-addressed :class:`~repro.core.parallel.CellSpec`, so its
fingerprint covers the workload preset, the policy, the %local, the
ratio, the CXL device, the batch limit and the seed.
``data/paper_cells.json`` holds the values; any change to where the
cells are written must leave them as they are.
"""

import json
import pathlib

import pytest

from repro import cli, paper
from repro.core.parallel import ParallelExecutor

PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "paper_cells.json").read_text()
)
CLI_WORKLOADS = (
    "cdn", "social", "gap-bfs", "gap-cc", "gap-bc", "gap-pr", "xgboost", "zipf",
)


class _Captured(Exception):
    pass


def _rows(cells):
    return [[c.config.ratio_label, c.label, c.fingerprint()] for c in cells]


def paper_grids():
    """The cells of each benchmark's ``paper.run_grid`` call."""
    cachelib = paper.ratios("cachelib")
    grids = {}
    for name in ("cdn", "social"):
        workload = paper.workloads(1)[name]
        table = "table2" if name == "cdn" else "table3"
        grids[table] = _rows(paper.grid(workload, cachelib, seed=1))
        grids[f"fig2-{name}"] = _rows(paper.grid(workload, cachelib[:2], seed=1))
        grids[f"fig9-{name}"] = _rows(paper.grid(workload, cachelib, seed=1))
    for kernel in ("bc", "bfs", "cc"):
        grids[f"table4-{kernel}"] = _rows(
            paper.grid(
                paper.workloads(2)[f"gap-{kernel}"],
                paper.ratios("gap"),
                max_batches=None,
                seed=2,
            )
        )
    grids["table5"] = _rows(
        paper.grid(
            paper.workloads(3)["xgboost"],
            paper.ratios("xgboost"),
            max_batches=None,
            seed=3,
        )
    )
    return grids


def cli_compare_cells(workload, monkeypatch):
    """The cells ``repro.cli compare --workload W`` submits by default."""
    cells = []

    def capture(self, specs):
        cells.extend(specs)
        raise _Captured

    monkeypatch.setattr(ParallelExecutor, "run", capture)
    with pytest.raises(_Captured):
        cli.main(["compare", "--workload", workload])
    return _rows(cells)


def test_paper_grids_are_pinned():
    grids = paper_grids()
    assert set(grids) == set(PINS["grids"])
    for name, rows in grids.items():
        assert rows == PINS["grids"][name], name


@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_cli_compare_cells_are_pinned(workload, monkeypatch):
    assert cli_compare_cells(workload, monkeypatch) == PINS["compare"][workload]


def test_pins_cover_every_cli_workload():
    assert set(PINS["compare"]) == set(CLI_WORKLOADS)
    assert sorted(paper.workloads(0)) == sorted(CLI_WORKLOADS)
