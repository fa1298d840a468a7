"""Tests for ``repro serve --warm``: grid construction, idempotent
precompute, journal resume, and multi-warmer convergence."""

import pytest

from repro.errors import ReproError
from repro.serve.atlas import PolicyAtlas, atlas_key, key_digest
from repro.serve.warm import (
    WARM_GRIDS,
    grid_cells,
    warm_atlas,
)


def test_smoke_grid_is_small_and_deduplicated():
    cells = grid_cells("smoke")
    assert len(cells) == 4
    digests = {key_digest(atlas_key(c.config, c.model)) for c in cells}
    assert len(digests) == 4
    assert all(c.config.ad == 2 for c in cells)


def test_paper_grid_unions_the_tables():
    paper = {key_digest(atlas_key(c.config, c.model))
             for c in grid_cells("paper", fast=True)}
    tables = set()
    for grid in ("table2", "table3", "table4"):
        tables |= {key_digest(atlas_key(c.config, c.model))
                   for c in grid_cells(grid, fast=True)}
    assert paper == tables


def test_unknown_grid_raises_typed_error():
    with pytest.raises(ReproError, match="unknown warm grid"):
        grid_cells("table9000")


def test_warm_populates_then_skips(tmp_path):
    atlas = PolicyAtlas(tmp_path)
    report = warm_atlas(atlas, grid="smoke")
    assert (report.cells, report.solved, report.skipped) == (4, 4, 0)
    assert report.entries == 4 and len(atlas) == 4
    # Every warmed entry revalidates as a fully-formed atlas entry.
    fresh = PolicyAtlas(tmp_path)
    assert len(fresh.scan()) == 4

    again = warm_atlas(atlas, grid="smoke")
    assert (again.solved, again.skipped) == (0, 4)


def test_journal_resume_heals_wiped_atlas(tmp_path):
    import shutil

    first = PolicyAtlas(tmp_path)
    warm_atlas(first, grid="smoke")
    shutil.rmtree(first.entries_dir)  # atlas lost, journal survived

    fresh = PolicyAtlas(tmp_path)
    report = warm_atlas(fresh, grid="smoke")
    assert report.solved == 0  # nothing re-solved...
    assert report.restored == 4  # ...everything restored and re-put
    assert len(fresh.scan()) == 4


def test_overlapping_warms_converge(tmp_path):
    """Two warmers (fresh instances over one directory, as two
    processes would be) sharing cells end up with one consistent
    atlas and no duplicate solving of the overlap."""
    smoke = warm_atlas(PolicyAtlas(tmp_path), grid="smoke")
    report = warm_atlas(PolicyAtlas(tmp_path), grid="table2",
                        fast=True)
    overlap = {key_digest(atlas_key(c.config, c.model))
               for c in grid_cells("smoke")} & \
              {key_digest(atlas_key(c.config, c.model))
               for c in grid_cells("table2", fast=True)}
    assert len(overlap) > 0
    assert report.skipped == len(overlap)
    assert report.solved == report.cells - len(overlap)
    expected = smoke.cells + report.cells - len(overlap)
    assert len(PolicyAtlas(tmp_path).scan()) == expected


def test_warm_kind_payload_is_identity():
    """The dedicated "warm" task kind must hand the payload through
    verbatim -- no analysis reconstruction on the precompute path."""
    from repro.runtime.parallel import TASK_KINDS, decode_payload
    assert "warm" in TASK_KINDS
    payload = {"schema": 1, "utility": 0.25}
    assert decode_payload("warm", payload) is payload


def test_cli_grid_choices_pinned_to_warm_grids():
    """The CLI duplicates WARM_GRIDS to keep the parser import-light;
    this pin is what licenses the duplication."""
    from repro.cli import _WARM_GRIDS
    assert _WARM_GRIDS == WARM_GRIDS


def test_warmed_table4_grid_survives_restart_scan(tmp_path):
    """Table-4 cells are solved with Wait.  Their keys say so, so a
    restart's scan keeps every one instead of quarantining it."""
    report = warm_atlas(PolicyAtlas(tmp_path), grid="table4", fast=True)
    assert report.solved == report.cells > 0
    fresh = PolicyAtlas(tmp_path)
    assert len(fresh.scan()) == report.cells
    assert fresh.stats.quarantined == 0
