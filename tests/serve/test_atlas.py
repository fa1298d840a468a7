"""Tests for the crash-safe content-addressed policy atlas."""

import dataclasses
import json

import pytest

from repro.analysis.store import analysis_to_payload
from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.core.solve import analyze
from repro.errors import ArtifactCorruptError, AtlasQuarantineError
from repro.serve.atlas import PolicyAtlas, atlas_key, key_digest


@pytest.fixture(scope="module")
def payload():
    config = AttackConfig.from_ratio(0.10, (1, 1), setting=1)
    return analysis_to_payload(
        analyze(config, IncentiveModel.COMPLIANT_PROFIT))


def make_key(alpha=0.10):
    config = AttackConfig.from_ratio(alpha, (1, 1), setting=1)
    return atlas_key(config, IncentiveModel.COMPLIANT_PROFIT)


def put_cell(atlas, payload, alpha):
    """Store ``payload`` re-keyed to ``alpha`` so the body answers its
    own key (passes full validation on load)."""
    config = AttackConfig.from_ratio(alpha, (1, 1), setting=1)
    key = atlas_key(config, IncentiveModel.COMPLIANT_PROFIT)
    body = dict(payload)
    body["config"] = dataclasses.asdict(config)
    atlas.put(key, body)
    return key, body


def test_put_get_roundtrip(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key = make_key()
    assert atlas.get(key) is None
    atlas.put(key, payload)
    assert atlas.get(key) == payload
    assert key in atlas
    assert atlas.stats.hits == 1 and atlas.stats.misses == 1


def test_entries_are_content_addressed(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key = make_key()
    path = atlas.put(key, payload)
    assert path.name == f"{key_digest(key)}.json"
    # Same key written twice converges on the same file.
    assert atlas.put(key, payload) == path
    assert len(atlas) == 1


def test_bitrot_is_quarantined_not_served(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key = make_key()
    path = atlas.put(key, payload)
    data = path.read_bytes()
    path.write_bytes(data[:-20] + b"\xff" * 20)

    assert atlas.get(key) is None  # a miss, never garbage
    assert not path.exists()
    assert (atlas.quarantine_dir / path.name).exists()
    reason = (atlas.quarantine_dir / path.name) \
        .with_suffix(".reason").read_text()
    assert "UTF-8" in reason or "JSON" in reason
    # Resolve half of quarantine-and-resolve: backfill works again.
    atlas.put(key, payload)
    assert atlas.get(key) == payload


def test_checksum_mismatch_detected(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key = make_key()
    path = atlas.put(key, payload)
    entry = json.loads(path.read_text())
    entry["body"]["utility"] = 999.0  # tampered, checksum stale
    path.write_text(json.dumps(entry))
    with pytest.raises(ArtifactCorruptError, match="checksum mismatch"):
        atlas._load_entry(path)
    assert atlas.get(key) is None


def test_content_address_mismatch_detected(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    path = atlas.put(make_key(), payload)
    moved = path.with_name(f"{'0' * 64}.json")
    path.rename(moved)
    with pytest.raises(ArtifactCorruptError, match="content address"):
        atlas._load_entry(moved)


def test_schema_invalid_body_quarantined(tmp_path):
    atlas = PolicyAtlas(tmp_path)
    key = make_key()
    # Valid checksum, valid JSON -- but not an analysis payload.
    atlas.put(key, {"nonsense": True})
    assert atlas.get(key) is None
    assert atlas.stats.quarantined == 1


def test_body_must_answer_its_own_key(tmp_path, payload):
    """An answer stored under the wrong cell (body config differs from
    the key's) is corruption -- served, it would be silent stale data."""
    atlas = PolicyAtlas(tmp_path)
    wrong_key = make_key(0.20)  # payload solved alpha = 0.10
    path = atlas.put(wrong_key, payload)
    with pytest.raises(ArtifactCorruptError, match="does not match"):
        atlas._load_entry(path)
    assert atlas.get(wrong_key) is None


def test_scan_loads_zero_corrupt_entries(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    good_key = make_key(0.10)
    atlas.put(good_key, payload)
    bad = atlas.put(make_key(0.15), payload)
    bad.write_text("{ not json")
    (atlas.entries_dir / "stray.json").write_text('"just a string"')

    index = PolicyAtlas(tmp_path).scan()  # the restart path
    assert list(index.values()) == [good_key]
    assert not (atlas.entries_dir / "stray.json").exists()
    # After the scan every surviving entry revalidates cleanly.
    fresh = PolicyAtlas(tmp_path)
    for path in fresh.entries_dir.glob("*.json"):
        fresh._load_entry(path)


def test_nearest_matches_power_split_distance(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path, validate_bodies=False)
    near = make_key(0.12)
    far = make_key(0.30)
    atlas.put(near, dict(payload, utility=0.12))
    atlas.put(far, dict(payload, utility=0.30))

    key, _body, distance = atlas.nearest(make_key(0.10))
    assert key == near
    assert distance == pytest.approx(0.04, abs=1e-12)
    assert atlas.nearest(make_key(0.10), max_distance=0.01) is None


def test_nearest_requires_exact_discrete_match(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path, validate_bodies=False)
    config = AttackConfig.from_ratio(0.12, (1, 1), setting=1, ad=3)
    atlas.put(atlas_key(config, IncentiveModel.COMPLIANT_PROFIT),
              payload)
    # Requested key has the default lookahead -> no candidate.
    assert atlas.nearest(make_key(0.10)) is None
    # Different incentive model -> no candidate either.
    other = atlas_key(AttackConfig.from_ratio(0.12, (1, 1), setting=1,
                                              ad=3),
                      IncentiveModel.NON_PROFIT)
    assert atlas.nearest(other) is None


# -- the in-memory index and LRU cache ---------------------------------


def test_hot_get_serves_from_cache_zero_disk_reads(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key, body = put_cell(atlas, payload, 0.10)
    assert atlas.get(key) == body  # one validated disk load
    assert atlas.stats.disk_reads == 1
    for _ in range(50):
        assert atlas.get(key) == body
    assert atlas.stats.disk_reads == 1  # the hot path never hit disk
    assert atlas.stats.cache_hits == 50
    assert atlas.stats.cache_hit_rate() == pytest.approx(50 / 51)


def test_lru_cache_is_bounded_and_evicts_oldest(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path, cache_entries=2)
    keys = [put_cell(atlas, payload, a)[0]
            for a in (0.10, 0.15, 0.20)]
    for key in keys:
        atlas.get(key)
    assert len(atlas._cache) == 2
    assert atlas.stats.cache_evictions == 1
    # The oldest entry was evicted: reading it again goes to disk.
    before = atlas.stats.disk_reads
    assert atlas.get(keys[0]) is not None
    assert atlas.stats.disk_reads == before + 1
    # The most-recent entry is still hot.
    before = atlas.stats.disk_reads
    assert atlas.get(keys[2]) is not None
    assert atlas.stats.disk_reads == before


def test_get_after_scan_reads_nothing_from_disk(tmp_path, payload):
    """scan() validates every body once and admits it to the cache, so
    the first get after a restart does not read the entry again."""
    keys = [put_cell(PolicyAtlas(tmp_path), payload, a)[0]
            for a in (0.10, 0.15)]
    fresh = PolicyAtlas(tmp_path)
    fresh.scan()
    assert fresh.stats.disk_reads == 2
    for key in keys:
        assert fresh.get(key) is not None
    assert fresh.stats.disk_reads == 2
    assert fresh.stats.cache_hits == 2


def test_scan_admission_respects_the_cache_bound(tmp_path, payload):
    writer = PolicyAtlas(tmp_path)
    for alpha in (0.10, 0.15, 0.20):
        put_cell(writer, payload, alpha)
    fresh = PolicyAtlas(tmp_path, cache_entries=2)
    assert len(fresh.scan()) == 3
    assert len(fresh._cache) == 2
    disabled = PolicyAtlas(tmp_path, cache_entries=0)
    disabled.scan()
    assert not disabled._cache


def test_key_takes_include_wait_from_the_model():
    config = AttackConfig.from_ratio(0.10, (1, 1), setting=1)
    for model in IncentiveModel:
        keys = {key_digest(atlas_key(config.with_wait(flag), model))
                for flag in (False, True)}
        assert len(keys) == 1
        key = atlas_key(config, model)
        assert key["config"]["include_wait"] is model.uses_wait


def test_cache_disabled_still_indexes(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path, cache_entries=0)
    key, _body = put_cell(atlas, payload, 0.10)
    assert atlas.get(key) is not None
    assert atlas.get(key) is not None
    assert atlas.stats.disk_reads == 2  # every get revalidates
    assert not atlas._cache


def test_put_invalidates_cached_body_not_replaces(tmp_path, payload):
    """put() must not seed the cache with an unvalidated body: the
    next read revalidates what actually landed on disk."""
    atlas = PolicyAtlas(tmp_path)
    key, body = put_cell(atlas, payload, 0.10)
    atlas.get(key)  # cached now
    updated = dict(body, utility=0.999)
    atlas.put(key, updated)
    assert key_digest(key) not in atlas._cache
    before = atlas.stats.disk_reads
    assert atlas.get(key)["utility"] == pytest.approx(0.999)
    assert atlas.stats.disk_reads == before + 1


def test_quarantine_invalidates_cache_no_stale_body(tmp_path, payload):
    """After an entry is quarantined its cached body must never be
    served again -- the cache-coherence half of quarantine."""
    atlas = PolicyAtlas(tmp_path)
    key, _body = put_cell(atlas, payload, 0.10)
    atlas.get(key)  # hot
    path = atlas.path_for(key_digest(key))
    atlas.quarantine(path, "operator pulled it")
    assert atlas.get(key) is None  # not the stale cached body
    assert key not in atlas


def test_index_rebuild_after_restart_matches_disk_exactly(tmp_path,
                                                          payload):
    """A fresh instance (the kill-and-restart path) rebuilds the index
    to exactly the on-disk survivor set."""
    atlas = PolicyAtlas(tmp_path)
    survivors = {key_digest(put_cell(atlas, payload, a)[0])
                 for a in (0.10, 0.15, 0.20)}
    bad_key, _ = put_cell(atlas, payload, 0.25)
    bad = atlas.path_for(key_digest(bad_key))
    bad.write_bytes(bad.read_bytes()[:-16] + b"\xff" * 16)

    fresh = PolicyAtlas(tmp_path)
    index = fresh.scan()
    on_disk = {p.stem for p in fresh.entries_dir.glob("*.json")}
    assert set(index) == on_disk == survivors
    assert set(fresh._index) == survivors


def test_multiwriter_index_miss_falls_through_to_disk(tmp_path,
                                                      payload):
    """Two instances sharing one root: a write through one must be
    visible through the other even though its index never saw it."""
    writer = PolicyAtlas(tmp_path)
    reader = PolicyAtlas(tmp_path)
    reader.scan()  # complete-but-now-stale index
    key, body = put_cell(writer, payload, 0.10)
    assert reader.get(key) == body  # fell through to disk
    assert key in reader
    # And the reverse: a quarantine by one is discovered by the other.
    digest = key_digest(key)
    writer.quarantine(writer.path_for(digest), "testing")
    reader._cache.pop(digest, None)  # simulate a cold body
    assert reader.get(key) is None
    assert digest not in reader._index


def test_nearest_hot_query_zero_disk_reads(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    for a in (0.10, 0.15, 0.20, 0.25):
        put_cell(atlas, payload, a)
    probe = make_key(0.17)
    first = atlas.nearest(probe)
    assert first is not None
    before = atlas.stats.disk_reads
    for _ in range(20):
        assert atlas.nearest(probe) == first
    assert atlas.stats.disk_reads == before


def test_nearest_retries_past_vanished_winner(tmp_path, payload):
    """If the winning candidate vanishes between index and fetch, the
    search drops it and falls back to the next-best entry."""
    atlas = PolicyAtlas(tmp_path)
    near_key, _ = put_cell(atlas, payload, 0.15)
    far_key, _ = put_cell(atlas, payload, 0.30)
    atlas.scan()
    digest = key_digest(near_key)
    atlas.path_for(digest).unlink()  # another process quarantined it
    atlas._cache.pop(digest, None)
    key, body, _distance = atlas.nearest(make_key(0.10))
    assert key == far_key
    assert digest not in atlas._index


# -- the __contains__ and quarantine satellites ------------------------


def test_contains_rejects_corrupt_entry(tmp_path, payload):
    """Pinned regression: a merely-existing corrupt file must not
    count as membership -- ``in`` answers like ``get()`` would."""
    atlas = PolicyAtlas(tmp_path)
    key, _body = put_cell(atlas, payload, 0.10)
    path = atlas.path_for(key_digest(key))
    path.write_bytes(path.read_bytes()[:-16] + b"\xff" * 16)

    fresh = PolicyAtlas(tmp_path)  # no index entry to shortcut through
    assert key not in fresh
    assert fresh.get(key) is None
    assert not path.exists()  # quarantined by the membership check
    assert (fresh.quarantine_dir / path.name).exists()


def test_contains_index_hit_answers_without_disk(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key, _body = put_cell(atlas, payload, 0.10)
    before = atlas.stats.disk_reads
    assert key in atlas  # put() indexed it
    assert atlas.stats.disk_reads == before
    assert make_key(0.45) not in atlas


def test_quarantine_real_failure_raises_typed_error(tmp_path, payload,
                                                    monkeypatch):
    """Pinned regression: a quarantine that fails for a real reason
    (not a lost race) must raise, never silently leave the corrupt
    entry in place."""
    atlas = PolicyAtlas(tmp_path)
    key, _body = put_cell(atlas, payload, 0.10)
    path = atlas.path_for(key_digest(key))

    def deny(src, dst):
        raise PermissionError(13, "Permission denied", str(src))

    monkeypatch.setattr("repro.serve.atlas.os.replace", deny)
    with pytest.raises(AtlasQuarantineError, match="cannot quarantine"):
        atlas.quarantine(path, "checksum mismatch")
    assert atlas.stats.quarantined == 0
    assert atlas.stats.quarantine_races == 0


def test_quarantine_lost_race_is_counted_not_raised(tmp_path, payload):
    atlas = PolicyAtlas(tmp_path)
    key, _body = put_cell(atlas, payload, 0.10)
    path = atlas.path_for(key_digest(key))
    path.unlink()  # the other process already moved it
    atlas.quarantine(path, "checksum mismatch")
    assert atlas.stats.quarantine_races == 1
    assert atlas.stats.quarantined == 0
