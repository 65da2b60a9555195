"""Tests for scale presets and the on-disk run cache."""

import os

import pytest

from repro.experiments.cache import (
    cache_enabled,
    load_result,
    run_key,
    store_result,
)
from repro.experiments.runner import RunResult
from repro.experiments.scale import SCALES, current_scale


def test_scales_are_ordered_by_size():
    assert (
        SCALES["tiny"].target_population
        < SCALES["small"].target_population
        < SCALES["medium"].target_population
        < SCALES["paper"].target_population
    )


def test_paper_scale_matches_the_paper():
    paper = SCALES["paper"]
    assert paper.target_population == 100_000
    assert paper.insertions == 1_000_000
    assert paper.page_size == 4096
    assert paper.buffer_pages == 50


def test_current_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "medium")
    assert current_scale().name == "medium"
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        current_scale()
    monkeypatch.delenv("REPRO_SCALE")
    assert current_scale().name == "tiny"


def test_run_key_stability_and_sensitivity():
    sig = {"name": "w", "seed": 1}
    k1 = run_key("adapter", sig, "tiny")
    k2 = run_key("adapter", dict(sig), "tiny")
    assert k1 == k2
    assert run_key("other", sig, "tiny") != k1
    assert run_key("adapter", {"name": "w", "seed": 2}, "tiny") != k1
    assert run_key("adapter", sig, "small") != k1


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    result = RunResult(
        adapter="a", workload="w", avg_search_io=3.5, page_count=17,
        params={"seed": 1},
    )
    key = run_key("a", {"name": "w"}, "tiny")
    assert load_result(key) is None
    store_result(key, result)
    loaded = load_result(key)
    assert loaded is not None
    assert loaded.avg_search_io == 3.5
    assert loaded.page_count == 17


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache_enabled()
    key = run_key("a", {"name": "w"}, "tiny")
    store_result(key, RunResult(adapter="a", workload="w"))
    assert load_result(key) is None


def test_cache_tolerates_corrupt_files(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    key = run_key("a", {"name": "w"}, "tiny")
    (tmp_path / f"{key}.json").write_text("{not json")
    assert load_result(key) is None


def test_run_key_follows_the_package_sources(tmp_path, monkeypatch):
    """A cached run is only ever served to the code that produced it."""
    from repro.experiments import cache

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_bytes(b"x = 1\n")
    (tmp_path / "pkg" / "b.py").write_bytes(b"y = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_bytes(b"not hashed\n")
    before = cache.digest_sources(tmp_path)
    assert cache.digest_sources(tmp_path) == before
    (tmp_path / "pkg" / "notes.txt").write_bytes(b"still not hashed\n")
    assert cache.digest_sources(tmp_path) == before
    (tmp_path / "pkg" / "b.py").write_bytes(b"y = 3\n")
    after = cache.digest_sources(tmp_path)
    assert after != before

    # The key folds the package digest in: stable while the sources
    # are, different as soon as one hashed byte differs.
    assert cache.source_digest() == cache.digest_sources(
        cache.Path(cache.__file__).resolve().parents[1]
    )
    key = run_key("a", {"name": "w"}, "tiny")
    assert run_key("a", {"name": "w"}, "tiny") == key
    monkeypatch.setattr(cache, "source_digest", lambda: after)
    assert run_key("a", {"name": "w"}, "tiny") != key


def test_cache_defaults_outside_the_work_tree(tmp_path, monkeypatch):
    from repro.experiments import cache

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache.cache_dir() == tmp_path / "xdg" / "repro"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cache.cache_dir() == cache.Path.home() / ".cache" / "repro"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
    assert cache.cache_dir() == tmp_path / "mine"
