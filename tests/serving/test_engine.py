"""Tests for the validating / micro-batching / caching scoring engine."""

import threading

import pytest

from repro.exceptions import ServingError
from repro.serving import LRUResultCache, ScoringEngine


@pytest.fixture()
def engine(serving_scorer):
    eng = ScoringEngine(
        serving_scorer, name="cp8", max_batch=16, max_wait_ms=25.0
    )
    yield eng
    eng.close()


class TestValidation:
    def test_missing_column_rejected(self, engine, segment_rows):
        row = dict(segment_rows[0])
        del row["skid_resistance_f60"]
        with pytest.raises(ServingError, match="skid_resistance_f60"):
            engine.validate_row(row)

    def test_non_dict_row_rejected(self, engine):
        with pytest.raises(ServingError, match="must be an object"):
            engine.validate_row([1, 2, 3])

    def test_label_where_number_expected(self, engine, segment_rows):
        row = dict(segment_rows[0], skid_resistance_f60="slippery")
        with pytest.raises(ServingError, match="expects a number"):
            engine.validate_row(row)

    def test_number_where_label_expected(self, engine, segment_rows):
        row = dict(segment_rows[0], terrain=3)
        with pytest.raises(ServingError, match="expects a label"):
            engine.validate_row(row)

    def test_missing_values_are_legal(self, engine, segment_rows):
        row = dict(segment_rows[0], terrain=None, rut_depth=None)
        assert 0.0 <= engine.score_one(row) <= 1.0

    def test_unseen_label_routes_like_fit_time(self, engine, segment_rows):
        # Unknown levels are allowed; they align to the unseen-label code.
        row = dict(segment_rows[0], region="atlantis")
        assert 0.0 <= engine.score_one(row) <= 1.0

    def test_error_reports_row_index(self, engine, segment_rows):
        rows = [segment_rows[0], {"half": "a row"}]
        with pytest.raises(ServingError, match="row 1 "):
            engine.score_many(rows)


class TestScoring:
    def test_direct_parity_with_scorer(
        self, engine, serving_scorer, small_dataset, segment_rows
    ):
        expected = serving_scorer.score(
            small_dataset.segment_table.head(len(segment_rows))
        )
        assert engine.score_rows(segment_rows) == [float(p) for p in expected]

    def test_batched_parity_with_scorer(
        self, engine, serving_scorer, small_dataset, segment_rows
    ):
        expected = serving_scorer.score(
            small_dataset.segment_table.head(len(segment_rows))
        )
        assert engine.score_many(segment_rows) == [float(p) for p in expected]

    def test_all_missing_numeric_column_stays_numeric(
        self, engine, segment_rows
    ):
        # A batch where one numeric column is entirely None must not be
        # re-inferred as categorical (the CSV reader would guess; the
        # engine builds from the schema).
        rows = [dict(r, rut_depth=None) for r in segment_rows[:4]]
        probabilities = engine.score_rows(rows)
        assert len(probabilities) == 4

    def test_scores_within_unit_interval(self, engine, segment_rows):
        assert all(0.0 <= p <= 1.0 for p in engine.score_rows(segment_rows))


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, serving_scorer, segment_rows):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=16, max_wait_ms=100.0
        )
        try:
            results: dict[int, float] = {}

            def call(i: int) -> None:
                results[i] = engine.score_one(segment_rows[i])

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(24)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 24
            assert engine.max_batch_observed > 1
            assert engine.n_batched_rows == 24
        finally:
            engine.close()

    def test_batch_cap_respected(self, serving_scorer, segment_rows):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=4, max_wait_ms=100.0
        )
        try:
            engine.score_many(segment_rows[:12])
            assert engine.max_batch_observed <= 4
        finally:
            engine.close()

    def test_closed_engine_rejects_submissions(self, serving_scorer, segment_rows):
        engine = ScoringEngine(serving_scorer, name="cp8")
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.score_one(segment_rows[0])

    def test_invalid_config_rejected(self, serving_scorer):
        with pytest.raises(ServingError, match="max_batch"):
            ScoringEngine(serving_scorer, max_batch=0)
        with pytest.raises(ServingError, match="max_wait_ms"):
            ScoringEngine(serving_scorer, max_wait_ms=-1)


class TestResultCache:
    def test_repeat_rows_hit_cache(self, engine, segment_rows):
        engine.score_rows(segment_rows[:5])
        assert engine.cache.misses == 5
        engine.score_rows(segment_rows[:5])
        assert engine.cache.hits == 5
        assert engine.n_scored == 10

    def test_duplicate_rows_in_one_batch_scored_once(
        self, engine, segment_rows
    ):
        row = segment_rows[0]
        probabilities = engine.score_rows([row, dict(row), dict(row)])
        assert len(set(probabilities)) == 1
        assert engine.cache.misses == 3  # three lookups, one key
        assert len(engine.cache) == 1

    def test_cached_results_equal_fresh(self, engine, segment_rows):
        first = engine.score_rows(segment_rows)
        again = engine.score_rows(segment_rows)
        assert first == again

    def test_int_and_float_rows_share_keys(self, engine, segment_rows):
        row = {
            k: (int(v) if isinstance(v, float) and v.is_integer() else v)
            for k, v in segment_rows[0].items()
        }
        assert engine.canonical_key(row) == engine.canonical_key(
            segment_rows[0]
        )

    def test_nan_valued_rows_hit_the_cache(self, engine, segment_rows):
        """NaN inputs canonicalise to a sentinel: as a raw key part a
        NaN can never hit (NaN != NaN), so missing-value rows used to
        re-score every time and pile up duplicate cache entries."""
        numeric = next(
            name
            for name, spec in engine.schema.items()
            if spec["kind"] == "numeric"
        )
        row = dict(segment_rows[0], **{numeric: float("nan")})
        assert engine.canonical_key(row) == engine.canonical_key(dict(row))
        engine.score_rows([row])
        engine.score_rows([dict(row)])
        assert engine.cache.hits == 1
        assert len(engine.cache) == 1

    def test_lru_eviction(self):
        cache = LRUResultCache(max_size=2)
        cache.put(("a",), 0.1)
        cache.put(("b",), 0.2)
        assert cache.get(("a",)) == 0.1  # refreshes "a"
        cache.put(("c",), 0.3)  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 0.1
        assert cache.get(("c",)) == 0.3
        assert len(cache) == 2

    def test_zero_capacity_disables_cache(self, serving_scorer, segment_rows):
        engine = ScoringEngine(serving_scorer, cache_size=0)
        try:
            engine.score_rows(segment_rows[:3])
            engine.score_rows(segment_rows[:3])
            assert engine.cache.hits == 0
            assert len(engine.cache) == 0
        finally:
            engine.close()


class TestIntegrity:
    def test_short_scorer_output_is_loud(self, engine, segment_rows):
        """A scoring pass that loses rows must raise, not silently
        drop slots and shift later probabilities onto wrong rows."""
        original = engine.scorer.score
        engine.scorer.score = lambda table: original(table)[:-1]
        try:
            with pytest.raises(ServingError, match="probabilities"):
                engine.score_rows(segment_rows[:4])
        finally:
            engine.scorer.score = original

    def test_score_rows_returns_one_result_per_row(
        self, engine, segment_rows
    ):
        results = engine.score_rows(segment_rows[:7])
        assert len(results) == 7
        assert all(isinstance(p, float) for p in results)


class TestStats:
    def test_stats_counters(self, engine, segment_rows):
        engine.score_many(segment_rows[:6])
        stats = engine.stats()
        assert stats["rows_scored"] == 6
        assert stats["batches"] >= 1
        assert stats["cache_misses"] == 6
        assert stats["max_batch_observed"] >= 1
