"""Checkpoint save/restore tests."""
import json

import numpy as np
import pytest

from repro.core import PartitionedEngine, optimize_model
from repro.core.checkpoint import (
    engine_from_checkpoint,
    engine_to_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def optimized_engine(small_partitioned, small_tree):
    tree, lengths = small_tree
    engine = PartitionedEngine(
        small_partitioned, tree.copy(), branch_mode="per_partition",
        initial_lengths=lengths,
    )
    optimize_model(engine, "new", max_rounds=1)
    engine.parts[1].pinv = 0.12
    return engine


class TestRoundTrip:
    def test_likelihood_preserved(self, optimized_engine, small_partitioned):
        ref = optimized_engine.loglikelihood()
        state = engine_to_checkpoint(optimized_engine)
        rebuilt = engine_from_checkpoint(small_partitioned, state)
        assert rebuilt.loglikelihood() == pytest.approx(ref, abs=1e-8)

    def test_parameters_preserved(self, optimized_engine, small_partitioned):
        state = engine_to_checkpoint(optimized_engine)
        rebuilt = engine_from_checkpoint(small_partitioned, state)
        for a, b in zip(optimized_engine.parts, rebuilt.parts):
            assert b.alpha == pytest.approx(a.alpha)
            assert b.pinv == pytest.approx(a.pinv)
            np.testing.assert_allclose(b.model.rates, a.model.rates)
            np.testing.assert_allclose(
                b.branch_lengths, a.branch_lengths, atol=1e-10
            )

    def test_file_roundtrip(self, optimized_engine, small_partitioned, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(optimized_engine, path)
        rebuilt = load_checkpoint(small_partitioned, path)
        assert rebuilt.loglikelihood() == pytest.approx(
            optimized_engine.loglikelihood(), abs=1e-8
        )
        # the file really is JSON
        json.loads(path.read_text())

    def test_proportional_mode_roundtrip(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        engine = PartitionedEngine(
            small_partitioned, tree.copy(), branch_mode="proportional",
            initial_lengths=lengths,
        )
        engine.set_scaler(2, 1.7)
        ref = engine.loglikelihood()
        rebuilt = engine_from_checkpoint(
            small_partitioned, engine_to_checkpoint(engine)
        )
        assert rebuilt.branch_mode == "proportional"
        np.testing.assert_allclose(rebuilt.scalers, engine.scalers)
        assert rebuilt.loglikelihood() == pytest.approx(ref, abs=1e-8)


class TestValidation:
    def test_version_checked(self, optimized_engine, small_partitioned):
        state = engine_to_checkpoint(optimized_engine)
        state["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            engine_from_checkpoint(small_partitioned, state)

    def test_partition_count_checked(self, optimized_engine, small_partitioned):
        state = engine_to_checkpoint(optimized_engine)
        state["partitions"] = state["partitions"][:1]
        with pytest.raises(ValueError, match="partitions"):
            engine_from_checkpoint(small_partitioned, state)

    def test_partition_names_checked(self, optimized_engine, small_partitioned):
        state = engine_to_checkpoint(optimized_engine)
        state["partitions"][0]["name"] = "not_a_gene"
        with pytest.raises(ValueError, match="name mismatch"):
            engine_from_checkpoint(small_partitioned, state)


class TestCategories:
    def test_category_count_roundtrips(self, small_partitioned, small_tree):
        tree, lengths = small_tree
        engine = PartitionedEngine(
            small_partitioned, tree.copy(), initial_lengths=lengths, categories=8,
        )
        engine.parts[0].alpha = 0.4
        rebuilt = engine_from_checkpoint(
            small_partitioned, engine_to_checkpoint(engine)
        )
        assert rebuilt.categories == 8
        assert rebuilt.loglikelihood() == pytest.approx(engine.loglikelihood(), abs=1e-8)

    def test_files_without_categories_load_as_four(self, optimized_engine, small_partitioned):
        state = engine_to_checkpoint(optimized_engine)
        state.pop("categories", None)
        rebuilt = engine_from_checkpoint(small_partitioned, state)
        assert rebuilt.categories == 4
        assert rebuilt.loglikelihood() == pytest.approx(
            optimized_engine.loglikelihood(), abs=1e-8
        )
