"""Tests for repro.grid.batch."""

from dataclasses import fields

import numpy as np
import pytest

from repro.grid.batch import Batch, ScheduleResult
from tests.conftest import make_batch


class TestBatch:
    def test_shapes_validated(self, small_grid):
        batch = make_batch(small_grid, [1.0, 2.0])
        assert batch.n_jobs == 2 and batch.n_sites == 4

    def test_bad_job_vector_rejected(self, small_grid):
        batch = make_batch(small_grid, [1.0, 2.0])
        with pytest.raises(ValueError, match="workloads"):
            type(batch)(
                now=batch.now,
                job_ids=batch.job_ids,
                workloads=np.array([1.0]),  # wrong length
                security_demands=batch.security_demands,
                secure_only=batch.secure_only,
                etc=batch.etc,
                ready=batch.ready,
                site_security=batch.site_security,
                speeds=batch.speeds,
            )

    def test_bad_site_vector_rejected(self, small_grid):
        batch = make_batch(small_grid, [1.0])
        with pytest.raises(ValueError, match="ready"):
            type(batch)(
                now=batch.now,
                job_ids=batch.job_ids,
                workloads=batch.workloads,
                security_demands=batch.security_demands,
                secure_only=batch.secure_only,
                etc=batch.etc,
                ready=np.array([0.0]),  # wrong length
                site_security=batch.site_security,
                speeds=batch.speeds,
            )

    def test_plain_sequences_converted(self):
        batch = Batch(
            now=1.0,
            job_ids=[0, 1],
            workloads=[1.0, 2.0],
            security_demands=[0.5, 0.6],
            secure_only=[False, True],
            etc=[[1.0, 2.0], [3.0, 4.0]],
            ready=[0.0, 0.0],
            site_security=[0.5, 0.9],
            speeds=[1.0, 2.0],
        )
        assert all(
            isinstance(getattr(batch, f.name), np.ndarray)
            for f in fields(batch)
            if f.name != "now"
        )
        np.testing.assert_array_equal(batch.completion(), [[2, 3], [4, 5]])

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("workloads", [1.0], "workloads has shape"),
            ("ready", [0.0], "ready has shape"),
            ("etc", [1.0, 2.0], "etc must be 2-dimensional"),
        ],
    )
    def test_bad_plain_sequence_names_field(self, field, value, match):
        kwargs = dict(
            now=0.0,
            job_ids=[0, 1],
            workloads=[1.0, 2.0],
            security_demands=[0.5, 0.6],
            secure_only=[False, False],
            etc=[[1.0, 2.0], [3.0, 4.0]],
            ready=[0.0, 0.0],
            site_security=[0.5, 0.9],
            speeds=[1.0, 2.0],
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=match):
            Batch(**kwargs)

    def test_completion_uses_now(self, small_grid):
        batch = make_batch(
            small_grid, [8.0], now=10.0, ready=[0.0, 0.0, 0.0, 0.0]
        )
        comp = batch.completion()
        np.testing.assert_allclose(comp, [[18.0, 14.0, 12.0, 11.0]])


class TestScheduleResult:
    def test_from_assignment(self):
        res = ScheduleResult.from_assignment([2, -1, 0])
        np.testing.assert_array_equal(res.order, [0, 2])
        assert res.n_assigned == 2 and res.n_deferred == 1

    def test_order_must_match_assigned(self):
        with pytest.raises(ValueError, match="permutation"):
            ScheduleResult(
                assignment=np.array([0, -1]), order=np.array([0, 1])
            )

    def test_custom_order_ok(self):
        res = ScheduleResult(
            assignment=np.array([1, 0, 2]), order=np.array([2, 0, 1])
        )
        assert res.n_assigned == 3

    def test_all_deferred(self):
        res = ScheduleResult.from_assignment([-1, -1])
        assert res.n_assigned == 0 and res.order.size == 0

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            ScheduleResult(
                assignment=np.zeros((2, 2), dtype=int),
                order=np.array([0]),
            )
