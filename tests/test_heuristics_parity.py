"""Differential tests: the shipped heuristics against their oracle.

``tests/heuristics_oracle.py`` keeps the Min-Min/Max-Min and Sufferage
round loops as they were before their per-round work was trimmed.  On
Hypothesis-drawn batches the shipped schedulers must return exactly
the same ``assignment`` and ``order``.  The batches are built to hit
the paths the trims touch: integer ``etc`` and ``ready`` with many
ties, zero ``etc`` entries, a single site, ready times before ``now``,
jobs with no eligible site and ``secure_only`` jobs, in all three risk
modes.

The eligibility tests pin ``SecurityDrivenScheduler.eligibility``
(tolerance computed once per scheduler) bit for bit to the public
``eligibility_matrix`` and to the oracle's ``pfail <= tol`` form,
including an ``f`` that a job-site pair attains exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.batch import Batch, ScheduleResult
from repro.grid.security import eligibility_matrix, failure_probability
from repro.heuristics.maxmin import MaxMinScheduler
from repro.heuristics.minmin import MinMinScheduler
from repro.heuristics.sufferage import SufferageScheduler
from tests.heuristics_oracle import (
    oracle_eligibility,
    oracle_greedy,
    oracle_sufferage,
)

MODES = ("secure", "f-risky", "risky")
SDS = (0.3, 0.5, 0.6, 0.7, 0.9, 1.0)
SLS = (0.4, 0.6, 0.8, 0.95)


@st.composite
def batches(draw, max_jobs=10, max_sites=5):
    """A small batch with tie-heavy integer times (zeros included)."""
    b = draw(st.integers(1, max_jobs))
    s = draw(st.integers(1, max_sites))
    ints = st.integers(0, 4)
    etc = np.array(draw(st.lists(ints, min_size=b * s, max_size=b * s)))
    etc = etc.reshape(b, s).astype(float)
    if draw(st.booleans()):
        etc = np.asfortranarray(etc)  # column-major, e.g. a transpose
    now = float(draw(st.integers(0, 3)))
    # ready times on both sides of `now`: the batch clips them
    ready = np.array(draw(st.lists(st.integers(0, 6), min_size=s, max_size=s)))
    sds = draw(st.lists(st.sampled_from(SDS), min_size=b, max_size=b))
    sls = draw(st.lists(st.sampled_from(SLS), min_size=s, max_size=s))
    secure_only = draw(st.lists(st.booleans(), min_size=b, max_size=b))
    return Batch(
        now=now,
        job_ids=np.arange(b),
        workloads=etc[:, 0].copy(),
        security_demands=np.array(sds, dtype=float),
        secure_only=np.array(secure_only, dtype=bool),
        etc=etc,
        ready=ready.astype(float),
        site_security=np.array(sls, dtype=float),
        speeds=np.ones(s),
    )


FS = st.sampled_from((0.0, 0.2, 0.5, 0.7, 1.0))
LAMS = st.sampled_from((0.5, 3.0, 10.0))


def _check_same(result: ScheduleResult, expected) -> None:
    assignment, order = expected
    assert result.assignment.tolist() == assignment.tolist()
    assert result.order.tolist() == order.tolist()


class TestAgainstOracle:
    @given(batch=batches(), mode=st.sampled_from(MODES), f=FS, lam=LAMS)
    @settings(max_examples=400, deadline=None)
    def test_minmin_and_maxmin(self, batch, mode, f, lam):
        for cls, pick in ((MinMinScheduler, "min"), (MaxMinScheduler, "max")):
            got = cls(mode, f=f, lam=lam).schedule(batch)
            _check_same(
                got, oracle_greedy(batch, pick=pick, mode=mode, f=f, lam=lam)
            )

    @given(batch=batches(), mode=st.sampled_from(MODES), f=FS, lam=LAMS)
    @settings(max_examples=400, deadline=None)
    def test_sufferage(self, batch, mode, f, lam):
        got = SufferageScheduler(mode, f=f, lam=lam).schedule(batch)
        _check_same(got, oracle_sufferage(batch, mode=mode, f=f, lam=lam))

    @given(batch=batches(max_sites=1), mode=st.sampled_from(MODES))
    @settings(max_examples=100, deadline=None)
    def test_single_site(self, batch, mode):
        params = dict(mode=mode, f=0.5, lam=3.0)
        _check_same(
            MinMinScheduler(mode).schedule(batch),
            oracle_greedy(batch, pick="min", **params),
        )
        _check_same(
            SufferageScheduler(mode).schedule(batch),
            oracle_sufferage(batch, **params),
        )

    def test_rows_without_eligible_site_are_deferred(self):
        # SD 1.0 exceeds every SL: secure mode and secure_only defer it
        batch = Batch(
            now=2.0,
            job_ids=np.arange(4),
            workloads=np.ones(4),
            security_demands=np.array([1.0, 0.5, 1.0, 0.3]),
            secure_only=np.array([False, False, True, True]),
            etc=np.array([[1.0, 0.0], [2.0, 2.0], [0.0, 1.0], [3.0, 3.0]]),
            ready=np.array([0.0, 5.0]),
            site_security=np.array([0.6, 0.95]),
            speeds=np.ones(2),
        )
        for mode in MODES:
            params = dict(mode=mode, f=0.5, lam=3.0)
            mm = MinMinScheduler(mode).schedule(batch)
            sf = SufferageScheduler(mode).schedule(batch)
            _check_same(mm, oracle_greedy(batch, pick="min", **params))
            _check_same(sf, oracle_sufferage(batch, **params))
            assert mm.assignment[2] == -1 and sf.assignment[2] == -1
        assert MinMinScheduler("secure").schedule(batch).assignment[0] == -1


class TestEligibilityParity:
    @given(batch=batches(), mode=st.sampled_from(MODES), f=FS, lam=LAMS)
    @settings(max_examples=300, deadline=None)
    def test_scheduler_matches_public_function(self, batch, mode, f, lam):
        got = MinMinScheduler(mode, f=f, lam=lam).eligibility(batch)
        kwargs = dict(mode=mode, f=f, lam=lam, secure_only=batch.secure_only)
        public = eligibility_matrix(
            batch.security_demands, batch.site_security, **kwargs
        )
        oracle = oracle_eligibility(
            batch.security_demands, batch.site_security, **kwargs
        )
        assert got.dtype == public.dtype == np.bool_
        np.testing.assert_array_equal(got, public)
        np.testing.assert_array_equal(got, oracle)

    @given(
        batch=batches(),
        pair=st.tuples(st.integers(0, 9), st.integers(0, 4)),
        lam=LAMS,
    )
    @settings(max_examples=300, deadline=None)
    def test_exactly_attained_f_is_eligible(self, batch, pair, lam):
        # f equal to one job-site pair's failure probability: the
        # boundary is inclusive, so that pair stays eligible
        j, s = pair[0] % batch.n_jobs, pair[1] % batch.n_sites
        f = float(
            failure_probability(
                batch.security_demands[j], batch.site_security[s], lam=lam
            )
        )
        sched = SufferageScheduler("f-risky", f=f, lam=lam)
        got = sched.eligibility(batch)
        oracle = oracle_eligibility(
            batch.security_demands,
            batch.site_security,
            mode="f-risky",
            f=f,
            lam=lam,
            secure_only=batch.secure_only,
        )
        np.testing.assert_array_equal(got, oracle)
        if not batch.secure_only[j]:
            assert got[j, s]
        # f one epsilon below it: pfail == f + 1e-12 exactly sits on
        # the comparison's own boundary, which is inclusive too
        edge = f - 1e-12
        if edge >= 0.0 and edge + 1e-12 == f and not batch.secure_only[j]:
            sched = SufferageScheduler("f-risky", f=edge, lam=lam)
            assert sched.eligibility(batch)[j, s]

    @pytest.mark.parametrize("attr", ["mode", "f", "lam"])
    def test_risk_parameters_are_read_only(self, attr):
        # the tolerance is computed once, in __init__, so the
        # parameters it depends on cannot change afterwards
        sched = MinMinScheduler("f-risky", f=0.3, lam=2.0)
        before = getattr(sched, attr)
        with pytest.raises(AttributeError):
            setattr(sched, attr, getattr(MinMinScheduler("risky"), attr))
        assert getattr(sched, attr) == before


class TestImmutableResult:
    def test_assignment_and_order_are_read_only(self):
        res = ScheduleResult(
            assignment=np.array([1, -1, 0]), order=np.array([2, 0])
        )
        with pytest.raises(ValueError, match="read-only"):
            res.assignment[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            res.order[0] = 1

    def test_caller_arrays_are_copied_not_frozen(self):
        assignment, order = np.array([0, 1]), np.array([1, 0])
        res = ScheduleResult(assignment=assignment, order=order)
        assignment[0] = -1  # the caller's array stays writable ...
        order[0] = 0
        assert res.assignment.tolist() == [0, 1]  # ... and is not shared
        assert res.order.tolist() == [1, 0]

    def test_unpickled_result_is_read_only(self):
        import pickle

        res = ScheduleResult.from_assignment([1, -1, 0])
        again = pickle.loads(pickle.dumps(res))
        assert again.assignment.tolist() == [1, -1, 0]
        assert again.order.tolist() == [0, 2]
        assert not again.assignment.flags.writeable
        assert not again.order.flags.writeable

    def test_heuristic_results_are_read_only(self, batch_factory):
        res = SufferageScheduler("risky").schedule(batch_factory([3.0, 1.0]))
        assert not res.assignment.flags.writeable
        assert not res.order.flags.writeable
