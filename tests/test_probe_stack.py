"""Probe runs stacked across trials against the trial-by-trial loop, bit for bit.

The reference runs each trial on its own, from the single-sample samplers
and a stack of one per kernel call, and assembles the ProbeResult the way
the probes did before they stacked their trials.  Every stacked run must
serialize to the same bytes, whatever the chunk size.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoflab import (
    Case1Spec,
    DensityMatrix,
    ProbeResult,
    case1_state,
    classical_spec,
    eigen_ensemble,
    pair_superadditivity_gap,
    probe_question1,
    probe_question2,
    product_decomposition_members,
    random_pure,
    superadditivity_probe,
    two_block_spec,
    werner_two_pair,
)
from eoflab import probes, statezoo
from eoflab.ensembles import (
    eigen_ensembles,
    ensemble_to_payload,
    hjw_ensemble,
    support_decomposition,
)
from eoflab.qmat import herm_eig
from eoflab.qstate import complex_to_pairs, state_to_payload
from eoflab.reports import GAP_TOL
from eoflab.statezoo import (
    Case2Spec,
    case2_ensemble,
    density_gaussian,
    random_density_dims,
    random_isometry,
)

# chunk budgets: one trial per chunk, a few trials per chunk, the default
BUDGETS = (1, 300, probes.STACK_BUDGET)


def _result(name, trials, seed, slack, caveat, extra, per, argmin, best):
    return ProbeResult(name=name, trials=trials, seed=seed, slack=float(slack),
                       min_gap=float(best), violation_found=best < -slack, argmin=argmin,
                       caveat=caveat, per_trial=tuple(per), extra=extra)


def loop_question(name, factor_a, factor_b, trials, members, seed, slack, dims, rank):
    """A question probe, one trial and one kernel call at a time."""
    key = "gap_" + name
    pinned = [case2_ensemble(f) if isinstance(f, Case2Spec) else f
              for f in (factor_a, factor_b)]
    extra = {"members": members, "dims": list(dims), "rank": rank,
             "fixed_factors": [f is not None for f in pinned]}
    if name == "question2":
        extra["implication_failures"] = 0
        extra["min_gap_question1"] = math.inf
    per, best, argmin = [], math.inf, {}
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        fa, fb = (f if f is not None else eigen_ensemble(random_density_dims(dims, rank, rng))
                  for f in pinned)
        n = len(fa) * len(fb)
        iso = random_isometry(max(members, n), n, rng)
        mem = product_decomposition_members(fa, fb, iso)
        gaps = [d[key] for d in mem]
        at = int(np.argmin(gaps))
        if name == "question2":
            for d in mem:
                extra["min_gap_question1"] = min(extra["min_gap_question1"], d["gap_question1"])
                if d["gap_question2"] >= -GAP_TOL and d["gap_question1"] < -GAP_TOL:
                    extra["implication_failures"] += 1
        per.append({"trial": t, "gap": gaps[at], "member": mem[at]["index"],
                    "members": len(mem)})
        if gaps[at] < best:
            best = gaps[at]
            argmin = {"relation": name, "trial": t, "gap": best, "member": mem[at]["index"],
                      "factor_a": ensemble_to_payload(fa), "factor_b": ensemble_to_payload(fb),
                      "isometry": {"shape": list(iso.shape),
                                   "data": complex_to_pairs(iso.reshape(-1))}}
    return _result(name, trials, seed, slack, probes.SEARCH_CAVEAT, extra, per, argmin, best)


def loop_superadditivity(source, trials, seed, slack, phi):
    """superadditivity_probe, one trial and one kernel call at a time."""
    extra = {"source": source, "exact_terms": True}
    if source == "werner":
        extra["phi"] = phi
        rho = werner_two_pair(phi)
        rank = support_decomposition(rho)[0].size
    per, best, argmin = [], math.inf, {}
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        if source == "random":
            found = [random_pure((2, 2, 2, 2), rng)]
        elif source == "case1":
            found = [case1_state(Case1Spec(rng.dirichlet(np.ones(4)).reshape(2, 2)))]
        else:
            m = int(rng.integers(rank, 2 * rank + 1))
            found = list(hjw_ensemble(rho, random_isometry(m, rank, rng)).states)
        gaps, details = zip(*pair_superadditivity_gap(found))
        extra["exact_terms"] = extra["exact_terms"] and all(d["exact_terms"] for d in details)
        at = int(np.argmin(gaps))
        per.append({"trial": t, "gap": gaps[at], "members": len(found)})
        if gaps[at] < best:
            best = gaps[at]
            argmin = {"relation": "superadditivity", "trial": t, "gap": best,
                      "source": source, "member": at,
                      "state": state_to_payload(found[at]), "detail": details[at]}
    return _result("superadditivity", trials, seed, slack, probes.UPPER_BOUND_CAVEAT, extra,
                   per, argmin, best)


def pinned(kind, seed):
    """A factor to pin: None (random per trial), an Ensemble, or a Case2Spec."""
    if kind == "ensemble":
        return eigen_ensemble(random_density_dims((2, 2), 1 + seed % 4, [seed, 3]))
    if kind == "spec":
        return two_block_spec(0.25 + 0.5 * (seed % 2))
    if kind == "classical":
        return classical_spec([0.2, 0.8])
    return None


@st.composite
def question_case(draw):
    dims = draw(st.sampled_from([(2, 2), (2, 3)]))
    rank = draw(st.integers(1, math.prod(dims)))
    kinds = st.sampled_from([None, None, "ensemble", "spec", "classical"])
    return {
        "name": draw(st.sampled_from(["question1", "question2"])),
        "factor_a": pinned(draw(kinds), draw(st.integers(0, 7))),
        "factor_b": pinned(draw(kinds), draw(st.integers(0, 7))),
        "trials": draw(st.integers(1, 12)),
        # below and above n = len(fa) * len(fb), which reaches 36
        "members": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "slack": 1e-6, "dims": dims, "rank": rank,
    }


class TestTrialStack:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=question_case(), budget=st.sampled_from(BUDGETS))
    def test_question_probe_matches_trial_loop(self, case, budget):
        probe = probe_question1 if case["name"] == "question1" else probe_question2
        kwargs = {k: v for k, v in case.items() if k != "name"}
        with mock.patch.object(probes, "STACK_BUDGET", budget):
            got = probe(**kwargs)
        assert got.to_json() == loop_question(**case).to_json()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(source=st.sampled_from(["random", "case1", "werner"]),
           trials=st.integers(1, 12), seed=st.integers(0, 2**31 - 1),
           phi=st.sampled_from([-1.0, -0.6, 0.0, 0.35, 1.0]),
           budget=st.sampled_from(BUDGETS))
    def test_superadditivity_probe_matches_trial_loop(self, source, trials, seed, phi, budget):
        # werner trials draw m in [rank, 2 rank] members, so a chunk holds
        # several shape groups
        with mock.patch.object(probes, "STACK_BUDGET", budget):
            got = superadditivity_probe(source, trials=trials, seed=seed, phi=phi)
        assert got.to_json() == loop_superadditivity(source, trials, seed, 1e-6, phi).to_json()

    @pytest.mark.parametrize("name", ["question1", "question2"])
    @pytest.mark.parametrize("pin", [None, "spec"])
    def test_factor_ranks_below_rank_form_shape_groups(self, name, pin):
        # a draw whose first entry has a positive real part loses its last
        # column, so its factor's support is one smaller: the trials of a
        # chunk fall into several shape groups
        def deficient(dims, rank, seed):
            g = density_gaussian(dims, rank, seed)
            if g[0, 0].real > 0:
                g[:, -1] = 0.0
            return g

        case = dict(name=name, factor_a=pinned(pin, 1), factor_b=None, trials=12,
                    members=5, seed=8, slack=1e-6, dims=(2, 3), rank=3)
        with mock.patch.object(statezoo, "density_gaussian", deficient), \
                mock.patch.object(probes, "density_gaussian", deficient):
            probe = probe_question1 if name == "question1" else probe_question2
            got = probe(**{k: v for k, v in case.items() if k != "name"})
            want = loop_question(**case)
        assert got.to_json() == want.to_json()
        assert len({e["members"] for e in got.per_trial}) > 1

    def test_eigen_ensembles_group_by_rank(self):
        mats = np.stack([random_density_dims((2, 3), r, [7, r]).mat for r in (3, 1, 6, 3)])
        for mat, (weights, flags) in zip(mats, eigen_ensembles(*herm_eig(mats))):
            alone = eigen_ensemble(DensityMatrix((2, 3), mat))
            assert weights.tobytes() == alone.weights.tobytes()
            assert flags.T.tobytes() == np.stack([s.vec for s in alone.states]).tobytes()

    def test_stacked_members_match_each_trial_alone(self):
        rng = np.random.default_rng(12)
        fa = eigen_ensemble(random_density_dims((2, 2), 2, rng))
        draws = [eigen_ensemble(random_density_dims((2, 3), 2, rng)) for _ in range(4)]
        isos = np.stack([random_isometry(6, 4, rng) for _ in range(4)])
        flags = np.stack([np.column_stack([s.vec for s in f.states]) for f in draws])
        weights = np.stack([f.weights for f in draws])
        stacked = product_decomposition_members(fa, ((2, 3), weights, flags), isos)
        assert stacked == [product_decomposition_members(fa, fb, u)
                           for fb, u in zip(draws, isos)]


def _bits(value):
    """value with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


# the question probes' shapes: the defaults, 2 (x) 3 factors of rank 3, and a
# pinned Ensemble factor beside a random one
QUESTION_SHAPES = {
    "defaults": {},
    "dims-2x3-rank-3": {"dims": (2, 3), "rank": 3},
    "pinned-ensemble": {"factor_a": pinned("ensemble", 5)},
}


class TestQuestionColumns:
    """The question probes read member columns; the rows give the same bits."""

    @pytest.mark.parametrize("shape", sorted(QUESTION_SHAPES))
    @pytest.mark.parametrize("seed", [3, 40])
    @pytest.mark.parametrize("name", ["question1", "question2"])
    def test_probe_matches_member_rows(self, name, seed, shape):
        probe = probe_question1 if name == "question1" else probe_question2
        kwargs = {"factor_a": None, "factor_b": None, "trials": 100, "members": 8,
                  "seed": seed, "slack": 1e-6, "dims": (2, 2), "rank": 2,
                  **QUESTION_SHAPES[shape]}
        got = probe(**kwargs)
        want = loop_question(name, **kwargs)      # product_decomposition_members rows
        assert _bits(list(got.per_trial)) == _bits(list(want.per_trial))
        assert _bits(got.argmin) == _bits(want.argmin)
        assert got.min_gap.hex() == want.min_gap.hex()
        for key in ("min_gap_question1", "implication_failures"):
            assert _bits(got.extra.get(key)) == _bits(want.extra.get(key))
        assert got.to_json() == want.to_json()

    def test_question1_never_runs_the_flagged_kernel(self):
        want = probe_question1(trials=20, seed=2)
        broken = mock.Mock(side_effect=AssertionError("question1 read the flagged terms"))
        with mock.patch.object(probes, "_flagged_columns", broken):
            got = probe_question1(trials=20, seed=2)
            with pytest.raises(AssertionError):
                probe_question2(trials=20, seed=2)
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("name", ["question1", "question2"])
    def test_members_is_a_floor(self, name):
        # rank-2 factors give 4 product members, more than the 2 asked for
        probe = probe_question1 if name == "question1" else probe_question2
        got = probe(members=2, trials=3, seed=1)
        assert got.extra["members"] == 2
        assert [e["members"] for e in got.per_trial] == [4, 4, 4]
        assert got.argmin["isometry"]["shape"] == [4, 4]
        got = probe(members=6, trials=3, seed=1)
        assert [e["members"] for e in got.per_trial] == [6, 6, 6]
