"""Property-based tests for the structural invariants of the model,
simulator, and planner (the contracts that hold for any valid input)."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

from abrplan import planner
from abrplan import (
    CapacityTrace,
    NoFeasibleSessionError,
    OracleBudgetError,
    QualityLevel,
    QualityPlan,
    VideoSpec,
    compute_cost,
    compute_quality,
    compute_utilization,
    default_trace_config,
    default_video_spec,
    evaluate,
    exist_violation,
    fit_ascending_levels,
    generate_synthetic,
    invest_threshold,
    make_threshold_schedule,
    transmit_video,
)
from abrplan.sim import _EPS, _playback_ramp, _trajectory_from_counts, deadline_check, extend_arrivals, session_length

FAST = settings(max_examples=200, deadline=None)


@st.composite
def traces(draw, max_slots=12):
    n = draw(st.integers(2, max_slots))
    caps = draw(
        st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n)
    )
    return CapacityTrace(slot_duration=draw(st.sampled_from([0.5, 1.0, 2.0])), capacities=tuple(caps))


@st.composite
def specs(draw, max_levels=3):
    n_levels = draw(st.integers(1, max_levels))
    base = draw(st.floats(1.0, 8.0))
    bitrates, b = [], base
    for _ in range(n_levels):
        bitrates.append(b)
        b *= draw(st.floats(1.2, 2.5))
    top = bitrates[-1]
    levels = tuple(QualityLevel(br, br / top) for br in bitrates)
    n_segments = draw(st.integers(1, 8))
    frames_per_segment = draw(st.integers(1, 4))
    return VideoSpec(
        n_segments=n_segments,
        frames_per_segment=frames_per_segment,
        frame_rate=float(draw(st.integers(1, 4))),
        levels=levels,
        prefetch_frames=draw(st.integers(1, n_segments * frames_per_segment)),
    )


@st.composite
def specs_with_plans(draw):
    spec = draw(specs())
    levels = [1] * spec.n_segments
    lvl = 1
    for i in range(spec.cache_segments, spec.n_segments):
        lvl = draw(st.integers(lvl, spec.n_levels))
        levels[i] = lvl
    return spec, QualityPlan(tuple(levels))


@st.composite
def specs_with_level_sequences(draw):
    """A spec and a per-segment level sequence that may break any plan rule:
    an ascending plan, then at most two random edits (a level set anywhere
    in 0..n_levels + 1, a segment added or removed)."""
    spec, plan = draw(specs_with_plans())
    levels = list(plan.segment_levels)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["set", "append", "drop"]))
        if edit == "set" and levels:
            levels[draw(st.integers(0, len(levels) - 1))] = draw(st.integers(0, spec.n_levels + 1))
        elif edit == "append":
            levels.append(draw(st.integers(1, spec.n_levels)))
        elif levels:
            levels.pop()
    return spec, levels


def per_segment_rule_broken(levels, spec):
    """The message of the first plan rule ``levels`` breaks, or None."""
    if len(levels) != spec.n_segments:
        return f"plan has {len(levels)} segments, video has {spec.n_segments}"
    if min(levels) < 1 or max(levels) > spec.n_levels:
        return "plan contains out-of-range level indices"
    cache = spec.cache_segments
    if any(v != 1 for v in levels[:cache]):
        return "prefetch-cache segments must stay at level 1"
    if any(a > b for a, b in zip(levels[cache:], levels[cache + 1 :])):
        return "levels must be non-decreasing after the cache segments"
    return None


def per_segment_runs(levels):
    """One run per segment, each preceded by an empty run at level 1: the
    least canonical runs that describe ``levels``."""
    runs = []
    for i, v in enumerate(levels):
        runs += [(i, 1), (i, v)]
    return runs


def validate_message(plan, spec):
    try:
        plan.validate(spec)
    except ValueError as exc:
        return str(exc)
    return None


@FAST
@given(traces(), st.floats(0.0, 60.0))
def test_threshold_form(trace, alpha):
    sched = make_threshold_schedule(trace, alpha)
    for r, c in zip(sched.as_array.tolist(), trace.capacities):
        assert r == 0.0 or r == c
        assert r == (c if c >= alpha else 0.0)


@FAST
@given(traces(), st.floats(0.0, 60.0), st.floats(0.0, 60.0))
def test_active_set_shrinkage(trace, a1, a2):
    lo, hi = sorted((a1, a2))
    active_lo = set(np.flatnonzero(make_threshold_schedule(trace, lo).as_array).tolist())
    active_hi = set(np.flatnonzero(make_threshold_schedule(trace, hi).as_array).tolist())
    assert active_hi <= active_lo


@FAST
@given(traces(), specs(), st.floats(0.0, 30.0))
def test_fitted_plans_ascend_after_cache(trace, spec, alpha):
    fit = fit_ascending_levels(trace, alpha, spec)
    levels = np.asarray(fit.plan.segment_levels)
    cache = spec.cache_segments
    assert np.all(levels[:cache] == 1)
    assert np.all(np.diff(levels[cache:]) >= 0)


@FAST
@given(traces(), specs_with_plans(), st.floats(0.0, 30.0))
def test_bit_conservation(trace, spec_plan, alpha):
    spec, plan = spec_plan
    sched = make_threshold_schedule(trace, alpha)
    tx = transmit_video(trace, sched, spec, plan)
    delivered = int(tx.frames_at_boundary[-1])
    frame_costs = [
        spec.frame_bits(plan.segment_levels[f // spec.frames_per_segment])
        for f in range(delivered)
    ]
    total_sent = float(tx.bits_used_per_slot.sum())
    if delivered >= spec.total_frames:
        assert total_sent == pytest.approx(sum(frame_costs), rel=1e-9, abs=1e-9)
    else:
        # delivered frames plus at most one partial frame in flight
        next_cost = (
            spec.frame_bits(plan.segment_levels[delivered // spec.frames_per_segment])
            if delivered < spec.total_frames
            else 0.0
        )
        assert sum(frame_costs) - 1e-9 <= total_sent <= sum(frame_costs) + next_cost + 1e-9


@FAST
@given(traces(), specs_with_plans(), st.floats(0.0, 30.0))
def test_u_dominates_l_and_monotone(trace, spec_plan, alpha):
    spec, plan = spec_plan
    tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan)
    u = tx.frames_at_boundary.astype(float)
    l = _trajectory_from_counts(u, spec, trace.slot_duration).watched
    assert np.all(np.diff(u) >= 0)
    assert np.all(np.diff(l) >= 0)
    assert np.all(u >= l - 1e-9)
    if deadline_check(tx.frames_at_boundary, spec, trace.slot_duration) is not None:
        assert l[-1] == spec.total_frames


@FAST
@given(traces(), specs_with_plans(), st.floats(0.0, 30.0))
def test_simulation_determinism(trace, spec_plan, alpha):
    spec, plan = spec_plan
    dt = trace.slot_duration
    a, b = (transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan) for _ in range(2))
    assert np.array_equal(a.bits_used_per_slot, b.bits_used_per_slot)
    watched_a, watched_b = (_trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, dt).watched for tx in (a, b))
    assert np.array_equal(watched_a, watched_b)
    assert (deadline_check(a.frames_at_boundary, spec, dt) is None) == (
        deadline_check(b.frames_at_boundary, spec, dt) is None
    )


@FAST
@given(specs_with_plans(), st.data())
def test_quality_permutation_invariance(spec_plan, data):
    spec, plan = spec_plan
    perm = data.draw(st.permutations(list(plan.segment_levels)))
    assert compute_quality(spec, QualityPlan(tuple(perm))) == compute_quality(spec, plan)


@FAST
@given(
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 20.0),
)
def test_cost_monotonicity(sigma, rho1, rho2, a):
    lo, hi = sorted((rho1, rho2))
    assert compute_cost(sigma, hi, a) <= compute_cost(sigma, lo, a)
    assert compute_cost(sigma + 0.1, lo, a) > compute_cost(sigma, lo, a)


@FAST
@given(traces(), st.floats(0.5, 20.0), st.integers(1, 8), st.integers(1, 8))
def test_invest_threshold_monotone_in_step(trace, quantum, i1, i2):
    lo, hi = sorted((i1, i2))
    assert invest_threshold(trace, lo, quantum) <= invest_threshold(trace, hi, quantum)


def _step_by_step_ladder(trace, quantum):
    """The invest ladder walked one quantum at a time."""
    total = float(np.sum(trace.as_array) * trace.slot_duration)
    out = [min(trace.capacities)]
    i = 2
    while (i - 1) * quantum < total:
        alpha = invest_threshold(trace, i, quantum)
        if alpha > out[-1]:
            out.append(alpha)
        i += 1
    return out if out[-1] == max(trace.capacities) else out + [max(trace.capacities)]


@FAST
@given(traces(), st.one_of(st.floats(0.05, 50.0), st.sampled_from([0.25, 0.5, 1.0, 2.0, 5.0])))
def test_invest_ladder_jumps_match_the_step_walk(trace, quantum):
    """Jumping from one cumulative volume to the next visits exactly the
    rungs that walking every quantum does."""
    assert planner.invest_threshold_candidates(trace, quantum) == _step_by_step_ladder(trace, quantum)


@FAST
@given(traces(), specs_with_plans())
def test_anticipation_safety(trace, spec_plan):
    spec, plan = spec_plan
    caps = sorted(set(trace.capacities))
    if len(caps) < 2:
        return
    hi, lo = caps[-1], caps[0]
    if not exist_violation(trace, hi, spec, plan):
        assert not exist_violation(trace, lo, spec, plan)


@FAST
@given(st.lists(st.integers(-1, 6), max_size=12))
def test_plan_runs_round_trip(levels):
    plan = QualityPlan(levels)
    starts = [start for start, _ in plan.runs]
    run_levels = [level for _, level in plan.runs]
    assert starts == sorted(set(starts)) and all(0 <= x < len(levels) for x in starts)
    assert all(a != b for a, b in zip(run_levels, run_levels[1:]))
    for runs in (plan.runs, per_segment_runs(levels)):
        rebuilt = QualityPlan.from_runs(runs, len(levels))
        assert rebuilt == plan and hash(rebuilt) == hash(plan)
        assert rebuilt.runs == plan.runs
        assert rebuilt.segment_levels == tuple(levels)


@FAST
@given(specs_with_level_sequences())
def test_validate_matches_per_segment_rules(spec_levels):
    spec, levels = spec_levels
    want = per_segment_rule_broken(levels, spec)
    assert validate_message(QualityPlan(levels), spec) == want
    assert validate_message(QualityPlan.from_runs(per_segment_runs(levels), len(levels)), spec) == want


@FAST
@given(traces(), specs_with_plans(), st.floats(0.0, 30.0))
def test_exist_violation_same_for_both_constructions(trace, spec_plan, alpha):
    spec, plan = spec_plan
    from_levels = QualityPlan(plan.segment_levels)
    from_runs = QualityPlan.from_runs(per_segment_runs(plan.segment_levels), spec.n_segments)
    assert exist_violation(trace, alpha, spec, from_levels) == exist_violation(trace, alpha, spec, from_runs)


@settings(max_examples=1000, deadline=None)
@given(traces(), specs_with_plans(), st.floats(0.0, 30.0))
def test_trajectory_agrees_with_the_stall_check(trace, spec_plan, alpha):
    """The simulated trajectory stalls or falls short exactly when the
    deadline check says the session is infeasible. A check that lets u
    lag ``due`` by one frame disagrees on about 1% of such instances, so
    this runs more examples than FAST."""
    spec, plan = spec_plan
    dt = trace.slot_duration
    tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan)
    traj = _trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, dt)
    from_trajectory = (
        tx.frames_at_boundary[-1] < spec.total_frames
        or traj.startup_checkpoint is None
        or len(traj.stall_events) > 0
        or traj.watched[-1] < spec.total_frames - 1e-9
    )
    violation = exist_violation(trace, alpha, spec, plan)
    assert type(violation) is bool
    assert violation == (deadline_check(tx.frames_at_boundary, spec, dt) is None) == from_trajectory


def list_based_fit(trace, alpha, spec):
    """The level fit over a per-segment list, as a plain binary search of
    simulated probes: returns (feasible, levels, the segment ``mid`` of
    every probe of the searches, in order)."""
    n = spec.n_segments
    levels = [1] * n
    mids = []

    def violates(candidate):
        return exist_violation(trace, alpha, spec, QualityPlan(candidate))

    if violates(levels):
        return False, levels, mids
    for s in range(2, spec.n_levels + 1):
        if s - 1 not in levels:
            break
        lo, hi, best = max(levels.index(s - 1), spec.cache_segments), n - 1, n
        while lo <= hi:
            mid = (lo + hi) // 2
            mids.append(mid)
            if violates(levels[:mid] + [s] * (n - mid)):
                lo = mid + 1
            else:
                best, hi = mid, mid - 1
        levels[best:] = [s] * (n - best)
    return not violates(levels), levels, mids


@FAST
@given(traces(), specs(max_levels=4), st.floats(0.0, 30.0))
def test_fit_matches_list_based_search(trace, spec, alpha):
    feasible, levels, mids = list_based_fit(trace, alpha, spec)
    answered = []  # the segment of every probe the fit answers by lookup
    suffix_lookup = planner._suffix_lookup

    def recording_lookup(*args):
        fits = suffix_lookup(*args)

        def recorded(u, first):
            answered.append(first // spec.frames_per_segment)
            return fits(u, first)

        return recorded

    with mock.patch.object(planner, "_suffix_lookup", recording_lookup):
        fit = planner.fit_ascending_levels(trace, alpha, spec)
    assert fit.feasible == feasible
    assert fit.plan.segment_levels == tuple(levels)
    assert answered == mids
    assert fit.lookups == len(mids)


@st.composite
def small_instances(draw):
    """(trace, alpha, spec, ascending plan). Capacities, bitrates and alpha
    are either arbitrary floats or multiples of 0.1, whose sums tie in exact
    arithmetic but round apart in floating point, which is what the
    lookup's _EPS slack is for."""
    grid = draw(st.booleans())
    n_slots = draw(st.integers(2, 12))
    if grid:
        caps = [0.1 * k for k in draw(st.lists(st.integers(0, 8), min_size=n_slots, max_size=n_slots))]
        bitrates = [0.1 * k for k in sorted(draw(st.sets(st.integers(1, 9), min_size=2, max_size=4)))]
        alpha = 0.1 * draw(st.integers(0, 8))
    else:
        caps = draw(st.lists(st.floats(0.0, 50.0), min_size=n_slots, max_size=n_slots))
        bitrates = [1.0]
        for _ in range(draw(st.integers(1, 3))):
            bitrates.append(bitrates[-1] * draw(st.floats(1.2, 2.5)))
        alpha = draw(st.floats(0.0, 30.0))
    trace = CapacityTrace(draw(st.sampled_from([0.5, 1.0, 2.0])), tuple(caps))
    n_segments, fps = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    spec = VideoSpec(
        n_segments=n_segments,
        frames_per_segment=fps,
        frame_rate=float(draw(st.integers(1, 4))),
        levels=tuple(QualityLevel(b, b / bitrates[-1]) for b in bitrates),
        prefetch_frames=draw(st.integers(1, n_segments * fps)),
    )
    levels, lvl = [1] * n_segments, 1
    for i in range(spec.cache_segments, n_segments):
        lvl = levels[i] = draw(st.integers(lvl, spec.n_levels))
    return trace, alpha, spec, QualityPlan(levels)


@st.composite
def lookup_instances(draw):
    """(trace, alpha, spec, feasible plan): a small instance with its drawn
    plan if that is feasible, else all level 1; an instance where that
    stalls too is discarded."""
    trace, alpha, spec, plan = draw(small_instances())
    if exist_violation(trace, alpha, spec, plan):
        plan = QualityPlan.uniform(spec, 1)
    assume(not exist_violation(trace, alpha, spec, plan))
    return trace, alpha, spec, plan


def lookup_mismatches(trace, alpha, spec, plan, suffix_lookup):
    """The (shape, level, segment) probes where a lookup built as the fit
    and the oracle build it disagrees with exist_violation on the probe's
    plan: the prefix of the feasible ``plan`` below the segment, then any
    level above the prefix's last from there on. The lookup reads the
    arrivals of ``plan`` itself, as the level fit does (shape "fit"), or of
    the prefix run on at its last level, as the oracle's search does (shape
    "dfs"; that plan is no heavier and switches no more, so it is feasible
    too)."""
    schedule, dt = make_threshold_schedule(trace, alpha), trace.slot_duration
    due = deadline_check(transmit_video(trace, schedule, spec, plan).frames_at_boundary, spec, dt)[1]
    levels, n = plan.segment_levels, spec.n_segments
    fits = {s: suffix_lookup(due, schedule.cumulative, spec.frame_bits(s) / dt) for s in range(2, spec.n_levels + 1)}
    out = []
    for mid in range(spec.cache_segments, n):
        prefix = levels[:mid]
        for shape, base in (("fit", plan), ("dfs", QualityPlan(prefix + prefix[-1:] * (n - mid)))):
            u = deadline_check(transmit_video(trace, schedule, spec, base).frames_at_boundary, spec, dt)[0]
            for s in range(prefix[-1] + 1, spec.n_levels + 1):
                probe = QualityPlan(prefix + (s,) * (n - mid))
                if fits[s](u, mid * spec.frames_per_segment) == exist_violation(trace, alpha, spec, probe):
                    out.append((shape, s, mid))
    return out


# positions on the 0.1 grid where a level-3 run from segment 4 ties its
# deadlines in exact arithmetic, and only the _EPS slack accepts it
_TIE = (
    CapacityTrace(2.0, tuple(0.1 * k for k in (0, 7, 4, 1, 6, 3, 4, 7, 5))),
    0.4,
    VideoSpec(8, 3, 2.0, tuple(QualityLevel(0.1 * k, k / 7) for k in (2, 6, 7)), 1),
    QualityPlan((1,) * 8),
)


@settings(max_examples=300, deadline=None)
@given(lookup_instances())
@example(_TIE)
def test_lookup_matches_simulated_probe(instance):
    assert lookup_mismatches(*instance, planner._suffix_lookup) == []


def _lookup_without_eps(due, curve, cost):
    """``planner._suffix_lookup`` without the _EPS * cost slack."""
    latest = np.minimum.accumulate((curve - due * cost)[::-1])[::-1]

    def fits(u, first):
        k = int(u.searchsorted(first))
        deadline = int(due.searchsorted(first, side="right"))
        return k < len(curve) - 1 and curve[k] <= latest[deadline] + first * cost

    return fits


def _lookup_one_slot_early(due, curve, cost):
    """``planner._suffix_lookup`` with the run starting in the slot where
    the frames before it complete, one slot early."""
    latest = np.minimum.accumulate((curve - due * cost)[::-1])[::-1]

    def fits(u, first):
        k = int(u.searchsorted(first)) - 1
        deadline = int(due.searchsorted(first, side="right"))
        return k < len(curve) - 1 and curve[k] <= latest[deadline] + first * cost + _EPS * cost

    return fits


@pytest.mark.parametrize("mutant", [_lookup_without_eps, _lookup_one_slot_early])
def test_lookup_property_catches_broken_lookups(mutant):
    find(
        lookup_instances(),
        lambda instance: bool(lookup_mismatches(*instance, mutant)),
        settings=settings(max_examples=3000, derandomize=True, database=None, phases=[Phase.generate]),
    )


@FAST
@given(traces(), specs(max_levels=4), st.floats(0.0, 30.0))
def test_fit_start_is_feasible_and_locally_earliest(trace, spec, alpha):
    """What the level fit's binary search guarantees. Feasibility is not
    monotone in a level's start segment, so the start it returns need not
    be the earliest. It is feasible, and the segment before it is
    infeasible or is the search's lower bound: the previous level's start,
    or the end of the cache. A level placed nowhere is infeasible from the
    last segment, unless the search had no segment to try."""
    fit = fit_ascending_levels(trace, alpha, spec)
    if not fit.feasible:
        return
    levels, n = fit.plan.segment_levels, spec.n_segments

    def stalls(s, start):  # the fit's probe: the plan below start, level s from it
        return exist_violation(trace, alpha, spec, QualityPlan(levels[:start] + (s,) * (n - start)))

    previous = 0
    for s in range(2, spec.n_levels + 1):
        start = next((i for i, v in enumerate(levels) if v >= s), n)
        assert start == n or not stalls(s, start)
        assert start == max(previous, spec.cache_segments) or stalls(s, start - 1)
        if start == n:
            break  # heavier levels are not searched
        previous = start


@FAST
@given(traces(), specs(max_levels=4), st.floats(0.0, 30.0))
def test_fit_verdict_is_the_check_on_its_plan(trace, spec, alpha):
    """The fit transmits only the all-level-1 plan and extends its arrivals
    after each placement; its verdict is still the stall check on a full
    transmit of the plan it returns."""
    fit = fit_ascending_levels(trace, alpha, spec)
    tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, fit.plan)
    assert fit.feasible == (deadline_check(tx.frames_at_boundary, spec, trace.slot_duration) is not None)


@st.composite
def switches(draw):
    """(trace, alpha, spec, plan, segment, level): a small instance and a
    switch of its ascending plan to a higher level from a segment after the
    cache, often the first of them. Capacities on the 0.1 grid are zero now
    and then, and the schedule is zero on every slot below alpha."""
    trace, alpha, spec, plan = draw(small_instances())
    cache, n, levels = spec.cache_segments, spec.n_segments, plan.segment_levels
    assume(cache < n)
    segment = draw(st.one_of(st.just(cache), st.integers(cache, n - 1)))
    assume(levels[segment - 1] < spec.n_levels)
    return trace, alpha, spec, plan, segment, draw(st.integers(levels[segment - 1] + 1, spec.n_levels))


def switched_arrivals(trace, alpha, spec, plan, segment, level):
    """The arrivals of ``plan`` switched to ``level`` from ``segment`` on:
    extended from the arrivals of ``plan``, and from a full transmit."""
    schedule = make_threshold_schedule(trace, alpha)
    n, first = spec.n_segments, segment * spec.frames_per_segment
    switched = QualityPlan(plan.segment_levels[:segment] + (level,) * (n - segment))
    u = transmit_video(trace, schedule, spec, plan).frames_at_boundary
    extended = extend_arrivals(trace, schedule, spec, u, first, level)
    return extended, transmit_video(trace, schedule, spec, switched).frames_at_boundary


@settings(max_examples=500, deadline=None)
@given(switches())
def test_extension_matches_transmit(instance):
    """The arrivals of a switched plan are those of the plan up to the slot
    where frame ``first - 1`` arrives, then one run step at the new level."""
    extended, transmitted = switched_arrivals(*instance)
    assert extended.dtype == transmitted.dtype
    assert np.array_equal(extended, transmitted)


_TWO_LEVELS = (QualityLevel(8.0, 0.5), QualityLevel(16.0, 1.0))
_FOUR_FRAMES = VideoSpec(4, 1, 1.0, _TWO_LEVELS, 1)  # one-frame cache segment


@pytest.mark.parametrize(
    "instance, case",
    [
        # the cache's greedy run continues at level 1 within slot 0, so the
        # switched plan's arrivals fall below the plan's there
        ((CapacityTrace(1.0, (16.0, 16.0, 16.0, 16.0, 16.0)), 0.0, _FOUR_FRAMES, QualityPlan((1,) * 4), 1, 2), "cache end"),
        ((CapacityTrace(1.0, (8.0, 0.0, 16.0, 0.0, 16.0, 16.0)), 0.0, _FOUR_FRAMES, QualityPlan((1,) * 4), 1, 2), "zero slots"),
        ((CapacityTrace(1.0, (8.0, 16.0, 4.0, 16.0, 16.0)), 10.0, _FOUR_FRAMES, QualityPlan((1,) * 4), 2, 2), "zero slots"),
        ((CapacityTrace(1.0, (8.0, 8.0, 8.0, 8.0)), 0.0, _FOUR_FRAMES, QualityPlan((1,) * 4), 1, 2), "window ends"),
        ((CapacityTrace(1.0, (8.0, 0.0, 0.0)), 0.0, _FOUR_FRAMES, QualityPlan((1,) * 4), 2, 2), "never sent"),
    ],
)
def test_extension_edge_cases(instance, case):
    trace, alpha, spec, plan, segment, level = instance
    extended, transmitted = switched_arrivals(*instance)
    assert np.array_equal(extended, transmitted)
    u = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, plan).frames_at_boundary
    k = int(u.searchsorted(segment * spec.frames_per_segment))  # slot the switched run starts in
    if case == "cache end":
        assert segment == spec.cache_segments and extended[k] < u[k]
    elif case == "zero slots":
        rates = make_threshold_schedule(trace, alpha).as_array
        assert rates[k] == 0.0 and extended[-1] == spec.total_frames
    elif case == "window ends":
        assert k < trace.n_slots and u[k] < extended[-1] < spec.total_frames
    else:
        assert k > trace.n_slots and np.array_equal(extended, u)


@settings(max_examples=300, deadline=None)
@given(lookup_instances())
def test_feasible_plans_share_the_start_up_and_deadlines(instance):
    """What one deadline lookup per probe, in the level fit and in the
    oracle, and the oracle's one session length rest on: at one threshold,
    a feasible ascending plan starts playback at the checkpoint of the
    all-level-1 plan, which is feasible too, and has the same due frames.
    The cache segments are pinned at level 1 and sent greedily."""
    trace, alpha, spec, plan = instance
    lowest = QualityPlan.uniform(spec, 1)
    schedule, dt = make_threshold_schedule(trace, alpha), trace.slot_duration
    tx, tx_lowest = (transmit_video(trace, schedule, spec, p) for p in (plan, lowest))
    due, due_lowest = (deadline_check(t.frames_at_boundary, spec, dt)[1] for t in (tx, tx_lowest))
    assert np.array_equal(due, due_lowest)
    startup = _trajectory_from_counts(tx.frames_at_boundary.astype(float), spec, dt).startup_checkpoint
    assert startup == _trajectory_from_counts(tx_lowest.frames_at_boundary.astype(float), spec, dt).startup_checkpoint


def ladder(trace, quantum_bits=None):
    if quantum_bits is None:
        return planner.optimal_threshold_candidates(trace)
    return planner.invest_threshold_candidates(trace, quantum_bits)


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.floats(0.5, 50.0))
def test_every_threshold_shares_the_lowest_thresholds_deadlines(instance, quantum_bits):
    """What the enumeration's one ``due`` and one session length rest on:
    at every threshold of a ladder, the all-level-1 plan and any ascending
    plan that deadline_check passes have the due frames and the start-up
    checkpoint of the all-level-1 plan at the ladder's lowest threshold;
    and where that plan stalls, every plan at every threshold does. The fit
    given those due frames returns what it does without them."""
    trace, _, spec, plan = instance
    lowest, dt = QualityPlan.uniform(spec, 1), trace.slot_duration
    for quantum in (None, quantum_bits):
        alphas = ladder(trace, quantum)
        u = transmit_video(trace, make_threshold_schedule(trace, alphas[0]), spec, lowest).frames_at_boundary
        base = deadline_check(u, spec, dt)
        for alpha in alphas:
            schedule = make_threshold_schedule(trace, alpha)
            for p in (lowest, plan):
                session = deadline_check(transmit_video(trace, schedule, spec, p).frames_at_boundary, spec, dt)
                if session is None:
                    continue
                assert base is not None
                assert np.array_equal(session[1], base[1])
                assert _playback_ramp(session[0], spec, dt)[0] == _playback_ramp(base[0], spec, dt)[0]
            if base is not None:
                assert fit_ascending_levels(trace, alpha, spec, due=base[1]) == fit_ascending_levels(trace, alpha, spec)


def per_threshold_enumeration(trace, spec, quantum_bits=None):
    """The enumeration with a stall check of its own at every threshold:
    the fit finds its due frames, the fitted plan's full transmit is
    checked, and σ is taken over that transmit's own start-up. Returns
    (the thresholds examined, then threshold, plan, σ and ρ of each
    candidate)."""
    out, examined, dt = [], 0, trace.slot_duration
    for alpha in ladder(trace, quantum_bits):
        examined += 1
        fit = fit_ascending_levels(trace, alpha, spec)
        tx = transmit_video(trace, make_threshold_schedule(trace, alpha), spec, fit.plan)
        session = deadline_check(tx.frames_at_boundary, spec, dt)
        assert fit.feasible == (session is not None)
        if session is None:
            break
        length = session_length(spec, _playback_ramp(session[0], spec, dt)[0] * dt, ())
        out.append((alpha, fit.plan, compute_utilization(trace, tx.bits_used_per_slot, length), compute_quality(spec, fit.plan)))
    return examined, out


def assert_enumeration_checks_each_threshold(trace, spec, quantum_bits=None):
    try:
        candidates, examined = planner.enumerate_candidates(trace, spec, quantum_bits)
    except NoFeasibleSessionError:
        assume(False)
    assert (examined, [(c.alpha, c.plan, c.sigma, c.rho) for c in candidates]) == per_threshold_enumeration(
        trace, spec, quantum_bits
    )


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.one_of(st.none(), st.floats(0.5, 50.0)))
def test_enumeration_matches_a_check_at_every_threshold(instance, quantum_bits):
    trace, _, spec, _ = instance
    assert_enumeration_checks_each_threshold(trace, spec, quantum_bits)


@pytest.mark.parametrize("quantum_bits", [None, 1e6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stock_enumeration_matches_a_check_at_every_threshold(seed, quantum_bits):
    assert_enumeration_checks_each_threshold(generate_synthetic(default_trace_config(seed)), default_video_spec(), quantum_bits)


@FAST
@given(
    st.integers(1, 60),
    st.integers(1, 50),
    st.one_of(st.floats(0.1, 100.0), st.sampled_from([0.25, 0.5, 1.0, 3.0, 30.0])),
    st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
    st.integers(0, 20),
)
def test_due_frames_match_the_frame_search(n_segments, frames_per_segment, frame_rate, dt, startup):
    """``deadline_check`` counts the due frames in closed form, as
    ceil(ramp - _EPS) clipped to the video: the count of frames g with
    g + _EPS below the playback ramp, whatever the rate and start-up."""
    spec = VideoSpec(n_segments, frames_per_segment, frame_rate, (QualityLevel(1.0, 1.0),), prefetch_frames=1)
    total = spec.total_frames
    n = startup + int(np.ceil(total / (frame_rate * dt))) + 2
    u = np.where(np.arange(n) < startup, 0.0, float(total))  # every frame arrives at the start-up checkpoint
    due = deadline_check(u, spec, dt)[1]
    assert due.dtype == np.int64
    assert np.array_equal(due, (np.arange(total) + _EPS).searchsorted(_playback_ramp(u, spec, dt)[1]))


def assert_scores_are_evaluations(trace, spec, quantum_bits=None):
    """Each enumerated candidate's σ and ρ are, to the last bit, the
    utilization and quality of ``evaluate`` on its threshold and plan,
    although the enumeration scores it from one transmit."""
    try:
        candidates, _ = planner.enumerate_candidates(trace, spec, quantum_bits)
    except NoFeasibleSessionError:
        assume(False)
    for c in candidates:
        outcome = evaluate(trace, c.alpha, spec, c.plan, a=0.0)
        assert (c.sigma, c.rho) == (outcome.utilization, outcome.quality)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_candidate_scores_are_evaluations(instance):
    trace, _, spec, _ = instance
    assert_scores_are_evaluations(trace, spec)


@pytest.mark.parametrize("quantum_bits", [None, 1e6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stock_candidate_scores_are_evaluations(seed, quantum_bits):
    assert_scores_are_evaluations(generate_synthetic(default_trace_config(seed)), default_video_spec(), quantum_bits)


@FAST
@given(traces(), specs())
def test_all_level_1_feasibility_is_monotone_in_alpha(trace, spec):
    """The enumeration's stop rule: once the all-level-1 plan stalls at a
    threshold, it stalls at every higher one, so no feasible candidate lies
    past the first threshold where it stalls."""
    lowest = QualityPlan.uniform(spec, 1)
    feasible = [not exist_violation(trace, alpha, spec, lowest) for alpha in planner.optimal_threshold_candidates(trace)]
    assert feasible == sorted(feasible, reverse=True)


def simulated_oracle(trace, alpha, spec, a, max_nodes):
    """The exhaustive search with a simulated session at every node: each
    node's plan is checked with ``exist_violation`` and each leaf that may
    win is scored with ``evaluate``. Returns (levels, nodes visited, and
    the float hex of σ, ρ and the cost at a), None, or the refusal."""
    n, L = spec.n_segments, spec.n_levels
    n_free = n - spec.cache_segments
    if (L + 1) ** n_free > max_nodes:
        return "refused"
    best, nodes = None, 0

    def consider(levels):
        nonlocal best
        rho = compute_quality(spec, QualityPlan(levels))
        if best is not None and rho < best[1]:
            return
        sigma = evaluate(trace, alpha, spec, QualityPlan(levels), a=0.0).utilization
        if best is None or (-rho, sigma, levels) < (-best[1], best[0], best[2]):
            best = sigma, rho, levels

    def dfs(prefix, min_level):
        nonlocal nodes
        for lvl in range(min_level, L + 1):
            nodes += 1
            filled = prefix + (lvl,) * (n - len(prefix))
            if exist_violation(trace, alpha, spec, QualityPlan(filled)):
                break
            if len(prefix) == n - 1:
                consider(filled)
            else:
                dfs(prefix + (lvl,), lvl)

    if n_free == 0:
        if not exist_violation(trace, alpha, spec, QualityPlan.uniform(spec, 1)):
            consider((1,) * n)
    else:
        dfs((1,) * spec.cache_segments, 1)
    if best is None:
        return None
    sigma, rho, levels = best
    return levels, nodes, sigma.hex(), rho.hex(), compute_cost(sigma, rho, a).hex()


@st.composite
def oracle_instances(draw):
    """(trace, alpha, spec, max_nodes): a small instance, its window often
    repeated and its start-up cache often cut to one segment so that more
    instances are feasible and more segments are searched, and a node
    budget that is the oracle's bound or, now and then, one below it."""
    trace, alpha, spec, _ = draw(small_instances())
    trace = CapacityTrace(trace.slot_duration, trace.capacities * draw(st.integers(1, 3)))
    if draw(st.booleans()):
        spec = dataclasses.replace(spec, prefetch_frames=min(spec.prefetch_frames, spec.frames_per_segment))
    max_nodes = (spec.n_levels + 1) ** (spec.n_segments - spec.cache_segments) - (draw(st.integers(0, 4)) == 3)
    return trace, alpha, spec, max_nodes


@settings(max_examples=300, deadline=None)
@given(oracle_instances(), st.sampled_from([0.0, 1.5]))
def test_oracle_matches_simulated_search(instance, a):
    """The oracle, which answers its nodes by deadline lookups, finds the
    plan, node count, σ, ρ and cost of a search that simulates every node,
    and returns None or refuses exactly when it does."""
    trace, alpha, spec, max_nodes = instance
    want = simulated_oracle(trace, alpha, spec, a, max_nodes)
    try:
        res = planner.exhaustive_best_plan(trace, alpha, spec, a, max_nodes)
    except OracleBudgetError:
        assert want == "refused"
        return
    got = None if res is None else (
        res.plan.segment_levels, res.nodes_visited, res.sigma.hex(), res.rho.hex(), res.outcome.cost.hex()
    )
    assert got == want
    if res is not None:
        assert (res.outcome.utilization, res.outcome.quality) == (res.sigma, res.rho)
        # ascending prefixes only: the search keeps within the up-front refusal's bound
        assert res.nodes_visited < (spec.n_levels + 1) ** (spec.n_segments - spec.cache_segments)
