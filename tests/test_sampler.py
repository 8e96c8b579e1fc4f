import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from ganfault.circuit import (
    BitVector,
    Circuit,
    GateKind,
    GateSlot,
    Layer,
    identity_circuit,
    pair_layer,
    unary_layer,
)
from ganfault import exact, sampler
from ganfault.analysis import DEFAULT_EPSILON_GRID, run_sweep
from ganfault.faults import InputPerturbation, Missing, ReversedPolarity, Swap, inject_all
from ganfault.sampler import (
    ComparisonMode,
    DeviationSample,
    ExperimentConfig,
    deviation,
    max_acceptable_distance,
    relative_uncertainty,
    run_experiment,
    run_trial,
    trial_rng,
)


def test_relative_uncertainty_examples():
    x = BitVector.from_string("1010")
    assert relative_uncertainty(x, x) == 0.0
    assert relative_uncertainty(x, BitVector.from_string("1000")) == 0.25
    y = BitVector.from_string("10110100")
    assert relative_uncertainty(y, y.complement()) == 1.0
    with pytest.raises(ValueError, match="width"):
        relative_uncertainty(x, y)


def test_deviation_examples():
    ones = BitVector.from_string("1111")
    assert deviation(ones, ones) == (30, 30)
    assert deviation(BitVector.from_string("0000"), ones) == (0, 30)
    assert deviation(BitVector.from_string("1010"), BitVector.from_string("0011")) == (10, 24)
    with pytest.raises(ValueError, match="width"):
        deviation(ones, BitVector.from_string("11"))


def test_max_acceptable_distance():
    assert max_acceptable_distance(8, 0.0) == 0
    assert max_acceptable_distance(8, 1 / 8) == 1
    assert max_acceptable_distance(8, 0.1) == 0
    assert max_acceptable_distance(4, 0.25) == 1
    assert max_acceptable_distance(8, 1.0) == 8
    # 29/100 <= 0.29 in floating point, while floor(0.29 * 100) == 28.
    assert max_acceptable_distance(100, 0.29) == 29


def _config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        circuit=identity_circuit(4),
        epsilon=0.0,
        trials=10,
        seed=7,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_fault_free_compare_accepts_first_draw():
    cfg = _config(circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]), trials=200)
    for s in run_experiment(cfg):
        assert s.accepted and s.iterations == 1 and s.re == s.im
        assert s.label == "none"


def test_trial_count_contract():
    assert len(run_experiment(_config(trials=1))) == 1
    with pytest.raises(ValueError):
        run_experiment(_config(trials=0))
    with pytest.raises(ValueError):
        run_experiment(_config(epsilon=1.5))


def test_accepted_samples_satisfy_predicate():
    cfg = _config(
        circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
        faults=(Missing(1, 1), InputPerturbation(0.2)),
        epsilon=0.25,
        trials=400,
        max_iterations=50,
    )
    k = max_acceptable_distance(8, 0.25)
    for s in run_experiment(cfg):
        dist = ((s.re >> 1) ^ (s.im >> 1)).bit_count()
        if s.accepted:
            assert dist <= k
            assert dist / 8 <= s.epsilon
        else:
            assert s.iterations == 50


def test_target_search_geometric_mean_eps0():
    # Geometric oracle: success probability 2^-4 per draw, mean 16.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, trials=10_000, seed=11, epsilon=0.0
    )
    samples = run_experiment(cfg)
    assert all(s.accepted for s in samples)
    mean = sum(s.iterations for s in samples) / len(samples)
    assert abs(mean - 16.0) / 16.0 < 0.05


def test_target_search_cumulative_binomial_mean():
    # Hamming ball of radius 1 in 4 bits holds 5 of 16 points: mean 3.2.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, trials=10_000, seed=13, epsilon=0.25
    )
    samples = run_experiment(cfg)
    mean = sum(s.iterations for s in samples) / len(samples)
    assert abs(mean - 3.2) / 3.2 < 0.05


def test_rerun_reproduces_samples():
    cfg = _config(
        circuit=Circuit(8, [pair_layer(GateKind.AND, 8)]),
        faults=(Swap(1, 1, GateKind.OR), InputPerturbation(0.1)),
        epsilon=0.25,
        trials=300,
        seed=99,
        max_iterations=200,
    )
    assert run_experiment(cfg) == run_experiment(cfg)


def test_run_experiment_looks_up_trial_rng_at_call_time(monkeypatch):
    # Span tracing replaces these module globals; a local alias would bypass it.
    # A trial whose first candidate is accepted is settled from its seed
    # words and builds no generator, unless a candidate draws more than 32
    # flip uniforms (three flip faults at width 16); every other trial
    # builds one, once and in index order.
    search = _config(
        trials=40, seed=5, mode=ComparisonMode.TARGET_SEARCH, max_iterations=200
    )
    compare = _config(
        circuit=_circuit(16, _AND),
        faults=(Missing(2, 1), InputPerturbation(0.3)),
        epsilon=0.5,
        trials=40,
        seed=5,
    )
    above = replace(compare, faults=(InputPerturbation(0.3),) * 3)
    calls = []

    def tracking(seed, trial):
        calls.append(trial)
        return trial_rng(seed, trial)

    def unused(*args, **kwargs):
        raise AssertionError("run_experiment entered run_trial")

    for cfg in (search, compare, above):
        expected = run_experiment(cfg)
        first = [(s.iterations, s.accepted) == (1, True) for s in expected]
        assert any(first) and not all(first)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(sampler, "trial_rng", tracking)
            m.setattr(sampler, "run_trial", unused)
            assert run_experiment(cfg) == expected
        if cfg is above:
            assert calls == list(range(cfg.trials))
        else:
            assert calls == [t for t, hit in enumerate(first) if not hit]


_AND = (GateKind.AND,)
_XOR_OR = (GateKind.XOR, GateKind.OR)


def _circuit(width: int, pairs: tuple[GateKind, ...] = ()) -> Circuit:
    """NOT on every bit, after the gates ``pairs`` in turn on every pair.

    An odd width leaves a one-bit pair, which a BUFFER fills.  Without
    ``pairs`` the circuit is a bijection, whose only term is the constant;
    AND pairs add the AND term, and XOR/OR pairs every term of a pair.
    """
    layers = [unary_layer(GateKind.NOT, width)]
    if pairs and width > 1:
        slots = [GateSlot(pairs[k % len(pairs)], p)
                 for k, p in enumerate(range(1, width, 2))]
        slots += [GateSlot(GateKind.BUFFER, width)] * (width % 2)
        layers.insert(0, Layer(slots))
    return Circuit(width, layers)


def _bijective_faults(width: int) -> tuple[tuple, ...]:
    """Faults that leave :func:`_circuit` (NOT on every bit) a bijection.

    Its map is then ``x ^ C0`` with C0 not all ones: a BUFFER replaces the
    NOT on the first bit, or on the last, which at odd width is the
    one-bit pair.
    """
    return (Missing(1, 1),), (Swap(1, width, GateKind.BUFFER),)


def _walk_budgets(width: int) -> tuple[int, ...]:
    """Budgets that end inside, on the edge of and after several blocks of a lone walk.

    At radius 0, a target search on a bijection of 14 bits or more without
    flips walks its stream alone after the first chunk of 8 inputs, in
    blocks of ``_FIRST_GROUP_WORDS`` words: two inputs a word at w <= 32,
    after the half the first chunk left buffered, one at w > 32.  Narrower
    trials keep the group walk on the same budgets.
    """
    lanes = sampler._FIRST_GROUP_WORDS * (2 if width <= 32 else 1)
    edge = 8 + (width <= 32) + lanes
    return edge - lanes // 3, edge, edge + 2 * lanes + 77


def _first_hit_cases(width: int, **kwargs) -> list[ExperimentConfig]:
    """Runs in which, at epsilon 0.5, most trials accept their first candidate.

    Fault-compare with a missing NOT, with no, one and two flip faults, and
    a target search on AND pairs followed by XOR on every other pair, which
    leaves those pairs constant: targets more than half the width from every
    output are screened.  Budgets of one candidate and of one past the
    first chunk.  At width 16 the two flip faults draw ``_FIRST_FLIP_WORDS``
    uniforms per candidate, and the pass reads the second fault's by a jump
    past the first's block; wider runs with flips skip the pass.
    """
    lossy = Circuit(width, [_circuit(width, p).layers[0]
                            for p in (_AND, (GateKind.XOR, GateKind.AND))])
    cases = []
    for budget in (1, 9):
        for faults in ((Missing(2, 1),), (Missing(2, 1), InputPerturbation(0.3)),
                       (Missing(2, 1), InputPerturbation(0.05), InputPerturbation(0.3))):
            cases.append(_config(circuit=_circuit(width, _AND), faults=faults,
                                 max_iterations=budget, **kwargs))
        cases.append(_config(circuit=lossy, mode=ComparisonMode.TARGET_SEARCH,
                             max_iterations=budget, **kwargs))
    return cases


_BIT_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _draw_inputs(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    return rng.integers(0, 1 << width, size=n, dtype=np.uint64)


def _reference_trial(cfg, faulty, ideal, rng, screen=True) -> DeviationSample:
    """One trial drawn with numpy's ``integers`` and ``random`` in contract order.

    The independent oracle for the sampler, which reads the same draws out
    of raw generator words.  ``screen=False`` draws every candidate even for
    a target no output of ``faulty`` lies within epsilon of.
    """
    width, eps, budget = cfg.width, cfg.epsilon, cfg.max_iterations
    k_allow = max_acceptable_distance(width, eps)
    probs = [f.probability for f in cfg.faults if isinstance(f, InputPerturbation)]
    label = cfg.resolved_label()
    target = None
    if cfg.mode is ComparisonMode.TARGET_SEARCH:
        target = int(_draw_inputs(rng, 1, width)[0])
        distance, nearest = faulty.nearest(target)
        if screen and distance > k_allow:
            return DeviationSample(int(nearest) << 1, target << 1, budget, False, eps, label)
    used, size = 0, 8
    while used < budget:
        gs = _draw_inputs(rng, min(size, budget - used), width)
        flipped = gs
        for p in probs:
            below = rng.random((len(gs), width)) < p
            flipped = flipped ^ (below * _BIT_WEIGHTS[:width]).sum(axis=1, dtype=np.uint64)
        modulated = faulty.evaluate_batch(flipped)
        reference = ideal.evaluate_batch(gs) if target is None else np.uint64(target)
        hits = np.flatnonzero(np.bitwise_count(modulated ^ reference) <= k_allow)
        i = int(hits[0]) if hits.size else len(gs) - 1
        used += i + 1
        re = int(modulated[i])
        im = int(reference[i]) if target is None else target
        if hits.size:
            return DeviationSample(re << 1, im << 1, used, True, eps, label)
        size = min(size * 8, 8192)
    return DeviationSample(re << 1, im << 1, used, False, eps, label)


def _per_trial(cfg: ExperimentConfig, screen: bool = True) -> list[DeviationSample]:
    faulty = inject_all(cfg.circuit, cfg.faults)
    return [
        _reference_trial(cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t), screen)
        for t in range(cfg.trials)
    ]


@pytest.mark.parametrize("width", [*range(1, 17), 20, 31, 32, 33, 40, 63, 64])
def test_run_experiment_equals_the_per_trial_loop(width):
    # Both modes, 0-2 flip faults, budgets either side of the first chunk of
    # 8 and up to chunks of 8192, and lossy circuits, whose unreachable
    # targets are screened out at low epsilon, next to bijections, which
    # screen nothing.  A target search at width <= 32 leaves a 32-bit half
    # buffered after round one, so budgets from 9 on check its decoding.
    # Bijections run at epsilon 0, where an exact match is rare beyond a
    # few bits, so their trials walk every chunk their budget allows.
    # Inputs are evaluated left-aligned in 32- or 64-bit lanes, so every
    # width puts each term of the circuits at a different offset; the
    # XOR/OR cases come after the others, which keep their epsilon,
    # trials and seed.  Last come target searches on bijections whose
    # constant term is not all ones, without flips, which from width 14 on
    # walk their streams alone after the first chunk; their budgets end
    # inside the first block of that walk, on its edge and after several
    # blocks.
    modes, flip_counts = ComparisonMode, (0, 1, 2)
    budgets = (1, 3, 8, 9, 70, 600, 5000)
    cases = [
        *((pairs, (), mode, flips, budget) for mode, flips, budget, pairs
          in itertools.product(modes, flip_counts, budgets, ((), _AND))),
        *((_XOR_OR, (), mode, flips, budget)
          for mode, flips, budget in itertools.product(modes, flip_counts, budgets)),
        *(((), fault, ComparisonMode.TARGET_SEARCH, 0, budget)
          for fault, budget in itertools.product(_bijective_faults(width),
                                                 _walk_budgets(width))),
    ]
    screened, outcomes = 0, set()
    for i, (pairs, fault, mode, flips, budget) in enumerate(cases):
        cfg = _config(
            circuit=_circuit(width, pairs),
            faults=fault + (InputPerturbation(0.05), InputPerturbation(0.3))[:flips],
            mode=mode,
            epsilon=(0.0, 0.1, 0.25)[i % 3] if pairs else 0.0,
            trials=(1, 7, 12)[i % 3],
            seed=(width, 2**64 + width, 2**70 + 3)[i % 3],
            max_iterations=budget,
        )
        faulty = inject_all(cfg.circuit, cfg.faults)
        screened += (
            mode is ComparisonMode.TARGET_SEARCH
            and faulty.covering_radius > max_acceptable_distance(width, cfg.epsilon)
        )
        expected = _per_trial(cfg)
        assert run_experiment(cfg) == expected, (mode, cfg.faults, budget, pairs)
        alone = [run_trial(cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t))
                 for t in range(cfg.trials)]
        assert alone == expected, (mode, cfg.faults, budget, pairs)
        if fault:
            edge = _walk_budgets(width)[1]
            outcomes.update((s.accepted, s.iterations > edge) for s in expected)
    assert screened > 0 or width == 1
    if width in (15, 16):  # hits and censored trials on either side of the edge
        assert len(outcomes) == 4, outcomes
    if width in (16, 32, 33, 64):
        for cfg in _first_hit_cases(width, epsilon=0.5, trials=40, seed=2**64 + width):
            assert run_experiment(cfg) == _per_trial(cfg), (cfg.mode, cfg.faults)


@pytest.mark.parametrize("width", [*range(1, 17), 32, 33, 64])
def test_a_sweep_equals_one_experiment_per_level(width):
    # The sweep walks each trial's stream once for every accept radius.
    # Each level must still get the samples its own experiment draws: both
    # modes, 0-2 flip faults, budgets from one candidate to several chunks,
    # and lossy circuits, whose targets are screened at the radii below
    # their nearest output's distance, next to bijections.  The default
    # grid maps several levels to one radius at every width up to 19, and
    # the three-level grids check a radius that no other level shares.
    # Last come target searches on bijections without flips, whose trials
    # walk their streams alone once radius 0 is their only open one (widths
    # 14 and up); these levels are checked against the per-trial loop too.
    grids = (DEFAULT_EPSILON_GRID, (0.0, 0.1, 0.2), (0.05, 0.3, 0.75))
    cases = [
        *((pairs, (), mode, flips, budget) for mode, flips, budget, pairs
          in itertools.product(ComparisonMode, (0, 1, 2), (1, 9, 600, 5000),
                               ((), _AND, _XOR_OR))),
        *(((), fault, ComparisonMode.TARGET_SEARCH, 0, budget)
          for fault, budget in itertools.product(_bijective_faults(width),
                                                 _walk_budgets(width)[1:])),
    ]
    for i, (pairs, fault, mode, flips, budget) in enumerate(cases):
        cfg = _config(
            circuit=_circuit(width, pairs),
            faults=fault + (InputPerturbation(0.05), InputPerturbation(0.3))[:flips],
            mode=mode,
            trials=(3, 8, 5)[i % 3],
            seed=(width, 2**64 + width, 2**70 + 3)[i % 3],
            max_iterations=budget,
        )
        grid = grids[i % 3]
        sweep = run_sweep(cfg, grid)
        for eps, point in zip(grid, sweep.points):
            expected = run_experiment(replace(cfg, epsilon=eps))
            assert point.samples == expected, (mode, cfg.faults, budget, pairs, eps)
            if fault:
                assert expected == _per_trial(replace(cfg, epsilon=eps)), (fault, eps)
    if width in (16, 32, 33, 64):
        grid = (0.375, 0.5)
        for cfg in _first_hit_cases(width, trials=40, seed=2**64 + width):
            sweep = run_sweep(cfg, grid)
            for eps, point in zip(grid, sweep.points):
                expected = run_experiment(replace(cfg, epsilon=eps))
                assert expected == _per_trial(replace(cfg, epsilon=eps))
                assert point.samples == expected, (cfg.mode, cfg.faults, eps)


def test_run_levels_gives_each_level_its_own_experiment():
    # Unsorted levels, some repeated, over 1030 trials, which cross two seed
    # blocks.  In the first grid 0.0 and 0.05 share radius 0; in the second
    # the first candidate settles most trials at every radius at once.  Each
    # list is that level's own experiment and carries its epsilon alone.
    grids = ((0.5, 0.0, 0.125, 0.5, 0.05, 1.0), (0.5, 0.375, 1.0, 0.375))
    for mode, levels in itertools.product(ComparisonMode, grids):
        cfg = _config(
            circuit=_circuit(16, _AND),
            faults=(Missing(2, 1), InputPerturbation(0.05)),
            mode=mode,
            trials=1030,
            max_iterations=40,
        )
        got = sampler.run_levels(cfg, levels)
        assert len(got) == len(levels)
        for eps, samples in zip(levels, got):
            assert {s.epsilon for s in samples} == {eps}
            assert samples == run_experiment(replace(cfg, epsilon=eps)), (mode, eps)
        # Levels of one radius share its columns; each has its own epsilon.
        radii = [max_acceptable_distance(16, eps) for eps in levels]
        for (i, a), (j, b) in itertools.combinations(enumerate(got), 2):
            for name in ("out", "ref", "iterations", "accepted"):
                shared = np.shares_memory(getattr(a, name), getattr(b, name))
                assert shared == (radii[i] == radii[j]), (levels[i], levels[j], name)
            assert (a.epsilon, b.epsilon) == (levels[i], levels[j])
    assert sampler.run_levels(cfg, ()) == []


def test_samples_are_columns_whose_rows_are_deviation_samples():
    label = "missing:L1.S1,flip:0.5"
    rows = [
        DeviationSample(10, 24, 3, True, 0.25, label),
        DeviationSample(0, 30, 1000, False, 0.25, label),
        DeviationSample(2 * (2**64 - 1), 2**65 - 4, 7, True, 0.25, label),
    ]
    samples = sampler.Samples.from_rows(rows)
    assert samples.out.dtype == samples.ref.dtype == np.uint64
    assert (samples.epsilon, samples.label) == (0.25, label)
    assert samples.out.tolist() == [5, 0, 2**64 - 1]
    assert samples.re == [10, 0, 2**65 - 2] and samples.im == [24, 30, 2**65 - 4]
    assert len(samples) == 3 and list(samples) == rows and samples == rows
    assert samples[0] == rows[0] and samples[-1] == rows[-1]
    assert type(samples[np.int64(1)]) is DeviationSample
    assert [type(v) for v in samples[2]] == [int, int, int, bool, float, str]
    with pytest.raises(IndexError):
        samples[3]
    assert isinstance(samples[1:], sampler.Samples) and samples[1:] == rows[1:]
    assert samples[samples.accepted] == [rows[0], rows[2]]
    assert samples[np.array([2, 0])] == [rows[2], rows[0]]
    assert samples != rows[:2] and samples != "abc"
    assert sampler.Samples.from_rows([]) == []
    with pytest.raises(ValueError, match="even"):
        sampler.Samples.from_rows([DeviationSample(3, 2, 1, True, 0.0, "x")])


def test_samples_from_rows_takes_one_level_and_points_in_range():
    row = DeviationSample(10, 24, 3, True, 0.25, "x")
    for other in (row._replace(epsilon=0.5), row._replace(label="y")):
        with pytest.raises(ValueError, match="one level"):
            sampler.Samples.from_rows([row, other])
    # re and im are twice an output of at most 64 bits: 0..2**65 - 2.
    for v in (-2, 2**65, 2**66):
        for bad in (row._replace(re=v), row._replace(im=v)):
            with pytest.raises(ValueError, match="even"):
                sampler.Samples.from_rows([row, bad])
    top = sampler.Samples.from_rows([row._replace(re=2**65 - 2, im=0)])
    assert (top.re, top.im) == ([2**65 - 2], [0])
    # An int epsilon reads back as a float, as a level's does.
    level = sampler.Samples.from_rows([row._replace(epsilon=1)])
    assert [type(v) for v in level[0]] == [int, int, int, bool, float, str]


def test_passes_and_seed_blocks_do_not_change_samples(monkeypatch):
    cfg = _config(
        circuit=_circuit(8, _AND),
        faults=(InputPerturbation(0.1),),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.25,
        seed=2**64,
        max_iterations=40,
    )
    for trials in (1, 1023, 1024, 1025, 2049):
        cfg.trials = trials
        assert run_experiment(cfg) == _per_trial(cfg), trials
    # A pass is one seed block.  At four trials a block, 1..13 trials end
    # passes at every offset, and two missing AND gates keep many trials of
    # either mode open beyond the first chunk of 8.
    sampler._seed_words.cache_clear()
    monkeypatch.setattr(sampler, "_SEED_BLOCK", 4)
    try:
        for t in range(13):
            assert (
                trial_rng(cfg.seed, t).bit_generator.state
                == _seed_sequence_rng(cfg.seed, t).bit_generator.state
            ), t
        for mode, flips in itertools.product(ComparisonMode, (0, 1)):
            search = mode is ComparisonMode.TARGET_SEARCH
            small = _config(
                circuit=_circuit(8, _AND),
                faults=(Missing(1, 1), Missing(1, 3), InputPerturbation(0.1))[: 2 + flips],
                mode=mode,
                epsilon=0.125 if search else 0.0,
                seed=cfg.seed,
                max_iterations=40,
            )
            for trials in range(1, 14):
                small.trials = trials
                assert run_experiment(small) == _per_trial(small), (mode, flips, trials)
    finally:
        sampler._seed_words.cache_clear()


@pytest.mark.parametrize(
    "mode, width, flips",
    [
        (ComparisonMode.TARGET_SEARCH, 3, 0),
        (ComparisonMode.TARGET_SEARCH, 16, 0),
        (ComparisonMode.TARGET_SEARCH, 31, 1),
        (ComparisonMode.TARGET_SEARCH, 32, 2),
        (ComparisonMode.TARGET_SEARCH, 40, 1),
        (ComparisonMode.TARGET_SEARCH, 64, 1),
        (ComparisonMode.FAULT_COMPARE, 16, 1),
        (ComparisonMode.FAULT_COMPARE, 64, 0),
    ],
)
def test_continuation_starts_where_the_first_chunk_left_the_generator(
    monkeypatch, mode, width, flips
):
    # A target plus 8 candidates of width <= 32 draw 9 32-bit halves: the
    # tenth, the unused high half of the last word, is carried as the
    # trial's buffered half and is the first half chunk two reads.
    # A missing NOT keeps the faulty output off the ideal one at epsilon 0.
    probs = (0.2, 0.02)[:flips]
    cfg = _config(
        circuit=_circuit(width),
        faults=(Missing(1, 1), *(InputPerturbation(p) for p in probs)),
        mode=mode,
        trials=12,
        max_iterations=20,
    )
    # Without flips the target search's map is a bijection, so from width
    # 14 its open trials walk the rest of their streams alone
    # (``_walk_alone``) instead of drawing chunk two; the walk must start
    # from the same state and half.
    issued, chunks, second, walked = {}, {}, {}, set()

    def tracking(seed, trial):
        rng = trial_rng(seed, trial)
        issued[id(rng)] = trial, rng  # holding rng keeps its id unique
        return rng

    def enter(rng, half):
        t = issued[id(rng)][0]
        chunks[t] = chunks.get(t, 0) + 1
        if chunks[t] == 2:
            second[t] = rng.bit_generator.state["state"], half
        return t

    def capturing(rngs, calls, width, n, limits, half):
        for row, rng in enumerate(rngs):
            enter(rng, None if half is None else int(half[row]))
        return draw(rngs, calls, width, n, limits, half)

    def walking(rng, half, preimage, width, n):
        walked.add(enter(rng, half))
        return walk(rng, half, preimage, width, n)

    draw, walk = sampler._draw, sampler._walk_alone
    monkeypatch.setattr(sampler, "trial_rng", tracking)
    monkeypatch.setattr(sampler, "_draw", capturing)
    monkeypatch.setattr(sampler, "_walk_alone", walking)
    assert run_experiment(cfg) == _per_trial(cfg)
    assert second
    walks = mode is ComparisonMode.TARGET_SEARCH and not flips and width >= 14
    assert walked == (set(second) if walks else set())
    for t, (state, half) in second.items():
        rng = trial_rng(cfg.seed, t)
        if mode is ComparisonMode.TARGET_SEARCH:
            _draw_inputs(rng, 1, width)
        _draw_inputs(rng, 8, width)
        for _ in probs:
            rng.random((8, width))
        want = rng.bit_generator.state
        assert state == want["state"], t
        # A half that was drawn is dead; only a buffered one is ever read.
        buffered = mode is ComparisonMode.TARGET_SEARCH and width <= 32
        assert want["has_uint32"] == buffered, t
        assert half == (want["uinteger"] if buffered else None), t


def test_only_radius_0_target_searches_on_bijections_walk_alone(monkeypatch):
    # A trial walks alone only at radius 0, in a target search without
    # flips, on a bijection of 14 bits or more, where a hit takes at least
    # a block of the walk.  Each case below misses one condition, and the
    # andnot16 sweep of the benchmark all but the radius, so none may enter
    # the walk; the not16 sweep and a 64-bit search at epsilon 0 do.  The
    # 13-bit and 64-bit runs have the one level epsilon 0, so radius 0 is
    # every trial's only open radius from the start.
    def refused(*args):
        raise AssertionError("entered _walk_alone")

    not16 = _config(
        circuit=_circuit(16),
        faults=(Swap(1, 1, GateKind.BUFFER),),
        mode=ComparisonMode.TARGET_SEARCH,
        trials=20,
        max_iterations=20_000,
    )
    andnot16 = replace(
        not16,
        circuit=Circuit(16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)]),
        faults=(ReversedPolarity(1, 1),),
    )
    grid = DEFAULT_EPSILON_GRID
    cases = (
        (replace(not16, circuit=_circuit(16, _AND), faults=(Missing(2, 1),)), grid),  # lossy
        (replace(not16, faults=(*not16.faults, InputPerturbation(0.05))), grid),
        (replace(not16, mode=ComparisonMode.FAULT_COMPARE), grid),
        (replace(not16, circuit=_circuit(13), faults=(Missing(1, 1),)), (0.0,)),
        (andnot16, grid),
    )
    walking = (
        (not16, grid),
        (replace(not16, circuit=_circuit(64), faults=(Missing(1, 1),)), (0.0,)),
    )
    with monkeypatch.context() as m:
        m.setattr(sampler, "_walk_alone", refused)
        for cfg, levels in cases:
            sampler.run_levels(cfg, levels)
        for cfg, levels in walking:
            with pytest.raises(AssertionError, match="_walk_alone"):
                sampler.run_levels(cfg, levels)


_S, _C = ComparisonMode.TARGET_SEARCH, ComparisonMode.FAULT_COMPARE


# (width, mode, flip faults, lossy, radius) and the plan's (first is None,
# screen, alone), written out: a changed rule changes its rows here.  The
# lossy circuit is AND pairs then NOT, covering radius width // 2; the
# bijection is :func:`_bijective_faults`' first, covering radius 0.
@pytest.mark.parametrize("case, decisions", [
    ((13, _S, 0, False, 0), (False, False, False)),  # narrower than a lone block
    ((14, _S, 0, False, 0), (False, False, True)),
    ((14, _S, 0, False, 1), (False, False, False)),  # radius above 0
    ((14, _S, 1, False, 0), (False, False, False)),  # a flip fault
    ((14, _C, 0, False, 0), (False, False, False)),  # fault-compare
    ((14, _S, 0, True, 0), (False, True, False)),  # covering radius 7
    ((14, _S, 0, True, 7), (False, False, False)),  # every target within 7
    ((14, _C, 0, True, 0), (False, False, False)),
    ((13, _C, 2, True, 1), (False, False, False)),  # 26 flip uniforms
    ((14, _S, 2, True, 1), (False, True, False)),  # 28 flip uniforms
    ((32, _S, 1, False, 0), (False, False, False)),  # 32 flip uniforms
    ((32, _C, 2, True, 0), (True, False, False)),  # 64 flip uniforms
    ((32, _S, 0, False, 0), (False, False, True)),
    ((33, _S, 1, True, 0), (True, True, False)),  # 33 flip uniforms
    ((33, _S, 0, False, 0), (False, False, True)),
    ((33, _C, 1, False, 1), (True, False, False)),
    ((64, _S, 0, False, 0), (False, False, True)),
    ((64, _S, 0, True, 32), (False, False, False)),  # covering radius 32
    ((64, _C, 1, True, 1), (True, False, False)),
    ((64, _S, 2, False, 0), (True, False, False)),
])
def test_the_plan_decides_the_first_candidate_pass_the_screen_and_the_lone_walk(
    case, decisions
):
    width, mode, flips, lossy, radius = case
    circuit = _circuit(width, _AND if lossy else ())
    faults = (() if lossy else _bijective_faults(width)[0]) + (
        InputPerturbation(0.05), InputPerturbation(0.3))[:flips]
    faulty = inject_all(circuit, faults)
    for budget in (5, 1_000_000):
        cfg = _config(circuit=circuit, faults=faults, mode=mode, max_iterations=budget)
        plan = sampler._plan(cfg, faulty, circuit, [radius])
        assert (plan.first is None, plan.screen, plan.alone) == decisions, budget
        assert (plan.faulty, plan.ideal, plan.radii, plan.budget) == (
            faulty, circuit, [radius], budget)
        assert plan.search == (mode is _S) and len(plan.limits) == flips
        if plan.first is not None:
            n = min(sampler._CHUNK_FIRST, budget)
            assert plan.first == sampler._first_layout(width, n, flips, mode is _S)


def test_a_run_makes_its_plan_once_and_every_pass_reads_it(monkeypatch):
    # 2 * _SEED_BLOCK + 1 trials run three passes, and each pass's
    # first-candidate pass and chunk walk take the one plan of the run.
    andnot8 = Circuit(8, [pair_layer(GateKind.AND, 8), unary_layer(GateKind.NOT, 8)])
    cfg = _config(circuit=andnot8, faults=(ReversedPolarity(1, 1),),
                  trials=2 * sampler._SEED_BLOCK + 1, max_iterations=40)
    levels = (0.25, 0.5)
    for mode in ComparisonMode:
        cfg.mode = mode
        expected = sampler.run_levels(cfg, levels)
        plans, passes = [], []

        def spy(name):
            real = getattr(sampler, name)

            def wrapper(*args):
                if name == "_plan":
                    plans.append(real(*args))
                    return plans[-1]
                passes.append((name, args[0]))
                return real(*args)
            return wrapper

        with monkeypatch.context() as m:
            for name in ("_plan", "_first_hits", "_run_trials"):
                m.setattr(sampler, name, spy(name))
            assert sampler.run_levels(cfg, levels) == expected
        assert len(plans) == 1, mode
        assert [name for name, _ in passes] == ["_first_hits", "_run_trials"] * 3
        assert all(plan is plans[0] for _, plan in passes), mode


@pytest.mark.parametrize(
    "trials, budget", [(300, 100), (2, 20_000), (1100, 8), (3, 1_100_000)]
)
def test_a_pass_never_holds_a_huge_allocation(trials, budget):
    # 64 flip faults at width 64 draw 32 776 words per trial in round one.
    # No trial accepts, so at budget 20 000 the trials reach chunks of
    # 8192, whose flip uniforms take 4 MiB per fault and trial.  A group of
    # trials draws at most 2**15 words (256 KiB) in one call and drops them
    # before the next, so here a group is one trial and a chunk's uniforms
    # come in calls of 512 candidates of one fault.  A pass keeps only each
    # trial's generator, target and buffered half: the 1100 trials, all
    # left open by their first candidate, are one pass of 1100 generators,
    # about 750 B each, within a seed block of 8192.
    # The budget of over a million is an epsilon-0 target search on a
    # 31-bit bijection, whose trials walk their streams alone after the
    # first chunk: every block of that walk is dropped before the next.
    cfg = _config(
        circuit=identity_circuit(64),
        faults=(InputPerturbation(0.01),) * 64,
        trials=trials,
        max_iterations=budget,
    )
    if budget > 10**6:
        cfg = replace(cfg, circuit=_circuit(31), faults=(Missing(1, 1),),
                      mode=ComparisonMode.TARGET_SEARCH)
    tracemalloc.start()
    try:
        samples = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == trials
    assert peak < 4 * 2**20


def test_run_levels_retains_the_same_memory_at_any_number_of_levels():
    # 0:1:0.1 and 0:1:0.001 both map to the radii 0..8 at width 8, so both
    # runs settle the same columns: 9 rows of 2000 trials at 25 B each.  A
    # level adds only its Samples and four row views, well under 1 KiB; one
    # per-trial array per level would add at least 16 MB over the 990 more
    # levels of the fine grid.
    cfg = _config(circuit=identity_circuit(8), faults=(InputPerturbation(0.05),),
                  trials=2000)
    coarse = [round(0.1 * i, 1) for i in range(11)]
    fine = [round(0.001 * i, 3) for i in range(1001)]
    sampler.run_levels(cfg, coarse)  # fills the caches both runs read
    retained = []
    for grid in (coarse, fine):
        tracemalloc.start()
        try:
            levels = sampler.run_levels(cfg, grid)
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(levels) == len(grid)
        del levels
    assert retained[0] < 2 * 9 * 2000 * 25, retained
    assert retained[1] - retained[0] < (len(fine) - len(coarse)) * 1024, retained


def test_trial_substreams_are_trial_indexed():
    cfg = _config(trials=5, seed=21, mode=ComparisonMode.TARGET_SEARCH, epsilon=1.0)
    samples = run_experiment(cfg)
    # Recomputing any single trial from its substream reproduces the sample.
    faulty = ideal = cfg.circuit
    for t in (0, 3, 4):
        again = run_trial(cfg, faulty, ideal, trial_rng(cfg.seed, t))
        assert again == samples[t]


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 2**160 + 9]
_TRIALS = [0, 1, 1023, 1024, 4097, 2**32 - 1, 2**32, 2**40]


def _seed_sequence_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.integers(0, 2**63, 16), want.integers(0, 2**63, 16))
    assert np.array_equal(got.random(16), want.random(16))


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_rng_matches_seed_sequence(seed):
    # One-word, two-word and long seeds; trials at block edges, at 2**32
    # (two spawn-key words) and far beyond.
    for trial in _TRIALS:
        _assert_same_stream(trial_rng(seed, trial), _seed_sequence_rng(seed, trial))


def test_trial_rng_matches_seed_sequence_on_every_row_of_a_block():
    for trial in range(2048):
        assert (
            trial_rng(9, trial).bit_generator.state
            == _seed_sequence_rng(9, trial).bit_generator.state
        ), trial


def test_trial_rng_is_right_whatever_order_seeds_and_blocks_come_in():
    pairs = [(s, t) for s in _SEEDS for t in _TRIALS] * 2
    random.Random(5).shuffle(pairs)
    for seed, trial in pairs:
        assert (
            trial_rng(seed, trial).bit_generator.state
            == _seed_sequence_rng(seed, trial).bit_generator.state
        ), (seed, trial)


def test_trial_rng_generators_advance_independently():
    a, b = trial_rng(3, 7), trial_rng(3, 7)
    drawn = a.random(32)
    _assert_same_stream(b, _seed_sequence_rng(3, 7))
    assert np.array_equal(trial_rng(3, 7).random(32), drawn)


_STREAM_INDEX = (0, 1, 4, 19, 131, 4103)


@pytest.mark.parametrize("seed", _SEEDS)
def test_stream_words_equal_numpys(seed):
    # PCG64 seeded and stepped as arrays: the first words, a first chunk's
    # flip uniforms and words far beyond the first chunk.
    for trial in _TRIALS:
        block, row = divmod(trial, sampler._SEED_BLOCK)
        seeds = sampler._seed_words(seed, block)[row : row + 1]
        got = sampler._stream_words(seeds, _STREAM_INDEX)[0].tolist()
        want = [int(trial_rng(seed, trial).bit_generator.random_raw(k + 1)[k])
                for k in _STREAM_INDEX]
        assert got == want, (seed, trial)


def test_stream_words_far_out_equal_numpys_advance():
    # _jump composes the steps by squaring, so word 2**64 - 3 (the state
    # stepped 2**64 - 1 times) takes as long as word 0.
    index = (2**40 - 2, 2**40, 2**40 + 1, 2**40 + 7, 2**64 - 5, 2**64 - 4, 2**64 - 3)
    seeds = sampler._seed_words(11, 0)[[0, 5, 8191]]
    got = sampler._stream_words(seeds, index)
    for row, words in zip(seeds, got.tolist()):
        want = []
        for k in index:
            bits = np.random.PCG64(sampler._seed_words_type()(row))
            bits.advance(k)
            want.append(int(bits.random_raw()))
        assert words == want, index


def test_stream_words_equal_numpys_on_every_row_of_two_blocks():
    for block in (0, 1):
        got = sampler._stream_words(sampler._seed_words(9, block), (0, 19))
        for row in range(sampler._SEED_BLOCK):
            t = block * sampler._SEED_BLOCK + row
            want = trial_rng(9, t).bit_generator.random_raw(20)[[0, 19]]
            assert got[row].tolist() == want.tolist(), t


def test_stepped_first_candidate_words_equal_numpys_on_every_row_of_a_block():
    # A pass steps every stream of its seed block from one word to the
    # next.  Each index set a first-candidate pass reads: word 0 (w <= 32,
    # target search, and width 64 without a target), word 0 then 16
    # consecutive flip words (width 16, one flip fault), and the target's
    # and candidate 0's words (widths 40 and 64).
    layouts = {
        (16, 8, 0, True): (0,),
        (32, 8, 0, True): (0,),
        (16, 8, 1, False): (0, *range(4, 20)),
        (40, 8, 0, True): (0, 1),
        (64, 8, 0, True): (0, 1),
        (64, 8, 0, False): (0,),
    }
    for args, index in layouts.items():
        assert sampler._first_layout(*args) == index, args
    indices = set(layouts.values())
    seed, block = 2**64 + 5, 1
    seeds = sampler._seed_words(seed, block)
    assert len(seeds) == sampler._SEED_BLOCK == 8192
    want = np.stack([
        trial_rng(seed, block * sampler._SEED_BLOCK + row).bit_generator.random_raw(20)
        for row in range(sampler._SEED_BLOCK)
    ])
    for index in indices:
        assert np.array_equal(sampler._stream_words(seeds, index), want[:, index]), index


def test_a_run_across_a_pass_boundary_equals_its_trials():
    # 8193 trials end the first pass after trial 8191.  The missing NOT
    # puts every output one bit off, so at radius 1 about half the trials
    # accept their first candidate and the rest walk the chunk loop; the
    # first row and the rows on either side of the boundary hold both.
    cfg = _config(circuit=_circuit(16, _AND),
                  faults=(Missing(2, 1), InputPerturbation(0.1)),
                  epsilon=0.0625, trials=sampler._SEED_BLOCK + 1, seed=3, max_iterations=50)
    samples = run_experiment(cfg)
    faulty = inject_all(cfg.circuit, cfg.faults)
    rows = (0, *range(cfg.trials - 9, cfg.trials))
    first = {samples[t].iterations == 1 for t in rows}
    assert first == {True, False}
    for t in rows:
        want = run_trial(cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t))
        assert samples[t] == want, t
        assert want == _reference_trial(cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t))


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1)])
def test_trial_rng_rejects_negative_seed_or_trial(seed, trial):
    with pytest.raises(ValueError, match="non-negative"):
        trial_rng(seed, trial)


def test_budget_exhaustion_is_flagged_not_raised():
    # Identity circuit cannot reach a target whose distance exceeds epsilon
    # within a tiny budget for most targets.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, epsilon=0.0, trials=50, max_iterations=3
    )
    samples = run_experiment(cfg)
    censored = [s for s in samples if not s.accepted]
    assert censored, "expected some censored trials at budget 3"
    for s in censored:
        assert s.iterations == 3
        assert 0 <= s.re <= 30 and 0 <= s.im <= 30


def test_unreachable_targets_are_censored_without_drawing(monkeypatch):
    # AND pairs then NOT, one device reversed: most 8-bit targets have no
    # preimage, and flip noise keeps the inputs uniform.
    cfg = _config(
        circuit=Circuit(8, [pair_layer(GateKind.AND, 8), unary_layer(GateKind.NOT, 8)]),
        faults=(ReversedPolarity(1, 1), InputPerturbation(0.1)),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.0,
        trials=200,
        seed=41,
        max_iterations=64,
    )
    issued, drew = {}, set()

    def tracking(seed, trial):
        issued[trial] = trial_rng(seed, trial)  # held, so each id stays unique
        return issued[trial]

    def recording(rngs, *args):
        owner = {id(rng): t for t, rng in issued.items()}
        drew.update(owner[id(rng)] for rng in rngs)
        return draw(rngs, *args)

    draw = sampler._draw
    monkeypatch.setattr(sampler, "trial_rng", tracking)
    monkeypatch.setattr(sampler, "_draw", recording)
    faulty = inject_all(cfg.circuit, cfg.faults)
    samples = run_experiment(cfg)
    skipped = 0
    # The same trials without screening draw every candidate.
    for t, (s, unscreened) in enumerate(zip(samples, _per_trial(cfg, screen=False))):
        distance, nearest = faulty.nearest(s.im >> 1)
        if distance > 0:
            skipped += 1
            assert (s.iterations, s.accepted, s.re) == (64, False, nearest << 1)
            assert not unscreened.accepted and unscreened.iterations == 64
            # A screened trial reads its target's word and draws no chunk.
            want = trial_rng(cfg.seed, t).bit_generator
            want.advance(1)
            assert issued[t].bit_generator.state == want.state, t
            assert t not in drew, t
        else:
            assert s == unscreened
    assert 0 < skipped < len(samples)


def test_mean_iterations_monotone_in_epsilon():
    cfg = _config(mode=ComparisonMode.TARGET_SEARCH, trials=400, seed=5)
    means = []
    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        samples = run_experiment(
            ExperimentConfig(
                circuit=cfg.circuit, epsilon=eps, trials=cfg.trials, seed=cfg.seed,
                mode=cfg.mode,
            )
        )
        means.append(sum(s.iterations for s in samples) / len(samples))
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_perturbed_buffer_outputs_uniform_chi_square():
    # Chi-square uniformity over the 16 encodings at significance 0.01.
    cfg = _config(
        circuit=identity_circuit(4),
        faults=(InputPerturbation(0.5),),
        epsilon=1.0,
        trials=100_000,
        seed=37,
    )
    samples = run_experiment(cfg)
    counts = np.zeros(16, dtype=np.int64)
    for s in samples:
        assert s.accepted
        counts[s.re >> 1] += 1
    expected = len(samples) / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.99, df=15)
    assert chi2 < critical, f"chi2={chi2:.2f} >= {critical:.2f}"


def test_target_search_accepts_the_exact_expectation():
    # The exact model gives each target's chance p(t) that one draw is
    # accepted, and a trial with budget B accepts with chance
    # 1 - (1 - p(t))**B averaged over the target.  Brute force over every
    # input's output must give the same value, and the sampled count must
    # lie in its binomial interval, tail 1e-6 a side.
    circuit = Circuit(16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)])
    faults = (ReversedPolarity(1, 1),)
    faulty = inject_all(circuit, faults)
    trials, budget, grid = 2500, 50_000, (0.0, 0.1, 0.2)
    ks = [max_acceptable_distance(16, eps) for eps in grid]
    targets = np.arange(1 << 16, dtype=np.uint64)
    law = exact.distance_law(faulty, targets)
    exact_p = np.array([exact.acceptance(law, k) for k in ks])

    image, counts = np.unique(faulty.evaluate_batch(targets), return_counts=True)
    brute_p = np.zeros_like(exact_p)
    for start in range(0, len(targets), 4096):
        dist = np.bitwise_count(targets[start : start + 4096, None] ^ image)
        for i, k in enumerate(ks):
            brute_p[i, start : start + 4096] = ((dist <= k) * counts).sum(axis=1) / 2**16

    def expected_accepted(p):
        return trials * (1 - exact.censored_chance(p, budget)).mean(axis=1)

    model, brute = expected_accepted(exact_p), expected_accepted(brute_p)
    for e, b in zip(model.tolist(), brute.tolist()):
        assert math.isclose(e, b, rel_tol=1e-12)
    assert [f"{e:.4g}" for e in model] == ["9.716", "87.81", "908.2"]

    cfg = ExperimentConfig(
        circuit=circuit,
        epsilon=0.0,
        trials=trials,
        seed=1,
        faults=faults,
        mode=ComparisonMode.TARGET_SEARCH,
        max_iterations=budget,
    )
    for samples, mean in zip(sampler.run_levels(cfg, grid), model.tolist()):
        low = scipy.stats.binom.ppf(1e-6, trials, mean / trials)
        high = scipy.stats.binom.isf(1e-6, trials, mean / trials)
        assert low <= int(samples.accepted.sum()) <= high, (samples.epsilon, low, high)
