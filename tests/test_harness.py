import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from driftguard import bodies, bounds, harness, metropolis
from driftguard.bodies import Box, _trial_seeds, cube_eigen_density
from driftguard.bounds import isotropic_bound, lower_bound_1d, matching_bounds, upper_bound_cube
from driftguard.harness import (
    ExperimentConfig,
    RunStats,
    StepGenerator,
    emit_report,
    generate_steps,
    run_experiment,
    run_experiment_ensemble,
    run_stats_from_json,
    trial_streams,
)
from driftguard.metropolis import ContainmentError, EnsembleResult, filter_run, run_ensemble
from helpers import filter_loop, reference_steps, seed_fingerprint
from test_metropolis import BODIES, liar_density


def cfg(**overrides):
    base = dict(
        body=Box.cube(1, 4.0),
        generator=StepGenerator("fixed_list", 1, vectors=((1.0,),)),
        n_steps=100,
        n_trials=10,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStepGenerator:
    def test_fixed_list_requires_vectors(self):
        with pytest.raises(ValueError):
            StepGenerator("fixed_list", 2)

    def test_vectors_only_for_fixed_list(self):
        with pytest.raises(ValueError):
            StepGenerator("random_unit_sphere", 2, vectors=((1.0, 0.0),))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepGenerator("levy_flight", 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fixed_list_vectors_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="^fixed_list vectors must be finite$"):
            StepGenerator("fixed_list", 2, vectors=[[1.0, 0.0], [0.5, bad]])

    @pytest.mark.parametrize("value", ["no", "false", 1, 0, 1.0, None])
    def test_rademacher_must_be_a_bool(self, value):
        # "no" once drew signs, as a truthy string
        with pytest.raises(ValueError, match="^rademacher must be true or false, not "):
            StepGenerator("coordinate_basis_cycle", 2, rademacher=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_rademacher_takes_python_and_numpy_bools(self, value):
        gen = StepGenerator("coordinate_basis_cycle", 2, rademacher=value)
        plain = StepGenerator("coordinate_basis_cycle", 2, rademacher=bool(value))
        assert np.array_equal(generate_steps(gen, 50, 3), generate_steps(plain, 50, 3))

    def test_vector_dimension_checked(self):
        with pytest.raises(ValueError):
            StepGenerator("fixed_list", 2, vectors=((1.0,),))

    def test_fixed_list_verbatim_without_signs(self):
        gen = StepGenerator(
            "fixed_list", 2, rademacher=False, vectors=((0.5, 0.0), (0.0, -0.25))
        )
        steps = generate_steps(gen, 5, rng_seed=0)
        expected = np.array(
            [[0.5, 0.0], [0.0, -0.25], [0.5, 0.0], [0.0, -0.25], [0.5, 0.0]]
        )
        assert np.array_equal(steps, expected)

    @pytest.mark.parametrize("rademacher", [False, True])
    @pytest.mark.parametrize(
        "length,n",
        [(L, n) for L in (1, 3, 7) for n in sorted({0, 1, L - 1, L, L + 1, 5 * L + 2})],
    )
    def test_fixed_list_cycles_like_tile(self, length, n, rademacher):
        # the list cycled by tiling, then signed by the generator's stream
        base = np.random.default_rng(length).normal(size=(length, 2))
        gen = StepGenerator("fixed_list", 2, rademacher=rademacher, vectors=base.tolist())
        expected = np.tile(base, (max(math.ceil(n / length), 1), 1))[:n]
        if rademacher:
            signs = np.random.default_rng(4).integers(0, 2, size=n) * 2.0 - 1.0
            expected = expected * signs[:, None]
        steps = generate_steps(gen, n, rng_seed=4)
        assert steps.shape == (n, 2) and steps.dtype == np.float64
        assert steps.tobytes() == expected.tobytes()

    def test_vectors_are_one_read_only_array(self):
        rows = ((0.5, 0.0), (0.0, -0.25), (1.0, 2.0))
        source = np.array(rows)
        inputs = (rows, [list(r) for r in rows], source)
        gens = [StepGenerator("fixed_list", 2, vectors=v) for v in inputs]
        source[0, 0] = 9.0  # the generator keeps its own copy
        for gen in gens:
            assert isinstance(gen.vectors, np.ndarray)
            assert gen.vectors.dtype == np.float64 and gen.vectors.shape == (3, 2)
            assert not gen.vectors.flags.writeable
            assert np.array_equal(generate_steps(gen, 8, 1), generate_steps(gens[0], 8, 1))
        with pytest.raises(TypeError):
            hash(gens[0])

    def test_vectors_follow_the_array_rule(self):
        # numpy would cast [["1.5"]] to the step 1.5 and [[True]] to 1.0
        message = "^fixed_list vectors must be ints or floats, not "
        for bad in ([["1.5"]], [[True]], np.array([["1.5"]]), np.array([[True, False]])):
            with pytest.raises(ValueError, match=message):
                StepGenerator("fixed_list", len(bad[0]), vectors=bad)
        gen = StepGenerator("fixed_list", 2, vectors=[[1, 0]])
        assert gen.vectors.dtype == np.float64 and gen.vectors.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ragged_vectors_rejected(self, dim):
        with pytest.raises(ValueError, match="generator dimension"):
            StepGenerator("fixed_list", dim, vectors=((1.0,), (1.0, 2.0)))

    def test_fixed_list_signs_flip_entire_vector(self):
        gen = StepGenerator("fixed_list", 2, vectors=((0.5, 0.25),))
        steps = generate_steps(gen, 200, rng_seed=3)
        ratios = steps / np.array([0.5, 0.25])
        assert np.all(ratios[:, 0] == ratios[:, 1])
        assert set(np.unique(ratios)) == {-1.0, 1.0}

    def test_coordinate_cycle_pattern(self):
        gen = StepGenerator("coordinate_basis_cycle", 3, rademacher=False)
        steps = generate_steps(gen, 7, rng_seed=0)
        eye = np.eye(3)
        for k in range(7):
            assert np.array_equal(steps[k], eye[k % 3])

    def test_sphere_steps_are_unit(self):
        gen = StepGenerator("random_unit_sphere", 4, rademacher=False)
        steps = generate_steps(gen, 500, rng_seed=11)
        norms = np.linalg.norm(steps, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_isotropic_second_moment(self):
        gen = StepGenerator("isotropic_custom", 3, rademacher=False)
        steps = generate_steps(gen, 100_000, rng_seed=21)
        second = steps[:, :, None] * steps[:, None, :]
        mean = second.mean(axis=0)
        se = second.std(axis=0, ddof=1) / np.sqrt(len(steps))
        assert np.all(np.abs(mean - np.eye(3)) <= 3.0 * se)

    def test_rademacher_sign_fairness(self):
        gen = StepGenerator("coordinate_basis_cycle", 1)
        steps = generate_steps(gen, 100_000, rng_seed=2)
        frac_plus = float(np.mean(steps[:, 0] > 0))
        assert abs(frac_plus - 0.5) <= 3.0 * 0.5 / np.sqrt(len(steps))

    def test_deterministic(self):
        gen = StepGenerator("random_unit_sphere", 2)
        a = generate_steps(gen, 50, rng_seed=9)
        b = generate_steps(gen, 50, rng_seed=9)
        assert np.array_equal(a, b)

    def test_negative_count(self):
        gen = StepGenerator("coordinate_basis_cycle", 1)
        with pytest.raises(ValueError):
            generate_steps(gen, -1, rng_seed=0)


class TestExperimentConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cfg(body=Box.cube(2, 4.0))

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            cfg(n_trials=0)
        with pytest.raises(ValueError):
            cfg(n_steps=-1)


class TestTrialStreams:
    def test_shapes(self):
        steps, seeds = trial_streams(cfg(n_trials=7, n_steps=13))
        assert steps.shape == (7, 13, 1)
        assert len(seeds) == 7

    def test_prefix_stable_in_trial_count(self):
        small, seeds_small = trial_streams(cfg(n_trials=3))
        large, seeds_large = trial_streams(cfg(n_trials=8))
        assert np.array_equal(large[:3], small)
        for a, b in zip(seeds_large[:3], seeds_small):
            assert np.array_equal(a.generate_state(4), b.generate_state(4))


    @pytest.mark.parametrize("kind", harness.GENERATOR_KINDS)
    @pytest.mark.parametrize("rademacher", [True, False])
    @pytest.mark.parametrize("d", [1, 3, 8, 256])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_slab_is_per_trial_generate_steps(self, monkeypatch, kind, rademacher, d, chunk):
        # a slab finishes its steps a _slabs chunk at a time: 7-step chunks cut
        # through trials, and at d = 256 so do the default 256-step ones
        if chunk is not None:
            monkeypatch.setattr(bodies, "_SLAB", chunk * d)
        vectors = np.random.default_rng(d).normal(size=(3, d)) if kind == "fixed_list" else None
        if vectors is not None:
            vectors[1] = 0.0
        gen = StepGenerator(kind, d, rademacher, vectors)
        k, n = 5, 60
        trials = range(3, 3 + k)
        steps = harness._draw_steps(gen, n, _trial_seeds(11, trials, 0))
        seeds = _trial_seeds(11, trials, 1)
        assert steps.shape == (k, n, d) and len(seeds) == k
        for i, row, seed in zip(trials, steps, seeds):
            step_seed, filter_seed = np.random.SeedSequence((11, i)).spawn(2)
            assert row.tobytes() == generate_steps(gen, n, step_seed).tobytes()
            assert row.tobytes() == reference_steps(gen, n, step_seed).tobytes()
            assert seed_fingerprint(seed) == seed_fingerprint(filter_seed)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32])
    def test_seeds_replay_the_ensemble(self, seed):
        # the seeds alone must replay each trial: its origin through
        # default_rng(s), and its walk through filter_run on its own steps
        config = cfg(body=Box.cube(2, 3.0), generator=StepGenerator("random_unit_sphere", 2),
                     n_steps=40, n_trials=12, seed=seed)
        stats, result = run_experiment_ensemble(config)
        steps, seeds = trial_streams(config)
        density = cube_eigen_density(config.body)
        origins = np.stack([density.sample(np.random.default_rng(s)) for s in seeds])
        assert np.array_equal(origins, result.origins)
        for i, seed_i in enumerate(seeds):
            trajectory = filter_run(density, steps[i], seed_i)
            assert trajectory.n_discarded == stats.per_trial_discards[i]


class TestStreamedChunks:
    """Sign-only walks are drawn and filtered a chunk of steps at a time.

    ``bodies._SLAB`` = 64 cuts n = 90 steps of 3 trials into chunks of 21
    steps at d = 1 (one block), 6 at d = 8 (three) and 5 at d = 64 (five);
    each reference runs first, at the default budget, where every walk here
    is one chunk.
    """

    SLAB = 64

    @pytest.mark.parametrize("draw", ["integers", "random", "standard_normal"])
    def test_split_draws_are_one_call(self, draw):
        # the chunks rest on numpy drawing the same values in pieces of any
        # length, odd or even, as in one call; a change to how a generator
        # buffers its words would move reports, and fails here instead
        lengths = [1, 2, 3, 1000, 4095, 4096, 7, 1, 6]
        seed = np.random.SeedSequence((7, 3))

        def values(rng, size):
            if draw == "integers":
                return rng.integers(0, 2, size=size)
            if draw == "random":
                out = np.empty(size)
                rng.random(out=out)  # as the kernel fills a chunk's coins
                return out
            return rng.standard_normal(size=size)

        whole = values(np.random.default_rng(seed), sum(lengths))
        rng = np.random.default_rng(seed)
        pieces = np.concatenate([values(rng, size) for size in lengths])
        assert pieces.dtype == whole.dtype
        assert pieces.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("body", BODIES)
    @pytest.mark.parametrize("rademacher", [True, False])
    @pytest.mark.parametrize(
        "box",
        [Box.cube(1, 3.0), Box(np.linspace(1.5, 6.0, 8)), Box(np.geomspace(1.0, 8.0, 64))],
        ids=["d1", "d8", "d64"],
    )
    def test_fixed_list_chunks_are_one_pass(self, monkeypatch, body, rademacher, box):
        d, m, n = box.dimension, 3, 90
        monkeypatch.setattr(metropolis, "_SPECULATIVE_WIDTH", 0 if body == "lockstep" else 1 << 62)
        vectors = np.random.default_rng(d).normal(size=(5, d)) * 0.7
        vectors[2] = 0.0  # a zero step, which a sign turns into -0.0
        config = cfg(body=box, generator=StepGenerator("fixed_list", d, rademacher, vectors),
                     n_steps=n, n_trials=m, seed=13)
        density = cube_eigen_density(box)
        steps, seeds = trial_streams(config)
        one_pass = run_ensemble(density, steps, seeds)
        report = emit_report(run_experiment(config), "json")
        monkeypatch.setattr(bodies, "_SLAB", self.SLAB)
        assert n > 2 * metropolis._chunk_length(m * d)  # three chunks or more
        stats, result = run_experiment_ensemble(config)
        assert emit_report(stats, "json") == report
        assert stats.bound_reports == tuple(matching_bounds(box, steps))
        for field in dataclasses.fields(EnsembleResult):
            got, expected = getattr(result, field.name), getattr(one_pass, field.name)
            assert got.tobytes() == expected.tobytes(), field.name
        for i in range(m):
            loop = filter_loop(density, steps[i], seeds[i])
            assert np.array_equal(result.accepted[i], loop.accepted)
            assert result.origins[i].tobytes() == loop.origin.tobytes()
            assert result.finals[i].tobytes() == loop.final.tobytes()
            assert result.max_abs_sums[i] == np.max(np.abs(loop.sums))
        assert 0 < np.count_nonzero(~result.accepted) < m * n  # both decisions occur

    @pytest.mark.parametrize("body", BODIES)
    def test_escape_in_a_later_chunk_is_the_one_pass_escape(self, monkeypatch, body):
        # liars accept every +-1 step, so a sum leaves 2K = 12 in the fourth
        # 21-step chunk or later
        t = 6.0
        monkeypatch.setattr(metropolis, "_SPECULATIVE_WIDTH", 0 if body == "lockstep" else 1 << 62)
        config = cfg(body=Box.cube(1, t), generator=StepGenerator("coordinate_basis_cycle", 1),
                     n_steps=400, n_trials=3, seed=2)
        with pytest.raises(ContainmentError) as one_pass:
            run_ensemble(liar_density(t), *trial_streams(config))
        monkeypatch.setattr(bodies, "_SLAB", self.SLAB)
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(t))
        with pytest.raises(ContainmentError) as chunked:
            run_experiment(config)
        assert one_pass.value.step >= 3 * metropolis._chunk_length(3)
        got, expected = chunked.value, one_pass.value
        assert (got.step, got.trial) == (expected.step, expected.trial)
        assert got.accepted_sum.tobytes() == expected.accepted_sum.tobytes()


class TestSlabSteps:
    """The step source's contract: a slab's sums are ``_bound_pass``' on its
    signed steps, whose norms a sign leaves as they are, so a sign-only
    kind's one unsigned row gives every trial the row's sum; and its chunks,
    joined along n, are those steps."""

    @pytest.mark.parametrize("kind", [*harness.GENERATOR_KINDS, "pm1 at d = 1"])
    @pytest.mark.parametrize("chunks", [0, 3])
    def test_sums_and_chunks_are_the_signed_steps(self, kind, chunks):
        # a non-cube box, and a fixed list of unequal norms with a zero row;
        # pm1 at d = 1 on an integer band attaches lower_1d
        box, vectors = Box([2.0, 5.0, 0.75]), None
        if kind == "fixed_list":
            vectors = [[0.5, -0.25, 1.0], [0.0, 0.0, 0.0], [1.5, 0.75, -2.0], [-0.125, 1.0, 0.25]]
        if kind == "pm1 at d = 1":
            box, kind = Box.cube(1, 3.0), "coordinate_basis_cycle"
        gen = StepGenerator(kind, box.dimension, vectors=vectors)
        k, d = 3, gen.dimension
        length = metropolis._chunk_length(k * d)
        n = chunks * length - 5 if chunks else 0  # a short last chunk
        seeds = _trial_seeds(4, range(2, 2 + k), 0)
        steps = harness._draw_steps(gen, n, seeds)
        expected_sums, expected_unit = bounds._bound_pass(box, steps)
        sums, unit, parts = harness._slab_steps(box, gen, n, seeds)
        assert sums.shape == (k,)
        assert sums.tobytes() == expected_sums.tobytes()
        assert unit == expected_unit
        joined = np.concatenate([np.empty((k, 0, d)), *parts], axis=1)
        assert joined.shape == steps.shape
        assert joined.tobytes() == steps.tobytes()


class TestRunExperiment:
    @pytest.mark.parametrize("kind, d", [
        pytest.param(kind, d, id=kind) for kind, d in [
            ("fixed_list", 1), ("coordinate_basis_cycle", 3),
            ("random_unit_sphere", 2), ("isotropic_custom", 3)]])
    def test_zero_steps(self, kind, d):
        # every kind's n = 0 draw is one empty chunk, float64 and d wide
        vectors = np.ones((1, d)) if kind == "fixed_list" else None
        gen = StepGenerator(kind, d, vectors=vectors)
        config = cfg(body=Box.cube(d, 4.0), generator=gen, n_steps=0, n_trials=4)
        stats = run_experiment(config)
        assert stats.mean == 0.0
        assert stats.per_trial_discards == (0, 0, 0, 0)
        assert stats.containment_violations == 0
        one = generate_steps(gen, 0, 5)
        assert (one.dtype, one.shape) == (np.float64, (0, d))
        slab = harness._draw_steps(gen, 0, _trial_seeds(5, range(4), 0))
        assert (slab.dtype, slab.shape) == (np.float64, (4, 0, d))
        steps = trial_streams(config)[0]
        assert (steps.dtype, steps.shape) == (np.float64, (4, 0, d))
        assert stats.bound_reports == tuple(matching_bounds(config.body, steps))

    def test_mean_and_se_recomputable(self):
        stats = run_experiment(cfg(n_trials=12, n_steps=300))
        d = np.array(stats.per_trial_discards, dtype=float)
        assert stats.mean == pytest.approx(d.mean(), abs=1e-12)
        assert stats.std_error == pytest.approx(
            d.std(ddof=1) / np.sqrt(len(d)), abs=1e-12
        )

    def test_mean_between_lower_and_cube_bounds(self):
        config = cfg(n_trials=500, n_steps=10_000, seed=101)
        stats = run_experiment(config)
        lower = lower_bound_1d(4.0, 10_000).value
        cube = upper_bound_cube(4.0, np.ones(10_000)).value
        guard = 3.0 * stats.std_error
        assert lower - guard <= stats.mean <= cube + guard

    def test_ensemble_variant_returns_matching_stats(self):
        config = cfg(n_trials=6, n_steps=40)
        stats_a = run_experiment(config)
        stats_b, ensemble = run_experiment_ensemble(config)
        assert stats_a == stats_b
        assert ensemble.discards.shape == (6,)
        assert tuple(int(x) for x in ensemble.discards) == stats_a.per_trial_discards

    def test_reproducible(self):
        config = cfg(n_trials=5, n_steps=100, seed=77)
        assert run_experiment(config) == run_experiment(config)

    # at T = 2.5 each slab of two trials reports its first escape as (step,
    # trial): with seed 1 the last slab holds the least step, and with seed 6
    # the first and last slabs tie at step 9, and the lower trial wins
    # and shards of 3 (k = 2) or 1 (k = 3) slabs merge their escapes alike
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "seed, per_slab",
        [(1, [(15, 1), (23, 3), (5, 5)]), (6, [(9, 1), (41, 3), (9, 5)])],
    )
    def test_containment_names_the_unslabbed_violation(self, monkeypatch, seed, per_slab, k):
        t = 2.5
        config = cfg(body=Box.cube(1, t), generator=StepGenerator("coordinate_basis_cycle", 1),
                     n_steps=60, n_trials=6, seed=seed)
        steps, seeds = trial_streams(config)
        found = []
        for start in (0, 2, 4):
            with pytest.raises(ContainmentError) as exc:
                run_ensemble(liar_density(t), steps[start : start + 2], seeds[start : start + 2])
            found.append((exc.value.step, start + exc.value.trial))
        assert found == per_slab
        with pytest.raises(ContainmentError) as unslabbed:
            run_ensemble(liar_density(t), steps, seeds)
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(t))
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", 2)
        monkeypatch.setattr(harness, "_cpus", lambda: k)
        with pytest.raises(ContainmentError) as slabbed:
            run_experiment(config)
        assert (slabbed.value.step, slabbed.value.trial) == min(per_slab)
        assert (unslabbed.value.step, unslabbed.value.trial) == min(per_slab)
        assert str(slabbed.value) == str(unslabbed.value)
        assert str(slabbed.value).startswith(f"trial {min(per_slab)[1]} accepted sum ")


class TestTrialShards:
    # (box, generator, trials, steps, lanes): ceil(lanes / d) trials a slab
    # make 4, 3, 5 and 2 slabs, and k = 3 forks two children where it can
    RUNS = [
        (Box.cube(3, 16.0), StepGenerator("random_unit_sphere", 3), 40, 150, 30),
        (Box([2.0, 5.0, 0.75]), StepGenerator("isotropic_custom", 3), 25, 100, 30),
        (Box.cube(2, 3.0), StepGenerator("coordinate_basis_cycle", 2), 50, 300, 20),
        (Box.cube(2, 3.0), StepGenerator("fixed_list", 2, vectors=((0.5, -1.0), (0.0, 0.0))),
         21, 200, 22),
    ]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("box, gen, m, n, lanes", RUNS)
    def test_shards_give_the_one_process_bits(self, monkeypatch, box, gen, m, n, lanes, k):
        config = ExperimentConfig(box, gen, n, m, 8)
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", lanes)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        stats, expected = run_experiment_ensemble(config)
        monkeypatch.setattr(harness, "_cpus", lambda: k)
        sharded, result = run_experiment_ensemble(config)
        for fmt in ("json", "csv"):
            assert emit_report(sharded, fmt) == emit_report(stats, fmt)
        for field in dataclasses.fields(EnsembleResult):
            got, want = getattr(result, field.name), getattr(expected, field.name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_one_slab_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("a one-slab run forked")

        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        run_experiment(cfg(n_trials=16, n_steps=50))

    def test_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        # the children would sleep for a minute; the interrupt in this
        # process's shard kills them, and the autouse fixture sees none left
        parent = os.getpid()

        def slab_steps(body, gen, n, seeds):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(harness, "_slab_steps", slab_steps)
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", 1)
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg(body=Box.cube(1, 2.5), n_trials=6, n_steps=10))
        assert time.monotonic() - start < 30

    # six one-trial slabs; a slab whose trial is in ``failing`` raises
    # ValueError naming it, so each shard's error is its first failing trial's
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("failing, escapes", [
        ({3, 5}, False), ({1, 4}, False), ({5}, False), ({0, 1, 2, 3, 4, 5}, False),
        ({4}, True),  # every slab's sums leave 2K: the ValueError still wins
    ])
    def test_an_error_is_the_one_process_error(self, monkeypatch, failing, escapes, k):
        draw = harness._slab_steps

        def slab_steps(body, gen, n, seeds):
            trial = seeds[0].entropy[1]
            if trial in failing:
                raise ValueError(f"trial {trial} failed")
            return draw(body, gen, n, seeds)

        config = cfg(body=Box.cube(1, 2.5), generator=StepGenerator("coordinate_basis_cycle", 1),
                     n_steps=60, n_trials=6)
        if escapes:
            monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(2.5))
        monkeypatch.setattr(harness, "_slab_steps", slab_steps)
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", 1)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        with pytest.raises(ValueError, match=f"^trial {min(failing)} failed$"):
            run_experiment(config)
        monkeypatch.setattr(harness, "_cpus", lambda: k)
        with pytest.raises(ValueError, match=f"^trial {min(failing)} failed$"):
            run_experiment(config)


class TestBoundAttachment:
    def kinds(self, stats):
        return {report.kind for report in stats.bound_reports}

    def test_integer_t_unit_steps_all_four(self):
        stats = run_experiment(cfg(n_trials=3, n_steps=20))
        assert self.kinds(stats) == {"general_fisher", "cube_l2", "lower_1d"}

    def test_non_integer_t_drops_lower(self):
        stats = run_experiment(cfg(body=Box.cube(1, 2.5), n_trials=3, n_steps=20))
        assert "lower_1d" not in self.kinds(stats)

    def test_non_unit_steps_drop_lower(self):
        config = cfg(
            generator=StepGenerator("fixed_list", 1, vectors=((0.5,),)),
            n_trials=3,
            n_steps=20,
        )
        assert "lower_1d" not in self.kinds(run_experiment(config))

    def test_non_cube_box_keeps_general_fisher_only_upper(self):
        config = ExperimentConfig(
            body=Box((2.0, 3.0)),
            generator=StepGenerator("random_unit_sphere", 2),
            n_steps=20,
            n_trials=3,
            seed=1,
        )
        kinds = self.kinds(run_experiment(config))
        assert kinds == {"general_fisher"}

    def test_general_fisher_value_matches_formula(self):
        stats = run_experiment(cfg(n_trials=3, n_steps=50))
        by_kind = {r.kind: r.value for r in stats.bound_reports}
        assert by_kind["general_fisher"] == by_kind["cube_l2"] == (0.5 * math.pi / 4.0) * 50.0

    @pytest.mark.parametrize("d", [1, 3])
    def test_isotropic_bound_holds_for_isotropic_steps(self, d):
        # no report attaches it, so check it against its own step law here
        config = cfg(
            body=Box.cube(d, 4.0),
            generator=StepGenerator("isotropic_custom", d),
            n_steps=2000,
            n_trials=20,
        )
        stats = run_experiment(config)
        assert stats.mean <= isotropic_bound(config.body, 2000).value + 3.0 * stats.std_error


class TestStepNorms:
    @pytest.mark.parametrize("d", [1, 3, 8, 12])
    @pytest.mark.parametrize("slab", [1, 100, 1 << 16])
    def test_slab_norms_equal_linalg_norm(self, monkeypatch, d, slab):
        # per-trial norm sums over slabs of one step, of a few steps with a
        # partial last one (trials longer than a slab), and of whole trials
        monkeypatch.setattr(bodies, "_SLAB", slab)
        scales = 10.0 ** np.arange(-3, 4)[:, None]  # one per step
        steps = np.random.default_rng(d).normal(size=(23, 7, d)) * scales

        def norms(s):
            return np.linalg.norm(s, axis=-1)

        expected = np.sum(np.linalg.norm(steps, axis=2), axis=-1)
        assert np.array_equal(bounds._trial_sums(steps, norms), expected)
        assert bounds._trial_sums(steps[5], norms) == expected[5]
        assert bounds._trial_sums(steps[5], norms).shape == ()
        assert np.array_equal(bounds._trial_sums(steps[:, :0], norms), np.zeros(23))


class TestReports:
    def stats(self):
        return RunStats(
            per_trial_discards=(3, 5),
            mean=4.0,
            std_error=1.0,
            bound_reports=(),
            containment_violations=0,
        )

    def test_csv_exact_bytes(self):
        expected = (
            "trial,discards\n"
            "0,3\n"
            "1,5\n"
            "mean,4.0\n"
            "std_error,1.0\n"
            "containment_violations,0\n"
        )
        assert emit_report(self.stats(), "csv") == expected

    def test_csv_includes_bound_rows(self):
        stats = run_experiment(cfg(n_trials=2, n_steps=10))
        text = emit_report(stats, "csv")
        for report in stats.bound_reports:
            assert f"bound,{report.kind},{report.value!r}" in text

    def test_json_roundtrip(self):
        stats = run_experiment(cfg(n_trials=4, n_steps=25))
        text = emit_report(stats, "json")
        assert text.endswith("\n")
        assert run_stats_from_json(text) == stats

    @pytest.mark.parametrize(
        "key, text",
        [("mean", '"1.5"'), ("std_error", "true"), ("value", '"nan"'), ("value", "1e999")],
    )
    def test_json_numbers_follow_the_number_rule(self, key, text):
        # these parsed as 1.5, 1.0, NaN and inf through float()
        record = (
            '{{"per_trial_discards": [3, 5], "containment_violations": 0, "mean": {mean}, '
            '"std_error": {std_error}, "bound_reports": '
            '[{{"kind": "cube_l2", "value": {value}, "inputs_digest": "n=1"}}]}}'
        )
        fields = {"mean": "4.0", "std_error": "1.0", "value": "2.0"}
        assert run_stats_from_json(record.format(**fields)).bound_reports[0].value == 2.0
        with pytest.raises(ValueError, match=f"^{key} must be a finite number"):
            run_stats_from_json(record.format(**{**fields, key: text}))

    @pytest.mark.parametrize("key, value", [("kind", 5), ("inputs_digest", None),
                                            ("kind", True), ("inputs_digest", [1])])
    def test_json_bound_strings_must_be_strings(self, key, value):
        # kept, a kind 5 or digest null would be written to csv as bound,5,... or "None"
        bound = {"kind": "cube_l2", "value": 2.0, "inputs_digest": "n=1"}
        record = {"per_trial_discards": [3, 5], "containment_violations": 0, "mean": 4.0,
                  "std_error": 1.0, "bound_reports": [bound]}
        assert run_stats_from_json(json.dumps(record)).bound_reports[0].kind == "cube_l2"
        bad = json.dumps({**record, "bound_reports": [{**bound, key: value}]})
        with pytest.raises(ValueError, match=f"^{key} must be a string, not "):
            run_stats_from_json(bad)

    def test_numpy_fields_are_plain_numbers(self):
        # numpy scalars were kept, so csv wrote mean,np.float64(4.0) and
        # json raised TypeError on the int64
        stats = RunStats(np.array([3, 5]), np.float64(4.0), np.float32(1.0),
                         [bounds.BoundReport("cube_l2", np.float64(2.5), "n=1")], np.int64(0))
        assert emit_report(stats, "csv") == emit_report(self.stats(), "csv") + 'bound,cube_l2,2.5,"n=1"\n'
        assert run_stats_from_json(emit_report(stats, "json")) == stats
        assert type(stats.mean) is float and type(stats.bound_reports[0].value) is float
        assert type(stats.per_trial_discards) is tuple and type(stats.bound_reports) is tuple
        assert all(type(x) is int for x in (*stats.per_trial_discards, stats.containment_violations))

    @pytest.mark.parametrize("field, value, message", [
        ("per_trial_discards", (3, 4.5), "per_trial_discards must be an integer"),
        ("containment_violations", True, "containment_violations must be an integer"),
        ("mean", "4.0", "mean must be a finite number"),
        ("std_error", np.inf, "std_error must be a finite number"),
    ])
    def test_fields_are_checked_when_built(self, field, value, message):
        fields = dict(per_trial_discards=(3, 5), mean=4.0, std_error=1.0, bound_reports=(),
                      containment_violations=0)
        with pytest.raises(ValueError, match=f"^{message}"):
            RunStats(**{**fields, field: value})

    @pytest.mark.parametrize("kind, value, digest, message", [
        (5, 1.0, "n=1", "kind must be a string"), ("cube_l2", 1.0, None, "inputs_digest must be a string"),
        ("cube_l2", float("nan"), "n=1", "value must be a finite number"),
    ])
    def test_bound_fields_are_checked_when_built(self, kind, value, digest, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            bounds.BoundReport(kind, value, digest)

    def test_json_is_canonical(self):
        text = emit_report(self.stats(), "json")
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"

    def test_emit_twice_identical(self):
        stats = run_experiment(cfg(n_trials=3, n_steps=15))
        assert emit_report(stats, "json") == emit_report(stats, "json")
        assert emit_report(stats, "csv") == emit_report(stats, "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.stats(), "yaml")
