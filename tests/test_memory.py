"""Bounded temporaries: the one slab rule (``bodies._slabs`` over a budget of
``bodies._SLAB`` values), peak numpy allocations (tracemalloc, which numpy
reports to) of the quadrature, the bound pass and the filter kernel, the
1-d oracles' state at a wide band, and the bit-identity of the slabbed
per-trial sums and reports.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest


from driftguard import bodies, bounds, cli, harness, metropolis
from driftguard.bodies import (Box, FisherMatrix, _slabs, _trial_seeds, cube_eigen_density,
                              fisher_quadrature)
from driftguard.bounds import matching_bounds, upper_bound_general
from driftguard.harness import (
    ExperimentConfig,
    StepGenerator,
    emit_report,
    run_experiment,
    trial_streams,
)
from driftguard.metropolis import EnsembleResult, run_ensemble
from driftguard.oracle1d import (_lexmin_longest, dp_longest_valid, exact_chain_expectation,
                                 exhaustive_failures)
from helpers import leggauss_integrate, run_experiment_ensemble
from test_metropolis import liar_density

MIB = 1 << 20


def peak_bytes(fn):
    """Bytes ``fn()`` allocates at its peak beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSlabs:
    def test_zero_count_yields_nothing(self):
        assert list(_slabs(0, 3)) == []

    def test_zero_width_counts_as_one(self):
        assert list(_slabs(3 * bodies._SLAB, 0)) == list(_slabs(3 * bodies._SLAB, 1))

    def test_width_above_the_budget_gives_one_item_a_slice(self):
        assert list(_slabs(3, bodies._SLAB + 1)) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("count, width", [(1, 1), (10, 3), (7, 7), (100, 2), (9, 100)])
    def test_slices_tile_the_range(self, monkeypatch, count, width):
        monkeypatch.setattr(bodies, "_SLAB", 7)
        slices = list(_slabs(count, width))
        size = max(1, 7 // width)
        assert [i for s in slices for i in range(count)[s]] == list(range(count))
        assert all(s.stop - s.start == size for s in slices[:-1])
        assert slices[-1].stop == count and slices[-1].stop - slices[-1].start <= size

    @pytest.mark.parametrize(
        "box, kind, m, n",
        [
            (Box.cube(3, 16.0), "random_unit_sphere", 50, 300),  # the lockstep body
            (Box.cube(1, 8.0), "coordinate_basis_cycle", 4, 5000),  # windows, long trials
            (Box([2.0, 5.0, 0.75]), "isotropic_custom", 20, 200),
            # two trial slabs, 2048 trials in lockstep and 52 pre-fetching
            (Box.cube(1, 8.0), "coordinate_basis_cycle", 2100, 30),
        ],
    )
    def test_reports_do_not_depend_on_the_budget(self, monkeypatch, box, kind, m, n):
        # a budget of 7 values slabs every pass: the origin draws, the bound
        # pass (each trial longer than a slab) and the kernel's blocks
        config = ExperimentConfig(box, StepGenerator(kind, box.dimension), n, m, 3)
        default = emit_report(run_experiment(config), "json")
        monkeypatch.setattr(bodies, "_SLAB", 7)
        assert emit_report(run_experiment(config), "json") == default


class TestQuadratureMemory:
    def test_d3_128_nodes_peaks_below_16_mib(self):
        # the whole 128**3 grid, as it was once built, peaked at 208 MiB
        density = cube_eigen_density(Box.cube(3, 16.0))
        assert peak_bytes(lambda: fisher_quadrature(density, 128)) < 16 * MIB

    def test_d3_within_1e13_of_the_closed_form(self):
        fisher = fisher_quadrature(cube_eigen_density(Box.cube(3, 16.0)), 128)
        closed = math.pi**2 / 16.0**2
        assert np.max(np.abs(fisher.entries - closed * np.eye(3))) <= 1e-13 * closed

    @pytest.mark.parametrize(
        "half_widths, nodes",
        [([2.0], 64), ([1.0, 3.0], 48), ([16.0, 16.0, 16.0], 24), ([0.5, 2.0, 7.0], 20)],
    )
    def test_matches_leggauss_integrate(self, monkeypatch, half_widths, nodes):
        # a slab of two first-axis planes, so the sums run over many slabs
        planes = nodes ** (len(half_widths) - 1)
        monkeypatch.setattr(bodies, "_SLAB", 2 * planes)
        box = Box(np.array(half_widths))
        density = cube_eigen_density(box)
        fisher = fisher_quadrature(density, nodes)
        d = box.dimension
        expected = np.empty((d, d))
        for i in range(d):
            for j in range(d):

                def integrand(x, i=i, j=j):
                    score = density.log_gradient(x)
                    return score[:, i] * score[:, j] * np.exp(density.log_density(x))

                expected[i, j] = leggauss_integrate(integrand, half_widths, nodes)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(fisher.entries - expected)) <= 1e-13 * scale


class TestBoundPassMemory:
    @pytest.mark.parametrize("shape, pm1", [((128, 20000, 3), False), ((64, 50000, 1), True)])
    def test_no_m_by_n_array(self, shape, pm1):
        m, n, d = shape
        rng = np.random.default_rng(5)
        steps = np.sign(rng.normal(size=shape)) if pm1 else rng.normal(size=shape)
        box = Box.cube(d, 8.0)
        fisher = FisherMatrix(np.eye(d) * (math.pi / 8.0) ** 2, "closed_form")
        # below m * n bytes: not even an (m, n) bool array is built
        assert peak_bytes(lambda: matching_bounds(box, steps)) < m * n
        assert peak_bytes(lambda: upper_bound_general(fisher, steps)) < m * n * 8

    def test_norms_square_one_column_at_a_time(self):
        # 10 MB of d = 3 steps: beyond the (m,) sums, one chunk of scaled
        # steps and a third of one for each of the per-step values, the norms
        # and a column's squares; np.linalg.norm's squares of the whole chunk
        # took a third chunk
        m, n, d = 416, 1000, 3
        steps = np.random.default_rng(6).normal(size=(m, n, d))
        extra = peak_bytes(lambda: bounds._bound_pass(Box.cube(d, 8.0), steps)) - m * 8
        assert extra < 2 * bodies._SLAB * 8


class TestStreamMemory:
    @pytest.mark.parametrize(
        "kind", ["random_unit_sphere", "isotropic_custom", "coordinate_basis_cycle"]
    )
    def test_finishing_builds_no_slab_sized_temporary(self, kind):
        # beyond the 9.6 MB of steps: the slab's int8 signs and a few chunks
        # of _SLAB values, not even the slab's (k, n) norms or float signs
        k, n, d = 100, 4000, 3
        gen, seeds = StepGenerator(kind, d), _trial_seeds(1, range(k), 0)
        extra = peak_bytes(lambda: harness._draw_steps(gen, n, seeds)) - k * n * d * 8
        assert extra < k * n + 4 * bodies._SLAB * 8


class TestTrialSums:
    # the last shape has n * d above _SLAB: each trial is a slab of its own
    SHAPES = [(7, 1000, 3), (3, 50000, 1), (40, 300, 8), (5, 2000, 64)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_norm_sums_are_the_unslabbed_bits(self, shape):
        steps = np.random.default_rng(shape[1]).normal(size=shape)
        expected = np.sum(np.linalg.norm(steps, axis=-1), axis=-1)

        def norms(slab):
            return np.linalg.norm(slab, axis=-1)

        assert np.array_equal(bounds._trial_sums(steps, norms), expected)
        assert bounds._trial_sums(steps[-1], norms) == expected[-1]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bounds_are_the_unslabbed_bits(self, shape):
        m, n, d = shape
        rng = np.random.default_rng(d)
        steps = rng.normal(size=shape)
        half_widths = np.exp(rng.uniform(-1.0, 1.0, size=d))
        t_min = np.min(half_widths)
        norms = np.linalg.norm(steps / (half_widths / t_min), axis=-1)
        cube = (0.5 * math.pi) / t_min * float(np.mean(np.sum(norms, axis=-1)))
        assert matching_bounds(Box(half_widths), steps)[0].value == cube
        root = rng.normal(size=(d, d))
        product = root @ root.T
        fisher = FisherMatrix(0.5 * (product + product.T), "closed_form")
        forms = np.einsum("...nd,df,...nf->...n", steps, fisher.entries, steps)
        general = 0.5 * float(np.mean(np.sum(np.sqrt(np.maximum(forms, 0.0)), axis=-1)))
        assert upper_bound_general(fisher, steps).value == general


class TestEnsembleMemory:
    # width 200 takes the lockstep body, width 4 the pre-fetching one
    @pytest.mark.parametrize("m, n", [(200, 10000), (4, 200000)])
    def test_peak_is_coins_and_decisions(self, m, n):
        # beyond its input: the (m, n) coins and accepted flags, 9 bytes a
        # trial-step, plus per-block buffers and per-trial generators
        steps = np.sign(np.random.default_rng(m).normal(size=(m, n, 1)))
        density = cube_eigen_density(Box.cube(1, 8.0))
        seeds = list(range(m))
        extra = 8 * bodies._SLAB * 8  # eight path buffers' worth
        assert peak_bytes(lambda: run_ensemble(density, steps, seeds)) <= m * n * 9 + extra


class TestTrialSlabs:
    # lanes (a slab's trials * d) patched below the default 2048, so that
    # slabs hold one or a few trials; a slab wider than 128 lanes steps in
    # lockstep and a narrower one pre-fetches
    @pytest.mark.parametrize(
        "box, kind, m, n, lanes",
        [
            (Box.cube(3, 16.0), "random_unit_sphere", 120, 200, 150),  # 50, 50 lockstep, 20 not
            (Box.cube(3, 16.0), "random_unit_sphere", 7, 200, 1),  # one trial a slab
            (Box.cube(1, 8.0), "coordinate_basis_cycle", 135, 500, 130),  # 130 lockstep, 5 not
            (Box([2.0, 5.0, 0.75]), "isotropic_custom", 50, 100, 7),  # three trials a slab
        ],
    )
    def test_slabs_give_the_unslabbed_bits(self, monkeypatch, box, kind, m, n, lanes):
        config = ExperimentConfig(box, StepGenerator(kind, box.dimension), n, m, 4)
        assert m * box.dimension <= metropolis._LOCKSTEP_WIDTH  # one slab by default
        unslabbed = run_ensemble(cube_eigen_density(box), *trial_streams(config))
        report = emit_report(run_experiment(config), "json")
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", lanes)
        stats, result = run_experiment_ensemble(config)
        assert emit_report(stats, "json") == report
        for field in dataclasses.fields(EnsembleResult):
            got, expected = getattr(result, field.name), getattr(unslabbed, field.name)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), field.name

    # the whole (m, n, d) step tensor alone is m * n * d * 8 = 14.4 MB at
    # n = 300; at n = 1000 two slabs' steps alive at once exceed the bound
    @pytest.mark.parametrize("n", [300, 1000])
    def test_peak_is_one_slab_of_steps_and_coins(self, monkeypatch, n):
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # tracemalloc sees this process only
        m, d = 2000, 3
        config = ExperimentConfig(Box.cube(d, 16.0), StepGenerator("random_unit_sphere", d), n, m, 1)
        trials = -(-metropolis._LOCKSTEP_WIDTH // d)
        slab = trials * n * (d + 1) * 8  # one slab's steps and coins
        extra = 8 * bodies._SLAB * 8  # eight path buffers' worth
        assert slab + m * n + extra < m * n * d * 8
        assert peak_bytes(lambda: run_experiment(config)) <= slab + m * n + extra


class TestStreamedMemory:
    # A sign-only slab's one O(n) array is its bound row: the unsigned (n, 1)
    # steps and their (1, n) norms, 16 bytes a step at d = 1, alive only
    # in the bound pass.  The walk then counts each chunk's accept flags as
    # they come, so beyond the row the peak is buffers of a few k * c =
    # _SLAB values (~2.4 MB for the kernel's chunk of 16 trials).  A slab's
    # (16, n) flags are 16 bytes a step more: the bounds leave them out.
    # The density is a liar with a support too wide to leave: it accepts
    # every step, so the kernel runs fewer windows under tracemalloc, and
    # buffers do not depend on decisions.

    def test_long_pm1_run_holds_its_flags_and_a_few_chunks(self, monkeypatch):
        # one slab of 16 trials, its chunks of 4096 steps, coins and flags
        # alive one at a time: 7.5 MB peak, the bound pass's; the slab's
        # (m, n) flags beside the chunks peaked at 9.3 MB, and whole rows of
        # steps and coins took ~17 bytes a trial-step
        m, n, d = 16, 400_000, 1
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # tracemalloc sees this process only
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(1e6))
        config = ExperimentConfig(Box.cube(d, 8.0), StepGenerator("coordinate_basis_cycle", d),
                                  n, m, 1)
        assert peak_bytes(lambda: run_experiment(config)) <= 16 * n + 4 * bodies._SLAB * 8

    def test_bound_row_is_dropped_before_the_kernel(self, monkeypatch):
        # the unsigned (n, d) bound row is 3.2 MB here: kept alive beside
        # the slab's (m, n) accept flags, it exceeded eight path buffers'
        # worth of slack.  With no such flags the row alive beside a chunk
        # stays under the bound pass's own peak, so the bound above, on the
        # same run, is the tighter check
        m, n, d = 16, 400_000, 1
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # tracemalloc sees this process only
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(1e6))
        config = ExperimentConfig(Box.cube(d, 8.0), StepGenerator("coordinate_basis_cycle", d),
                                  n, m, 1)
        assert peak_bytes(lambda: run_experiment(config)) <= m * n + 8 * bodies._SLAB * 8

    def test_slabs_accept_flags_are_not_joined(self, monkeypatch):
        # four slabs of 16 trials, each record its (16,) discard counts:
        # 2.7 MB peak; a slab's (16, n) flags alive until its record was made
        # peaked at 4.5 MB, records that carried each slab's flags held all
        # m * n (9.3 MB), and joining them into one (m, n) array held them
        # twice (12.9 MB)
        m, n, d = 64, 100_000, 1
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", 16)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # tracemalloc sees this process only
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(1e6))
        config = ExperimentConfig(Box.cube(d, 8.0), StepGenerator("coordinate_basis_cycle", d),
                                  n, m, 1)
        assert peak_bytes(lambda: run_experiment(config)) <= 16 * n + 4 * bodies._SLAB * 8

    def test_child_shards_record_is_unpickled_from_its_pipe(self, monkeypatch):
        # two slabs of 16 trials over two processes: the child's record is
        # its slab's discard counts, unpickled straight from the pipe, and
        # the parent's own slab builds no flags (7.5 MB peak); its slab's
        # 6.4 MB of flags peaked at 9.3 MB, a record of the child's flags too
        # at 12.9 MB, and read into one bytes first it was held twice and
        # the peak was 19.2 MB
        m, n, d = 32, 400_000, 1
        monkeypatch.setattr(harness, "_LOCKSTEP_WIDTH", 16)
        monkeypatch.setattr(harness, "_cpus", lambda: 2)  # tracemalloc sees the parent only
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(1e6))
        config = ExperimentConfig(Box.cube(d, 8.0), StepGenerator("coordinate_basis_cycle", d),
                                  n, m, 1)
        assert peak_bytes(lambda: run_experiment(config)) <= 16 * n + 4 * bodies._SLAB * 8

    def test_wide_pm1_run_holds_one_chunk(self, monkeypatch):
        # 200 trials in lockstep over two chunks of 4251 steps, each 27 MB of
        # steps and coins: drawing the second while the first was alive (the
        # kernel's and the step source's names held it) peaked at 50.7 MiB
        m, n, d = 200, 2 * metropolis._chunk_length(600), 3
        monkeypatch.setattr(harness, "_cpus", lambda: 1)  # tracemalloc sees this process only
        monkeypatch.setattr(harness, "cube_eigen_density", lambda box: liar_density(1e6, d))
        config = ExperimentConfig(Box.cube(d, 8.0), StepGenerator("coordinate_basis_cycle", d),
                                  n, m, 1)
        chunk = m * (n // 2) * (d + 1) * 8
        assert peak_bytes(lambda: run_experiment(config)) <= m * n + chunk + 8 * bodies._SLAB * 8


class TestBoundsCommand:
    def test_steps_build_no_step_array(self, capsys):
        # 10**6 rows of e_1 at d = 3 took 24 MB, and 10**12 of them 22 TiB
        argv = ["bounds", "--dim", "3", "--half-width", "16", "--steps", str(10**6)]
        assert peak_bytes(lambda: cli.main(argv)) < MIB
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestOracleState:
    # a state for each of the 2T + 1 heights peaked at 31 MiB (the DP) and
    # 93 MiB (the start weights) at T = 10**6
    def test_dp_holds_the_heights_n_steps_reach(self):
        assert peak_bytes(lambda: dp_longest_valid((1, 1), 10**6, 0)) < MIB

    def test_point_start_that_cannot_reach_an_edge_builds_no_states(self):
        assert peak_bytes(lambda: exact_chain_expectation(10**6, 10, 0)) < MIB

    def test_lexmin_dp_gives_starts_of_disjoint_reach_a_table_each(self):
        # starts at both edges of T = 2**70 and at 0 reach disjoint heights, so
        # each gets its own table of 15 heights; one table over all three
        # would span 2**71 heights a string
        t, starts = 2**70, [-(2**70), 0, 2**70]
        bits = (np.arange(64)[:, None] >> np.arange(14)) & 1
        signs = (2 * bits - 1).astype(np.int8)
        assert peak_bytes(lambda: _lexmin_longest(signs, t, starts)) < MIB

    def test_exhaustive_compares_flag_rows_not_witness_tuples(self):
        # one witness tuple per string and start peaked at ~16 MiB; the DP's
        # taken rows and the greedy's kept rows are one bool per step
        assert peak_bytes(lambda: exhaustive_failures(14, 2, range(-2, 3))) < 8 * MIB
