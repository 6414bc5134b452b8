import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krt.dpl import (
    DplConfig,
    dynamic_threshold_search,
    generate_pseudo_labels,
    session_target,
)
from krt import protocol
from krt.protocol import run_dpl

from oracles import dpl_grid_oracle, dpl_walk_oracle, pseudo_count_oracle


class TestSessionTarget:
    def test_half_old(self):
        assert session_target(40, 80, 2.9) == pytest.approx(1.45, abs=1e-12)

    def test_no_old_classes(self):
        assert session_target(0, 80, 2.9) == 0.0

    def test_all_old(self):
        assert session_target(80, 80, 2.9) == pytest.approx(2.9, abs=1e-12)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            session_target(0, 0, 2.9)


def mask_of(sets, k):
    """The [len(sets), k] bool mask whose row i marks the columns in sets[i]."""
    mask = np.zeros((len(sets), k), dtype=bool)
    for i, cols in enumerate(sets):
        mask[i, sorted(cols)] = True
    return mask


def sets_of(mask):
    return [set(np.flatnonzero(row).tolist()) for row in mask]


class TestGeneratePseudoLabels:
    def test_all_below_threshold(self):
        labels = generate_pseudo_labels(np.full((5, 3), 0.2), eta=0.8)
        assert labels.dtype == bool and labels.shape == (5, 3) and not labels.any()

    def test_eta_zero_saturates(self):
        assert generate_pseudo_labels(np.random.default_rng(0).uniform(size=(4, 3)), eta=0.0).all()

    def test_hand_enumerated_case(self):
        labels = generate_pseudo_labels(np.array([[0.9, 0.3], [0.81, 0.79]]), eta=0.8)
        assert labels.tolist() == [[True, False], [True, False]]
        assert labels.sum() / 2 == 1.0

    def test_true_labels_excluded(self):
        scores = np.array([[0.95, 0.95], [0.95, 0.1]])
        labels = generate_pseudo_labels(scores, eta=0.8, exclude=mask_of([{0}, set()], 2))
        assert labels.tolist() == [[False, True], [True, False]]

    def test_score_out_of_range_rejected(self):
        for bad in (1.2, np.nan):
            with pytest.raises(ValueError):
                generate_pseudo_labels(np.array([[bad]]), eta=0.5)


class TestThresholdSearch:
    def test_low_bound_above_high_bound_is_rejected(self):
        with pytest.raises(ValueError, match="eta_bounds low 0.9 above high 0.1"):
            DplConfig(eta_bounds=(0.9, 0.1))
        assert DplConfig(eta_bounds=(0.5, 0.5)).eta_bounds == (0.5, 0.5)

    def test_immediate_convergence_keeps_eta_init(self):
        # beta(0.8) = 1.0; target hit with zero adjustments
        scores = np.array([[0.9, 0.3], [0.81, 0.79]])
        report = dynamic_threshold_search(scores, DplConfig(), mu_t=1.0)
        assert report.converged
        assert report.iterations == 0
        assert report.final_eta == 0.8

    def test_zero_target_drives_beta_to_zero(self):
        # two qualifying cells per image, all at 0.805: one step past them
        # drops beta from 2.0 straight to 0
        scores = np.full((30, 4), 0.1)
        scores[:, :2] = 0.805
        report = dynamic_threshold_search(scores, DplConfig(), mu_t=0.0)
        assert report.converged
        assert report.beta == 0.0
        assert report.final_eta == pytest.approx(0.81)

    def test_zero_target_stops_within_tolerance(self):
        # the walk stops as soon as |beta - mu| <= 1e-1, which for a dense
        # score spread can be a small nonzero beta
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.0, 0.97, size=(30, 4))
        report = dynamic_threshold_search(scores, DplConfig(), mu_t=0.0)
        assert report.converged
        assert 0.0 <= report.beta <= 0.1

    def test_matches_grid_oracle_feasibility(self):
        cfg = DplConfig()
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=(200, 5))
        report = dynamic_threshold_search(scores, cfg, mu_t=1.2)
        _, best_gap, feasible = dpl_grid_oracle(scores, 1.2, cfg.tolerance)
        assert feasible
        assert report.converged
        assert abs(report.beta - 1.2) <= cfg.tolerance
        # the walk stays on the same 1e-2 grid the oracle scans
        assert abs(report.final_eta * 100 - round(report.final_eta * 100)) < 1e-9

    def test_feasibility_matches_oracle_on_many_random_instances(self):
        cfg = DplConfig()
        rng = np.random.default_rng(3)
        for trial in range(100):
            m = int(rng.integers(1, 40))
            k = int(rng.integers(1, 6))
            scores = rng.uniform(size=(m, k))
            mu_t = float(rng.uniform(0, k))
            report = dynamic_threshold_search(scores, cfg, mu_t)
            _, best_gap, feasible = dpl_grid_oracle(scores, mu_t, cfg.tolerance)
            if feasible:
                assert report.converged, f"trial {trial}: oracle feasible but search failed"
                assert abs(report.beta - mu_t) <= cfg.tolerance
            if report.converged:
                assert abs(report.beta - mu_t) <= cfg.tolerance

    def test_nonconvergent_returns_best_seen(self):
        # one image, one class at 0.5: beta jumps 0 <-> 1, target 0.5 unreachable
        scores = np.array([[0.5]])
        report = dynamic_threshold_search(scores, DplConfig(), mu_t=0.5)
        assert not report.converged
        assert report.iterations <= DplConfig().max_iters
        assert abs(report.beta - 0.5) == 0.5  # best achievable gap

    def test_termination_within_max_iters(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = rng.uniform(size=(rng.integers(1, 30), rng.integers(1, 5)))
            report = dynamic_threshold_search(scores, DplConfig(), float(rng.uniform(0, 3)))
            assert report.iterations <= 500

    def test_beta_monotone_non_increasing_in_eta(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.uniform(size=(25, 4))
            betas = [
                pseudo_count_oracle(scores, cents / 100.0) for cents in range(1, 100)
            ]
            assert all(b1 >= b2 for b1, b2 in zip(betas, betas[1:]))
            # the library thresholder agrees with the counting oracle
            lib = [generate_pseudo_labels(scores, c / 100.0).sum() / 25 for c in range(1, 100)]
            assert lib == betas

    @pytest.mark.parametrize("score, steps, eta", [(0.565, 24, 0.56), (0.715, 9, 0.71)])
    def test_threshold_is_exact_grid_point(self, score, steps, eta):
        # summed float steps read 0.5599999999999998; 0.8 - 9 * 0.01 is 0.7100000000000001
        report = dynamic_threshold_search(np.array([[score]]), DplConfig(), mu_t=1.0)
        assert report.converged
        assert report.iterations == steps
        assert report.final_eta == eta

    def test_walk_down_and_back_up_reports_exact_threshold(self):
        # beta flips 0 <-> 1 between eta 0.51 and 0.50: the walk goes down to
        # k = -30 and stops there instead of stepping back up
        cfg = DplConfig()
        report = dynamic_threshold_search(np.array([[0.5]]), cfg, mu_t=0.6)
        assert not report.converged
        assert report.iterations == 30
        assert report.final_eta == 0.5 == round(cfg.eta_init + (-30) * cfg.eta_step, 12)
        assert report.beta == 1.0

    def test_report_fields_are_python_scalars(self):
        report = dynamic_threshold_search(np.array([[0.9, 0.3], [0.81, 0.79]]), DplConfig(), 1.0)
        assert type(report.final_eta) is float and type(report.beta) is float
        assert type(report.iterations) is int and type(report.converged) is bool

    def test_matches_set_rebuilding_walk_oracle(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for trial in range(150):
            m = int(rng.integers(1, 25))
            k = int(rng.integers(1, 6))
            scores = rng.uniform(size=(m, k))
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # coarse scores: beta jumps, walks oscillate
            exclude = [set(np.flatnonzero(rng.uniform(size=k) < 0.3).tolist()) for _ in range(m)]
            exclude[0].add(int(rng.integers(k)))
            cfg = DplConfig(
                eta_init=float(rng.choice([0.8, 0.55, 0.33])),
                eta_step=float(rng.choice([1e-2, 7e-2])),
                tolerance=float(rng.choice([1e-1, 1e-2])),
                eta_bounds=[(0.01, 0.99), (0.2, 0.9)][trial % 2],
                max_iters=int(rng.choice([40, 500])),
            )
            mu_t = float(rng.uniform(0, k + 1))
            report = dynamic_threshold_search(scores, cfg, mu_t, exclude=mask_of(exclude, k))
            eta, beta, iterations, converged, sets, visited = dpl_walk_oracle(
                scores, cfg, mu_t, exclude
            )
            got = (report.final_eta, report.beta, report.converged)
            assert got == (eta, beta, converged), f"trial {trial}"
            assert sets_of(report.labels) == sets, f"trial {trial}"
            # the walk stops one step before the oracle first revisits a threshold
            revisit = next((j for j in range(len(visited)) if visited[j] in visited[:j]), None)
            assert report.iterations <= iterations, f"trial {trial}"
            want = iterations if revisit is None else revisit - 1
            assert report.iterations == want, f"trial {trial}"
            if converged:
                outcomes.add("converged")
            elif iterations == cfg.max_iters:
                outcomes.add("cap")
            else:
                outcomes.add("bound")
        assert outcomes == {"converged", "cap", "bound"}

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        k=st.integers(1, 6),
        etas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        coarse=st.booleans(),
        with_exclude=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_labels_per_image_never_increase_as_eta_rises(
        self, m, k, etas, coarse, with_exclude, seed
    ):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(m, k))
        if coarse:
            scores = np.round(scores, 1)  # ties: many scores sit exactly on a threshold
        exclude = rng.uniform(size=(m, k)) < 0.3 if with_exclude else None
        counts = [generate_pseudo_labels(scores, eta, exclude).sum(axis=1) for eta in sorted(etas)]
        for low, high in zip(counts, counts[1:]):
            assert all(a >= b for a, b in zip(low, high))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 12),
        k=st.integers(1, 5),
        eta_init=st.floats(0.01, 0.99),
        eta_step=st.sampled_from([1e-2, 3e-2, 0.25]),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        mu_t=st.floats(0.0, 6.0),
        max_iters=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_final_eta_stays_within_the_bounds(
        self, m, k, eta_init, eta_step, bounds, mu_t, max_iters, seed
    ):
        scores = np.random.default_rng(seed).uniform(size=(m, k))
        cfg = DplConfig(
            eta_init=eta_init, eta_step=eta_step, eta_bounds=tuple(bounds), max_iters=max_iters
        )
        report = dynamic_threshold_search(scores, cfg, mu_t)
        assert bounds[0] <= report.final_eta <= bounds[1]

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 15),
        k=st.integers(1, 6),
        coarse=st.booleans(),
        share=st.sampled_from([0.0, 0.3, 0.8]),
        eta_init=st.sampled_from([0.8, 0.55, 0.33]),
        eta_step=st.sampled_from([1e-2, 7e-2]),
        mu_t=st.floats(0.0, 7.0),
        seed=st.integers(0, 2**16),
    )
    def test_mask_walk_matches_the_set_walk_oracle(
        self, m, k, coarse, share, eta_init, eta_step, mu_t, seed
    ):
        # the oracle takes the same exclusions as per-image sets of columns
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=(m, k))
        if coarse:
            scores = np.round(scores, 1)
        exclude = rng.uniform(size=(m, k)) < share
        cfg = DplConfig(eta_init=eta_init, eta_step=eta_step, max_iters=60)
        report = dynamic_threshold_search(scores, cfg, mu_t, exclude=exclude)
        eta, beta, _, converged, sets, _ = dpl_walk_oracle(scores, cfg, mu_t, sets_of(exclude))
        assert (report.final_eta, report.beta, report.converged) == (eta, beta, converged)
        assert report.labels.shape == (m, k) and sets_of(report.labels) == sets
        assert not (report.labels & exclude).any()

    def test_determinism(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(size=(50, 3))
        a = dynamic_threshold_search(scores, DplConfig(), mu_t=0.7)
        b = dynamic_threshold_search(scores, DplConfig(), mu_t=0.7)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.labels, b.labels)


class TestRunDpl:
    # two old classes of four, mu 2: a target of one pseudo label per image
    CONFIG = DplConfig(mu=2.0)

    def test_no_score_at_the_floor_restores_nothing(self):
        exclude = np.array([[False, True], [False, False]])
        report = run_dpl(np.zeros((2, 2)), exclude, 4, self.CONFIG)
        assert not report.labels.any()
        assert not report.converged and report.beta == 0.0

    def test_mu_t_scales_with_the_score_columns(self):
        report = run_dpl(np.array([[0.95, 0.1]]), np.zeros((1, 2), dtype=bool), 4, self.CONFIG)
        assert report.converged and report.mu_t == 1.0
        assert report.labels.tolist() == [[True, False]]

    def test_known_labels_are_never_pseudo_labels(self):
        report = run_dpl(np.array([[0.95, 0.9]]), np.array([[True, False]]), 4, self.CONFIG)
        assert report.converged
        assert report.labels.tolist() == [[False, True]]

    def test_the_walk_is_looked_up_in_protocol(self, monkeypatch):
        # the benchmark's tracer wraps `krt.protocol.dynamic_threshold_search`
        calls = []

        def recording_walk(*args, **kwargs):
            calls.append(args)
            return dynamic_threshold_search(*args, **kwargs)

        monkeypatch.setattr(protocol, "dynamic_threshold_search", recording_walk)
        run_dpl(np.array([[0.95, 0.1]]), np.zeros((1, 2), dtype=bool), 4, self.CONFIG)
        assert len(calls) == 1
