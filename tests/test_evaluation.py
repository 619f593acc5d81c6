import itertools

import numpy as np
import pytest

from subspace_bandits.domain import DomainSpec, projector_from_basis, top_k_projector
from subspace_bandits.errors import DimMismatch, InvalidMatrix, MissingBasis
from subspace_bandits.evaluation import (
    excess_loss,
    identified_fraction,
    loss,
)
from subspace_bandits.oracles import (
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    exact_moments,
    make_finite_support,
)
from subspace_bandits.seeding import make_rng

from util import random_projector


def coordinate_projector(d, coords):
    m = np.zeros((d, d))
    for c in coords:
        m[c, c] = 1.0
    return projector_from_basis(np.eye(d)[:, list(coords)])


def optimum(mom, k):
    """The top-k projector of C and its loss, the optimum over all rank-k projectors."""
    pi = top_k_projector(mom.C, k)
    return pi, excess_loss(pi, mom, k).optimal_loss


class TestLoss:
    def setup_method(self):
        self.mom = exact_moments(dyadic_fixture(3, s=0, eps=0.1, c=4.0))

    def test_aligned_projector_has_zero_loss(self):
        assert loss(coordinate_projector(3, [0]), self.mom) == pytest.approx(0.0)

    def test_orthogonal_projector_pays_spike_mass(self):
        assert loss(coordinate_projector(3, [1]), self.mom) == pytest.approx(0.4)

    def test_matches_direct_definition(self):
        # loss identity vs the defining sum of squared distances
        rng = make_rng(1)
        spec = DomainSpec(d=4, k=2, r=2, G=1.0)
        pts = []
        for _ in range(5):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x) * 1.01
            pts.append(x)
        probs = rng.random(5)
        probs /= probs.sum()
        dist = make_finite_support(list(zip(pts, probs)), spec)
        mom = exact_moments(dist)
        for _ in range(20):
            pi = random_projector(rng, 4, 2)
            direct = sum(
                p * float(np.sum((x - pi.matrix @ x) ** 2)) for x, p in zip(pts, probs)
            )
            assert abs(loss(pi, mom) - direct) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loss(coordinate_projector(4, [0]), self.mom)


class TestOptimalProjection:
    def test_point_mass(self):
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        dist = make_finite_support([(np.eye(3)[0], 1.0)], spec)
        pi, best = optimum(exact_moments(dist), 1)
        assert np.array_equal(pi.matrix, np.diag([1.0, 0.0, 0.0]))
        assert best == pytest.approx(0.0)

    def test_impossibility_fixture_direction(self):
        from subspace_bandits.oracles import impossibility_fixture

        dist = impossibility_fixture(4, 1.0, s=2)
        u = dist.points[0]
        pi, best = optimum(exact_moments(dist), 1)
        expected = np.outer(u, u) / float(u @ u)
        assert np.max(np.abs(pi.matrix - expected)) <= 1e-9
        assert best == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_over_coordinate_projectors(self):
        # for a diagonal C the optimum lies on a coordinate subset
        mom = exact_moments(dyadic_fixture(5, s=2, eps=0.2, c=4.0))
        for k in (1, 2):
            _, best = optimum(mom, k)
            brute = min(
                loss(coordinate_projector(5, sub), mom)
                for sub in itertools.combinations(range(5), k)
            )
            assert best == pytest.approx(brute, abs=1e-12)

    def test_no_random_projector_beats_optimum(self):
        rng = make_rng(2)
        mom = exact_moments(dyadic_fixture(5, s=1, eps=0.2, c=4.0))
        _, best = optimum(mom, 2)
        for _ in range(1000):
            pi = random_projector(rng, 5, 2)
            assert loss(pi, mom) >= best - 1e-9


class TestExcessLoss:
    def test_optimal_has_zero_excess(self):
        mom = exact_moments(dyadic_fixture(4, s=1, eps=0.2, c=4.0))
        pi, _ = optimum(mom, 1)
        report = excess_loss(pi, mom, 1)
        assert report.excess == 0.0

    def test_projector_beating_the_optimum_is_inconsistent(self):
        # a rank-2 projector scored as rank 1: loss 0 below the optimal 0.5
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        mom = exact_moments(make_finite_support([(np.eye(3)[0], 0.5), (np.eye(3)[1], 0.5)], spec))
        with pytest.raises(InvalidMatrix, match="inconsistent"):
            excess_loss(coordinate_projector(3, [0, 1]), mom, 1)

    def test_missing_the_spike_pays_its_mass(self):
        mom = exact_moments(dyadic_fixture(4, s=1, eps=0.2, c=4.0))
        report = excess_loss(coordinate_projector(4, [2]), mom, 1)
        assert report.excess == pytest.approx(0.8)

    def test_excess_nonnegative_for_random_projectors(self):
        rng = make_rng(3)
        mom = exact_moments(dyadic_fixture(5, s=0, eps=0.25, c=4.0))
        for _ in range(300):
            pi = random_projector(rng, 5, 2)
            assert excess_loss(pi, mom, 2).excess >= 0.0

    def test_second_call_runs_no_eigh(self, linalg_calls):
        # C's eigensystem is computed once per Moments, not once per call.
        mom = exact_moments(dyadic_fixture(6, s=2, eps=0.25, c=4.0))
        pi = random_projector(make_rng(21), 6, 2)
        first = excess_loss(pi, mom, 2)
        linalg_calls.clear()
        assert excess_loss(pi, mom, 2) == first
        assert linalg_calls == []


class TestIdentifiedFraction:
    def make_fixture(self, signs, d=6, k=2, G=1.0, alpha=0.5):
        return coin_fixture(d, k, G, alpha, signs, default_coin_basis(d, k, G))

    def test_perfect_identification(self):
        fixture = self.make_fixture([1.0, -1.0])
        u = fixture.points  # the coin directions
        favored = np.stack([u[0], u[3]])  # +1 coin 0, -1 coin 1
        pi = projector_from_basis(favored.T / np.linalg.norm(favored, axis=1))
        report = identified_fraction(pi, fixture)
        assert report.beta == 1.0
        assert report.identified == frozenset({0, 1})

    def test_disfavored_projector_scores_zero(self):
        fixture = self.make_fixture([1.0, -1.0])
        u = fixture.points
        disfavored = np.stack([u[2], u[1]])
        pi = projector_from_basis(disfavored.T / np.linalg.norm(disfavored, axis=1))
        assert identified_fraction(pi, fixture).beta == 0.0

    def test_equal_mass_on_both_sides_identifies_no_coin(self):
        # a projector orthogonal to every direction puts theta = 0 on both sides
        fixture = self.make_fixture([1.0, -1.0])
        report = identified_fraction(projector_from_basis(np.eye(6)[:, 4:]), fixture)
        assert np.array_equal(report.theta, np.zeros(4))
        assert report.beta == 0.0 and report.identified == frozenset()

    def test_optimal_projector_identifies_everything(self):
        fixture = self.make_fixture([1.0, 1.0])
        pi, _ = optimum(exact_moments(fixture), 2)
        assert identified_fraction(pi, fixture).beta == 1.0

    def test_theta_within_bounds(self):
        rng = make_rng(4)
        fixture = self.make_fixture([1.0, -1.0])
        for _ in range(50):
            pi = random_projector(rng, 6, 2)
            report = identified_fraction(pi, fixture)
            assert np.all(report.theta >= 0) and np.all(report.theta <= 2 + 1e-12)

    def test_excess_vs_unidentified_mass_logged(self):
        # exploratory: excess >= alpha G (1 - beta) / 2 holds near the optimum
        # but may fail for far-away projectors; log the failure rate only
        rng = make_rng(5)
        alpha, G = 0.5, 1.0
        fixture = self.make_fixture([1.0, 1.0], alpha=alpha, G=G)
        mom = exact_moments(fixture)
        violations = 0
        for _ in range(200):
            pi = random_projector(rng, 6, 2)
            report = identified_fraction(pi, fixture)
            gap = excess_loss(pi, mom, 2).excess - alpha * G * (1 - report.beta) / 2
            violations += gap < -1e-9
        print(f"excess-vs-beta bound violations on random projectors: {violations}/200")

    def test_missing_coin_structure(self):
        rng = make_rng(6)
        with pytest.raises(MissingBasis):
            identified_fraction(
                random_projector(rng, 4, 1), dyadic_fixture(4, s=0, eps=0.1, c=4.0)
            )
