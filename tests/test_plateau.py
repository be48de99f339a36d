"""Blow-up cones, 120-degree junctions, Plateau certification, classification."""

import json
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from bubblelab import (BlowUpCone, blowup_at, certify_plateau,
                       classify_q3, conformal_step, detect_interfaces,
                       equal_volume_standard, pcf_detect, perpendicular_pole,
                       plateau_at, standard_of_curvature, triple_point_angles,
                       validate_spherical)
from bubblelab import gallery
from bubblelab.cluster import (DEFAULT_TIE_TOL, RANK_CUTOFF, classify_point, complete_graph,
                               recentered, stratum_points)
from bubblelab.measure import extract_arcs
from bubblelab.plateau import boundary_normal_sum
from bubblelab.simplex import sum_zero_projector
from reference import (SINGULAR_TIE_TOL, per_point_certificate, random_orthogonal, rotated,
                       sampled_stratum_points, subsphere_points)


class TestBlowupAt:
    def test_interior_point(self, equal_bubble_s2):
        # center of a lune: only one cell, rank 0
        direction = -equal_bubble_s2.quasi_centers[0]
        direction /= np.linalg.norm(direction)
        cone = blowup_at(equal_bubble_s2, direction)
        assert len(cone.incidence) == 1
        assert cone.affine_rank == 0

    def test_interface_point_unit_normal(self, skew_bubble_s2, skew_bubble_graph):
        for (i, j), w in skew_bubble_graph.witnesses.items():
            cone = blowup_at(skew_bubble_s2, w)
            assert cone.incidence.tolist() == [i, j]
            assert cone.affine_rank == 1
            # |n_i - n_j| = 1 from the compatibility constraint on the wall
            diff = cone.centered_normals[0] - cone.centered_normals[1]
            assert abs(np.linalg.norm(diff) - 1.0) < 1e-9

    def test_triple_point_geometry(self, equal_bubble_s2):
        cone = blowup_at(equal_bubble_s2, np.array([0.0, 0.0, 1.0]))
        assert len(cone.incidence) == 3
        assert cone.affine_rank == 2
        assert np.max(np.abs(cone.centered_normals.sum(axis=0))) < 1e-12
        gram = cone.centered_normals @ cone.centered_normals.T
        # regular unit-simplex pattern: 1/3 on the diagonal, -1/6 off it
        assert np.max(np.abs(gram - (np.eye(3) / 2 - 1 / 6))) < 1e-9
        expected = 0.5 * sum_zero_projector(3)
        assert np.max(np.abs(gram - expected)) < 1e-9

    def test_normals_tangent_to_sphere(self, skew_bubble_s2):
        p = np.array([0.0, 0.0, 1.0])
        cone = blowup_at(skew_bubble_s2, p, tie_tol=1.0)  # force all cells in
        assert np.max(np.abs(cone.centered_normals @ p)) < 1e-12


class TestPlateauAt:
    def test_triple_point_true(self, equal_bubble_s2):
        cone = blowup_at(equal_bubble_s2, np.array([0.0, 0.0, 1.0]))
        diag = plateau_at(cone)
        assert diag.is_plateau
        assert diag.gram_residual < 1e-9

    def test_interface_point_always_true(self, skew_bubble_s2, skew_bubble_graph):
        (i, j), w = next(iter(skew_bubble_graph.witnesses.items()))
        assert plateau_at(blowup_at(skew_bubble_s2, w)).is_plateau

    def test_cross_junction_false(self):
        cross = gallery.cross_junction(2)
        pole = np.array([0.0, 0.0, 1.0])
        cone = blowup_at(cross, pole, tie_tol=1e-7)
        assert len(cone.incidence) == 4
        diag = plateau_at(cone)
        assert not diag.is_plateau
        assert cone.affine_rank == 2

    def test_rotation_invariance(self, equal_bubble_s2):
        rot = random_orthogonal(3, np.random.default_rng(9))
        turned = rotated(equal_bubble_s2, rot)
        p = rot @ np.array([0.0, 0.0, 1.0])
        diag = plateau_at(blowup_at(turned, p / np.linalg.norm(p)))
        assert diag.is_plateau
        assert diag.gram_residual < 1e-9


class TestTripleAngles:
    def test_equal_bubble_120(self, equal_bubble_s2):
        angles = triple_point_angles(equal_bubble_s2, [0.0, 0.0, 1.0])
        assert np.max(np.abs(angles - 120.0)) < 1e-9
        assert boundary_normal_sum(equal_bubble_s2, [0.0, 0.0, 1.0]) < 1e-12

    def test_general_bubble_120(self, skew_bubble_s2, skew_bubble_graph):
        cert = certify_plateau(skew_bubble_s2, skew_bubble_graph)
        triples = [e for e in cert.junction_points if len(e["incidence"]) == 3]
        assert triples
        for entry in triples:
            angles = triple_point_angles(skew_bubble_s2, entry["point"],
                                         tie_tol=1e-7)
            assert np.max(np.abs(angles - 120.0)) < 1e-6
            assert boundary_normal_sum(skew_bubble_s2, entry["point"],
                                       tie_tol=1e-7) < 1e-9

    def test_rejects_non_triple(self, equal_bubble_s2):
        direction = -equal_bubble_s2.quasi_centers[0]
        with pytest.raises(ValueError):
            triple_point_angles(equal_bubble_s2,
                                direction / np.linalg.norm(direction))


class TestCertifyPlateau:
    def test_standard_bubbles_fully_plateau(self):
        for n, q, scale in ((2, 3, 0.0), (2, 3, 0.4), (2, 4, 0.25)):
            rng = np.random.default_rng(q * 17)
            kappa = scale * rng.standard_normal(q)
            params = standard_of_curvature(n, q, kappa - kappa.mean())
            graph = detect_interfaces(params)
            cert = certify_plateau(params, graph)
            assert cert.fully_plateau
            assert cert.plateau_up_to == min(n, q - 1)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n + 2))),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_standard_strata_are_the_subsets_up_to_n_plus_one(self, shape, seed, scale):
        # every set of at most n + 1 cells of a standard bubble meets in a
        # stratum of its own, and no larger set does
        n, q = shape
        kappa = scale * np.random.default_rng(seed).standard_normal(q)
        params = standard_of_curvature(n, q, kappa - kappa.mean())
        graph = detect_interfaces(params)
        cert = certify_plateau(params, graph)
        want = {cells for order in range(2, min(q, n + 1) + 1)
                for cells in combinations(range(q), order)}
        strata = set(graph.pairs()) | {tuple(e["incidence"]) for e in cert.junction_points}
        assert strata == want
        assert cert.points_examined == len(want)
        assert cert.fully_plateau and not cert.failures

    def test_cross_junction_counterexample(self):
        cross = gallery.cross_junction(2)
        graph = detect_interfaces(cross)
        cert = certify_plateau(cross, graph)
        assert not cert.fully_plateau
        assert cert.plateau_up_to < 2
        # the four cells meet at the two poles, and no three of them meet
        # without the fourth: within the tie tolerance a least-squares trace
        # of three cells' ties beside the fourth's margin reaches the poles,
        # but not with the three cells' ties exact
        assert [f["incidence"] for f in cert.failures] == [[0, 1, 2, 3]] * 2
        for cells in combinations(range(4), 3):
            assert stratum_points(cross, cells, DEFAULT_TIE_TOL).shape == (0, 3)

    def test_five_cell_failures_are_its_degenerate_strata(self):
        params = gallery.five_cell_meeting_point()
        cert = certify_plateau(params, detect_interfaces(params))
        assert {tuple(f["incidence"]) for f in cert.failures} == {(0, 1, 2), (0, 1, 2, 3, 4)}

    def test_two_cells_vacuous(self):
        params = equal_volume_standard(3, 2)
        graph = detect_interfaces(params)
        cert = certify_plateau(params, graph)
        assert cert.fully_plateau
        assert cert.multi_points_found == 0  # only interface points exist

    def test_band_cluster_vacuously_plateau(self, band_cluster, band_graph):
        cert = certify_plateau(band_cluster, band_graph)
        assert cert.fully_plateau
        assert cert.multi_points_found == 0

    def test_reads_neither_budget_nor_seed(self, skew_bubble_s2, skew_bubble_graph):
        # both remain in the signature only for the benchmark's calls
        want = _plain(certify_plateau(skew_bubble_s2, skew_bubble_graph))
        for budget, seed in ((0, 0), (-5, 3), (400, 91)):
            got = certify_plateau(skew_bubble_s2, skew_bubble_graph,
                                  sample_budget=budget, seed=seed)
            assert _plain(got) == want

    def test_planted_junction_that_sampling_misses_fails(self):
        # the cross on S^3 plus a spherical fifth cell that covers all but an
        # arc of about 2e-3 of the circle where the four cross cells tie: at
        # budget 400 no sample lands on the arc, and the exact search finds
        # the arc's two points and fails them (rank 2, not 3)
        cross = gallery.cross_junction(3)
        mu = 100.0
        params = recentered(3, np.vstack([cross.quasi_centers, [0.0, 0.0, -mu, 0.0]]),
                            np.append(cross.curvatures, -np.sqrt(mu * mu - 0.5)))
        graph = detect_interfaces(params)
        assert validate_spherical(params, graph).passed
        ref = per_point_certificate(params, graph, sample_budget=400, seed=0)
        assert [0, 1, 2, 3] not in [e["incidence"] for e in ref.junction_points]
        cert = certify_plateau(params, graph)
        arc = [f for f in cert.failures if f["incidence"] == [0, 1, 2, 3]]
        assert len(arc) == 2 and all(f["affine_rank"] == 2 for f in arc)
        for f in arc:
            values = params.affine_values(f["point"])
            assert np.ptp(values[:4]) <= 1e-13 and values[4] > values[:4].min() + DEFAULT_TIE_TOL


def _random_standard(n, q, seed):
    kappa = 0.3 * np.random.default_rng(seed).standard_normal(q)
    return standard_of_curvature(n, q, kappa - kappa.mean())


# a standard bubble with its quasi-centers scaled off the compatibility constraint
_STRETCHED = _random_standard(2, 4, 7)
_STRETCHED = recentered(2, 1.02 * _STRETCHED.quasi_centers, _STRETCHED.curvatures)


def _cone_over(params, cells, p):
    """blowup_at at p with its incidence set to the given cells."""
    incidence = np.array(cells)
    proj = params.quasi_centers[incidence] - np.outer(params.quasi_centers[incidence] @ p, p)
    centered = proj - proj.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    rank = int(np.sum(svals > RANK_CUTOFF * (svals[0] if svals[0] > 0 else 1.0)))
    return BlowUpCone(p, incidence, centered, rank)


class TestExactCertificate:
    """certify_plateau takes each stratum's verdict from the closed-form Gram
    matrix; blowup_at and plateau_at take it from the normals at a point."""

    @pytest.mark.parametrize("params", [
        gallery.cross_junction(2), gallery.sectored_cap(4, 0.8),
        gallery.band_stack(4, (-0.5, 0.1, 0.55)), gallery.five_cell_meeting_point(),
        _random_standard(2, 3, 1), _random_standard(2, 4, 2), _random_standard(3, 4, 3),
        _random_standard(3, 5, 4), _STRETCHED],
        ids=["cross", "cap", "bands", "five", "s2q3", "s2q4", "s3q4", "s3q5", "stretched"])
    def test_entries_equal_per_point_cones(self, params):
        graph = detect_interfaces(params)
        cert = certify_plateau(params, graph)
        entries = cert.failures + cert.junction_points + cert.worst_points
        assert len(cert.junction_points) == cert.multi_points_found
        assert all(len(e["incidence"]) >= 3 for e in cert.junction_points)
        for entry in entries:
            p = entry["point"]
            assert abs(p @ p - 1.0) <= 1e-15
            values = params.affine_values(p)
            cells = entry["incidence"]
            others = np.delete(values, cells)
            # the witness lies in its stratum at DEFAULT_TIE_TOL
            assert np.ptp(values[cells]) <= 2 * DEFAULT_TIE_TOL
            assert others.size == 0 or others.min() > values[cells].min() + DEFAULT_TIE_TOL
            cone = _cone_over(params, cells, p)
            diag = plateau_at(cone)
            assert (entry["affine_rank"], entry["is_plateau"]) == (cone.affine_rank,
                                                                   diag.is_plateau)
            assert abs(entry["gram_residual"] - diag.gram_residual) <= 1e-8
            if np.ptp(values[cells]) <= 1e-14:  # an exact tie: rounding apart
                assert abs(entry["gram_residual"] - diag.gram_residual) <= 1e-13
        assert [e["is_plateau"] for e in cert.worst_points] == sorted(
            e["is_plateau"] for e in cert.worst_points)

    def test_stretched_cluster_fails_at_two_cell_points(self):
        graph = detect_interfaces(_STRETCHED)
        cert = certify_plateau(_STRETCHED, graph)
        two_cell = [f for f in cert.failures if len(f["incidence"]) == 2]
        assert two_cell and all(f["affine_rank"] == 1 for f in two_cell)
        assert cert.plateau_up_to == 0 and not cert.fully_plateau


def _plain(cert) -> str:
    return json.dumps(asdict(cert), default=lambda a: a.tolist())


_TRIPLE_CASES = {3: [(0.0, 0.0, 0.0), (0.3, -0.1, -0.2)],
                 4: [(0.0, 0.0, 0.0, 0.0), (0.2, -0.1, 0.05, -0.15)]}


class TestStratumFrames:
    @pytest.mark.parametrize("q", [3, 4])
    def test_triple_points_are_arc_endpoints(self, q):
        # the fixed curvature vectors, then 60 seeded ones
        rng = np.random.default_rng(4000 + q)
        kappas = [np.array(k) for k in _TRIPLE_CASES[q]]
        kappas += [k - k.mean() for k in 0.4 * rng.standard_normal((60, q))]
        for kappa in kappas:
            params = standard_of_curvature(2, q, kappa)
            graph = detect_interfaces(params)
            cert = certify_plateau(params, graph)
            triples = np.array([e["point"] for e in cert.junction_points
                                if len(e["incidence"]) == 3])
            ends = np.array([p for arc in extract_arcs(params, graph) if not arc.full_circle
                             for p in arc.point(np.array([arc.t0, arc.t1]))])
            meets = np.array([p for p in ends
                              if len(classify_point(params, p, SINGULAR_TIE_TOL)) == 3])
            assert len(triples) == 2 * (q - 2) == cert.multi_points_found, kappa
            assert len(meets) == len(ends)
            dist = np.linalg.norm(triples[:, None, :] - meets[None, :, :], axis=2)
            assert dist.min(axis=1).max() < 1e-12  # every triple point is an endpoint
            assert dist.min(axis=0).max() < 1e-12  # every endpoint is found
            assert _plain(certify_plateau(params, graph)) == _plain(cert)

    def test_cross_pole_from_rank_deficient_ties(self):
        cross = gallery.cross_junction(2)
        rows = cross.quasi_centers[1:] - cross.quasi_centers[0]
        assert np.linalg.matrix_rank(rows) == 2
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        assert np.array_equal(sampled_stratum_points(cross, (0, 1, 2, 3), 1, 0, 50), poles)
        assert np.array_equal(stratum_points(cross, (0, 1, 2, 3), DEFAULT_TIE_TOL), poles)
        graph = detect_interfaces(cross)
        cert = certify_plateau(cross, graph)
        found = [f["point"] for f in cert.failures if len(f["incidence"]) == 4]
        assert len(found) == 2
        assert all(np.min(np.abs(poles - p).max(axis=1)) == 0.0 for p in found)
        again = certify_plateau(cross, graph)
        assert _plain(again) == _plain(cert)

    def test_empty_tie_sets_yield_nothing(self, band_cluster):
        # parallel walls: every triple and quadruple of bands has no common tie
        for index, cells in enumerate([(0, 1, 2), (1, 2, 3), (0, 1, 2, 3)]):
            assert sampled_stratum_points(band_cluster, cells, 0, index, 5).shape == (0, 5)
            assert stratum_points(band_cluster, cells, DEFAULT_TIE_TOL) is None
        # a wall hyperplane at distance 4 from the origin misses S^2
        far = recentered(2, [[0.0, 0.0, 0.25], [0.0, 0.0, -0.25]], [1.0, -1.0])
        assert sampled_stratum_points(far, (0, 1), 0, 0, 5).shape == (0, 3)
        assert stratum_points(far, (0, 1), DEFAULT_TIE_TOL) is None
        cert = certify_plateau(far, complete_graph(2))
        assert cert.points_examined == 0 and cert.fully_plateau

    @pytest.mark.parametrize("params", [gallery.cross_junction(2), gallery.sectored_cap(4, 0.8)],
                             ids=["cross", "cap"])
    def test_incidence_filter_matches_classify_point(self, params):
        # reference: the stratum points kept one by one by classify_point
        graph = detect_interfaces(params)
        cert = per_point_certificate(params, graph, sample_budget=300, seed=2)
        subsets = [cells for order in range(2, min(params.q, params.n + 2) + 1)
                   for cells in combinations(range(params.q), order)
                   if order > 2 or graph.nonempty[cells]]
        per_subset = max(3, 300 // len(subsets))
        kept = {tuple(np.round(w, 6)) for w in graph.witnesses.values()}
        for index, cells in enumerate(subsets):
            for p in sampled_stratum_points(params, cells, 2, index, per_subset):
                if set(cells) <= set(classify_point(params, p, SINGULAR_TIE_TOL).tolist()):
                    kept.add(tuple(np.round(p, 6)))
        assert cert.points_examined == len(kept)


class TestStratumDraws:
    @pytest.mark.parametrize("params", [gallery.sectored_cap(4, 0.8),
                                        standard_of_curvature(3, 4, [0.2, -0.1, 0.05, -0.15])],
                             ids=["cap", "s3"])
    def test_certificate_equals_fresh_reference_draws(self, params, monkeypatch):
        graph = detect_interfaces(params)
        certs = [per_point_certificate(params, graph, sample_budget=300, seed=s)
                 for s in (8101, 8102)]
        # reference: the same strata drawn by the broadcast formula
        monkeypatch.setattr(reference, "subsphere_sample", subsphere_points)
        for seed, cert in zip((8101, 8102), certs):
            assert _plain(per_point_certificate(params, graph, sample_budget=300, seed=seed)) \
                == _plain(cert)


def _oracle_clusters(family: str):
    """(name, cluster): the gallery, or 200 seeded random standard bubbles
    (n = 2..5, q = 3..n + 2), or 200 seeded random affine clusters."""
    if family == "gallery":
        yield from (("cross-2", gallery.cross_junction(2)), ("cross-3", gallery.cross_junction(3)),
                    ("cap", gallery.sectored_cap(4, 0.8)), ("cushion", gallery.affine_cushion()),
                    ("bands", gallery.band_stack(4, (-0.5, 0.1, 0.55))),
                    ("five-cell", gallery.five_cell_meeting_point()))
        return
    for seed in range(200):
        rng = np.random.default_rng((7100 if family == "standard" else 7300) + seed)
        n = int(rng.integers(2, 6))
        if family == "standard":
            q = int(rng.integers(3, n + 3))
            kappa = 0.4 * rng.standard_normal(q)
            yield f"standard-{seed}", standard_of_curvature(n, q, kappa - kappa.mean())
        else:
            q = int(rng.integers(3, n + 4))
            c = rng.uniform(0.3, 1.5) * rng.standard_normal((q, n + 1))
            yield f"affine-{seed}", recentered(n, c, rng.uniform(0.0, 1.0) * rng.standard_normal(q))


class TestSampledOracle:
    """The sampled certificate that certify_plateau replaced
    (reference.per_point_certificate, budget 400) against the exact one."""

    @pytest.mark.parametrize("family", ["gallery", "standard", "affine"])
    def test_verdicts_agree_and_sampled_junctions_are_strata(self, family):
        for name, params in _oracle_clusters(family):
            graph = detect_interfaces(params)
            cert = certify_plateau(params, graph)
            ref = per_point_certificate(params, graph, sample_budget=400, seed=0)
            for entry in ref.junction_points + ref.failures + ref.worst_points:
                cells = tuple(entry["incidence"])
                if len(cells) == 2:
                    assert graph.nonempty[cells], (name, cells)
                else:
                    points = stratum_points(params, cells, DEFAULT_TIE_TOL)
                    assert points is not None and len(points), (name, cells)
            if name == "five-cell":
                # next to the degenerate point the tie line of (0, 1, 2) is
                # tangent to S^2, so within the incidence tolerance points
                # exist where exactly (0, 1, 2) are incident; the exact search
                # finds them (rank 1), and no sample lands there
                assert (cert.plateau_up_to, cert.fully_plateau) == (0, False)
                assert (ref.plateau_up_to, ref.fully_plateau) == (1, False)
                assert [0, 1, 2] not in [e["incidence"] for e in ref.junction_points]
                assert any(f["incidence"] == [0, 1, 2] and f["affine_rank"] == 1
                           for f in cert.failures)
            else:
                assert (cert.plateau_up_to, cert.fully_plateau) == \
                    (ref.plateau_up_to, ref.fully_plateau), name


class TestClassifyQ3:
    def test_standard_bubble_both(self, skew_bubble_s2, skew_bubble_graph):
        cert = certify_plateau(skew_bubble_s2, skew_bubble_graph)
        verdict = classify_q3(skew_bubble_s2, cert)
        assert verdict.verdict == "both"
        assert verdict.consistent

    def test_conformal_step_output_both(self, skew_bubble_s2):
        pole = perpendicular_pole(skew_bubble_s2)
        stepped = conformal_step(skew_bubble_s2, pole, 0.5)
        graph = detect_interfaces(stepped)
        cert = certify_plateau(stepped, graph)
        verdict = classify_q3(stepped, cert)
        assert verdict.verdict == "both"

    def test_common_point_cluster_is_pcf(self):
        # all five closures share a point, so a compatibility parameter exists
        params = gallery.five_cell_meeting_point()
        rep = pcf_detect(params)
        assert rep.pcf

    def test_band_cluster_plateau_only(self, band_cluster, band_graph):
        cert = certify_plateau(band_cluster, band_graph)
        verdict = classify_q3(band_cluster, cert)
        assert verdict.verdict == "plateau"
        assert verdict.consistent
