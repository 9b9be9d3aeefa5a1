import hashlib
import inspect
import random
import re
import sys
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cityguard.model as model
import cityguard.oracle as oracle
import cityguard.placement as placement
import cityguard.verify as verify
import cityguard.visibility as visibility
from cityguard.bench import bench_instance, random_corpus
from cityguard.errors import SceneValidationError
from cityguard.geom import (
    AxisRect, ConvexQuad, HCell, Point, PolygonSet, _h_split, h_area2, h_cell,
    h_cell_to_cell, _h_hull, _h_shadow, h_centroid, h_point, h_shadowed, h_subtract,
    h_to_point, make_axis_rect,
)
from cityguard.instances import (
    GeneratorParams, gen_3k1_necessity, gen_random, gen_roof_necessity,
)
from cityguard.io import certificate_doc, city_doc, parse_city
from cityguard.model import (
    AXIS_ALIGNED, City, E, Guard, N, S, Scene, Solution, W, hole_guard, p_corner_guard,
    rotate_guards, rotate_scene_ccw, validate_scene,
)
from cityguard.oracle import (
    INFEASIBLE_WITHIN, OPTIMAL, UNCOVERABLE, _certify_and_refine, build_faces, candidate_set,
    exhaustive_min_cover, min_hitting_set, min_roof_guards,
    optimal_guard_count, roof_cover_sets, roof_samples,
)
from cityguard.placement import (
    ALLOW_P_CORNER, BUILDINGS_ONLY, city_guarding, guards_2k1, guards_main,
    roof_guarding,
)
from cityguard.verify import certify, certify_city, covers, free_space
from cityguard.visibility import sees, visibility_region
from counterexample_3k1 import rot3k1_counterexample
from references import (
    axis_free_cells, building_levels, certify_and_refine_from_scratch, h_sees_all,
    hull_by_rotation, in_closed_shadow, located_by_scan, min_cover_of_region, mirror_guards,
    mirror_scene, residual_pass, roof_covered_by, sees_all_by_scan, shadow_by_rotation,
    shadowed_by_scan, region_contains, reset_region_cache, scaled_and_shifted, side_table,
    space_between, strips_by_scan, witness_by_fractions,
)
from test_geom import point_run, ref_interior_run


def city_a():
    return parse_city({"bounds": [0, 0, 10, 10],
                       "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene


def two_buildings():
    """A scene where the vertex centroid of an uncovered certificate's
    largest residual cell can lie on a guard's half-plane boundary line."""
    return parse_city({"bounds": [0, 0, 30, 30], "buildings": [
        {"base": [3, 22, 5, 25], "height": 1},
        {"base": [19, 19, 26, 20], "height": 1}]}).scene


class TestCertify:
    def test_placement_output_covered(self):
        sc = city_a()
        cert = certify(sc, guards_2k1(sc).guards)
        assert cert.covered and cert.residual.area() == 0 and cert.witness is None

    def test_no_guards(self):
        sc = city_a()
        cert = certify(sc, [])
        assert not cert.covered
        assert cert.residual.area() == 96
        assert cert.witness is not None
        assert region_contains(free_space(sc), cert.witness)

    @pytest.mark.parametrize("bounds", [AxisRect(5, 0, 0, 5), AxisRect(0, 0, 0, 0),
                                        AxisRect(0, 0, 10, 0)])
    def test_scene_without_area_is_refused(self, bounds):
        sc = Scene(bounds=bounds, holes=())
        for check in (certify, covers):
            with pytest.raises(SceneValidationError) as e:
                check(sc, [])
            assert e.value.violations == [("EMPTY_BOUNDS", ("bounds",))]

    def test_parsed_and_placed_scenes_are_validated_once(self, monkeypatch):
        """The parser and the placements validate the scene object that
        `certify` then gets, so its own check makes no pair test; the
        benchmark's row validates its city once, with the parser's pair
        tests."""
        (name, city), = random_corpus(1, 6, 6, seed=43, grid=1000)
        pairs = []
        disjoint = model._holes_disjoint
        monkeypatch.setattr(model, "_holes_disjoint",
                            lambda a, b: pairs.append((a, b)) or disjoint(a, b))
        monkeypatch.setattr(model, "_validated", None)
        parsed = parse_city(city_doc(city))
        once = len(pairs)
        assert 0 < once <= 6 * 5 // 2
        certify(parsed.scene, guards_2k1(parsed.scene).guards[1:])
        certify_city(parsed, Solution(algorithm="x", guards=guards_2k1(parsed.scene).guards))
        assert len(pairs) == once
        monkeypatch.setattr(model, "_validated", None)
        pairs.clear()
        assert bench_instance(name, city).certified
        assert len(pairs) == once

    def test_single_guard_halfplane_clipped(self):
        sc = city_a()
        cert = certify(sc, [hole_guard(0, 1, E)])
        assert not cert.covered
        # everything strictly West of the hole is residual
        assert region_contains(cert.residual, Point(1, 5))
        assert cert.residual.area() == 96 - 40

    @pytest.mark.parametrize("guard", [
        hole_guard(-1, 0, E), hole_guard(1, 0, E), hole_guard(0, -1, E),
        hole_guard(0, 4, E), p_corner_guard(-1, N), p_corner_guard(4, N),
    ], ids=repr)
    def test_anchor_out_of_range_is_refused(self, guard):
        """A negative index does not wrap round to the last building or
        corner, and an index past the end is not a bare IndexError."""
        with pytest.raises(ValueError, match=re.escape(repr(guard.anchor))):
            certify(city_a(), [guard])

    def test_monotone_adding_guards(self):
        sc = city_a()
        guards = list(guards_2k1(sc).guards)
        prev = certify(sc, [])
        for i in range(len(guards) + 1):
            cur = certify(sc, guards[:i])
            assert cur.residual.difference(prev.residual).is_empty()
            prev = cur
        assert prev.covered

    def test_city_roof_flags(self):
        sc = city_a()
        city = City(scene=sc, heights=(3,))
        from cityguard.model import Solution
        walls_only = Solution(algorithm="x", guards=(
            hole_guard(0, 3, W), hole_guard(0, 2, E),
            hole_guard(0, 0, S), hole_guard(0, 1, S)))
        cert = certify_city(city, walls_only)
        assert cert.roof_flags == (False,)
        assert not cert.covered

    def test_witness_is_seen_by_no_guard(self):
        """The largest residual cell's vertex centroid, (12, 25), lies on
        the first guard's half-plane boundary line y = 25, where `sees`
        accepts it; the witness is another point strictly inside that cell,
        and no guard sees it."""
        sc = two_buildings()
        # two guards facing E keep the set on column strips
        guards = [hole_guard(0, 3, S), hole_guard(1, 3, S),
                  hole_guard(1, 1, E), hole_guard(1, 2, E)]
        cert = certify(sc, guards)
        largest = max(cert.residual.pieces, key=h_area2)
        assert h_centroid(largest) == Point(12, 25)
        hx, hy, hw = h_point(cert.witness)
        assert all(A * hx + B * hy + C * hw > 0 for A, B, C in largest.lines)
        assert not any(sees(sc, g, cert.witness) for g in guards)

    def test_witnesses_of_small_guard_sets_are_unseen(self):
        """Every set of at most two candidates on `two_buildings`: the
        witness of an uncovered certificate lies in the residual and no
        guard of the set sees it."""
        sc = two_buildings()
        cands = candidate_set(sc, include_p_corners=True)
        for size in (1, 2):
            for guards in combinations(cands, size):
                cert = certify(sc, guards)
                if not cert.covered:
                    assert region_contains(cert.residual, cert.witness)
                    assert not any(sees(sc, g, cert.witness) for g in guards)

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_witnesses_of_random_guard_sets_are_unseen(self, k, seed, data):
        """Random scenes at grid 30 and random sets of candidates, P corners
        included: the witness of an uncovered certificate lies in the
        residual and no guard of the set sees it."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=30))
        cands = candidate_set(sc, include_p_corners=True)
        guards = data.draw(st.lists(st.sampled_from(cands), max_size=2 * k + 2, unique=True))
        cert = certify(sc, guards)
        if not cert.covered:
            assert region_contains(cert.residual, cert.witness)
            assert not any(sees(sc, g, cert.witness) for g in guards)


@pytest.fixture
def computed(monkeypatch):
    """Empty the scene cache and record every residual pass it runs."""
    reset_region_cache(monkeypatch)
    passes = []
    compute = verify._compute

    def recording(scene, guards):
        passes.append((scene, guards))
        return compute(scene, guards)

    monkeypatch.setattr(verify, "_compute", recording)
    return passes


def copy_of(scene):
    return Scene(bounds=scene.bounds, holes=tuple(scene.holes))


class TestCertificateMemo:
    def test_bench_row_runs_each_guard_set_once(self, computed):
        """A bench row certifies two guard sets (2k+1 and Cases 0-4) and,
        without roof fixes, the city placements reuse them."""
        (name, city), = random_corpus(1, 6, 6, seed=43, grid=1000)
        row = bench_instance(name, city)
        assert row.certified
        keys = [(scene, tuple(guards)) for scene, guards in computed]
        assert len(set(keys)) == len(keys)
        fixes = sum(entry[0] == "roof-fix" for mode in (BUILDINGS_ONLY, ALLOW_P_CORNER)
                    for entry in city_guarding(city, mode).trace)
        assert fixes == 0
        assert len(computed) == 2

    def test_bench_row_builds_each_placement_once(self, monkeypatch):
        """The city placements of a bench row build on the row's own 2k+1
        and Cases 0-4 placements: `city_guarding` looks up neither
        builder, and the row equals one whose city placements build them."""
        (name, city), = random_corpus(1, 6, 6, seed=43, grid=1000)
        built = []
        for attr in ("guards_main", "guards_2k1"):
            build = getattr(placement, attr)
            monkeypatch.setattr(placement, attr, lambda scene, attr=attr, build=build:
                                built.append(attr) or build(scene))
        row = bench_instance(name, city)
        assert built == []
        cb = city_guarding(city, BUILDINGS_ONLY)
        cp = city_guarding(city, ALLOW_P_CORNER)
        assert built == ["guards_main", "guards_2k1"]
        scene = city.scene
        w1, wm = guards_2k1(scene), guards_main(scene)
        assert row.counts == {"roof": roof_guarding(city).count, "walls_2k1": w1.count,
                              "walls_main": wm.count, "city_bonly": cb.count,
                              "city_pcorner": cp.count}
        assert row.certified == all([certify(scene, w1.guards).covered,
                                     certify(scene, wm.guards).covered,
                                     certify_city(city, cb).covered,
                                     certify_city(city, cp).covered])

    def test_bench_row_computes_three_roof_flag_sets(self, monkeypatch, computed):
        """A k = 6 bench row reads roof flags for three guard sets: the
        roof placement's, and one per city placement, kept with its base's
        certificate (`Certificate.roofs`), which the repair and both
        `certify_city` calls share.  `model.roof_flags` is wrapped in
        every module that reads it."""
        (name, city), = random_corpus(1, 6, 6, seed=43, grid=1000)
        calls, flags = [], model.roof_flags
        for module in [m for key, m in sys.modules.items() if key.startswith("cityguard.")
                       and getattr(m, "roof_flags", None) is flags]:
            monkeypatch.setattr(module, "roof_flags",
                                lambda *args: calls.append(args) or flags(*args))
        row = bench_instance(name, city)
        assert row.certified and "roof-fix" not in {e[0] for e in city_guarding(city).trace}
        assert len(calls) == 3
        cert = certify(city.scene, guards_2k1(city.scene).guards)
        assert cert.roofs is cert.roofs == flags(city.scene, cert.guards)

    def test_equal_copy_shares_the_certificate(self, computed):
        sc = gen_random(GeneratorParams(k=4, seed=8, grid=200))
        guards = guards_2k1(sc).guards
        first = certify(sc, guards)
        assert certify(copy_of(sc), guards) is first
        assert covers(copy_of(sc), guards) is first.covered
        assert len(computed) == 1

    def test_other_scene_drops_the_memo(self, computed):
        sc = gen_random(GeneratorParams(k=4, seed=9, grid=200))
        short = guards_2k1(sc).guards[1:]
        first = certify(sc, short)
        other = gen_random(GeneratorParams(k=3, seed=10, grid=200))
        certify(other, guards_2k1(other).guards)
        again = certify(sc, short)
        assert again is not first
        assert computed.count((sc, short)) == 2
        assert not again.covered
        assert (again.covered, again.residual.area(), again.witness) == \
            (first.covered, first.residual.area(), first.witness)

    def test_regions_and_certificates_are_kept_together(self, computed):
        """An equal copy of a scene shares its regions as well as its
        certificates; a region of another scene drops both at once."""
        sc = gen_random(GeneratorParams(k=4, seed=9, grid=200))
        short = guards_2k1(sc).guards[1:]
        cert = certify(sc, short)
        region = visibility_region(sc, short[0])
        assert visibility_region(copy_of(sc), short[0]) is region
        assert certify(copy_of(sc), short) is cert
        regions, certificates = visibility.scene_cache(copy_of(sc))
        assert regions[short[0]] is region and certificates[short] is cert
        other = gen_random(GeneratorParams(k=3, seed=10, grid=200))
        visibility_region(other, hole_guard(0, 0, N))
        assert list(visibility._cache[1]) == [hole_guard(0, 0, N)]
        assert visibility._cache[2] == {}
        assert visibility_region(sc, short[0]) is not region
        assert certify(sc, short) is not cert
        assert computed.count((sc, short)) == 2

    def test_covers_agrees_with_certify(self, monkeypatch):
        rng = random.Random(5)
        verdicts = set()
        for seed in range(6):
            sc = gen_random(GeneratorParams(k=1 + seed % 5, seed=seed, grid=200))
            full = list(guards_2k1(sc).guards)
            drop = rng.randrange(len(full))
            for guards in (full, full[:drop] + full[drop + 1:]):
                reset_region_cache(monkeypatch)
                verdict = covers(sc, guards)
                reset_region_cache(monkeypatch)
                assert verdict == certify(sc, guards).covered
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_guard_order_keeps_verdict_and_area(self):
        rng = random.Random(7)
        for seed in range(4):
            sc = gen_random(GeneratorParams(k=3 + seed, seed=seed, grid=200))
            guards = list(guards_main(sc).guards)
            for gs in (guards, guards[1:]):
                shuffled = gs[:]
                rng.shuffle(shuffled)
                a, b = certify(sc, gs), certify(sc, shuffled[::-1])
                assert (a.covered, a.residual.area()) == (b.covered, b.residual.area())

    def test_certify_city_flags_follow_each_city(self, computed):
        sc = city_a()
        low, high = City(scene=sc, heights=(3,)), City(scene=sc, heights=(9,))
        walls_only = Solution(algorithm="x", guards=(
            hole_guard(0, 3, W), hole_guard(0, 2, E),
            hole_guard(0, 0, S), hole_guard(0, 1, S)))
        roofed = city_guarding(low, BUILDINGS_ONLY)
        for city in (low, high, low):
            for sol in (walls_only, roofed):
                cert = certify_city(city, sol)
                flags = tuple(any(roof_covered_by(sc, i, g) for g in sol.guards)
                              for i in range(sc.k))
                assert cert.roof_flags == flags
                assert cert.covered == (certify(sc, sol.guards).covered and all(flags))
        assert certify_city(low, walls_only).roof_flags == (False,)
        assert certify_city(high, roofed).roof_flags == (True,)
        assert len({guards for _, guards in computed}) == len(computed)


class TestRegionsSweptOnDemand:
    """`certify` sweeps a guard's region only when a free-space piece that
    no guard proves has a vertex strictly in front of that guard, and one
    building's shadow does not hold every cell still left of it; the
    certificate JSON still lists every guard's region, in guard order."""

    @pytest.mark.parametrize("seed", range(4))
    def test_only_cutting_regions_are_swept(self, monkeypatch, seed):
        sc = gen_random(GeneratorParams(k=16, seed=seed, grid=1000))
        guards = guards_2k1(sc).guards
        short = guards[:len(guards) // 2] + guards[len(guards) // 2 + 1:]
        vertices = [p for cell in free_space(sc).cells for p in cell]
        for gs in (guards, short):
            reset_region_cache(monkeypatch)
            cert = certify(sc, gs)
            swept = set(visibility._cache[1])
            assert cert.covered == (gs is guards)
            if cert.covered:
                assert swept == set()
            for g in swept:
                pos = g.position(sc)
                assert any((p.x - pos.x) * g.facing[0] + (p.y - pos.y) * g.facing[1] > 0
                           for p in vertices)
            regions = certificate_doc(cert)["regions"]
            assert [(tuple(r["anchor"]), tuple(r["facing"])) for r in regions] == \
                [(g.anchor, g.facing) for g in gs]
            assert set(visibility._cache[1]) == set(gs)

    @pytest.mark.parametrize("k,seed", [(16, 0), (16, 1), (16, 2), (16, 3), (28, 4)])
    def test_skipped_regions_would_cut_nothing(self, monkeypatch, k, seed):
        """Replayed piece by piece with every front guard's region: each
        guard the pass skips leaves the cells left at that point as they
        are, the replay ends with the certificate's residual, the pass
        swept exactly the guards not skipped, and those are fewer than
        the front guards of the unproven pieces."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        guards = guards_2k1(sc).guards
        short = guards[:len(guards) // 2] + guards[len(guards) // 2 + 1:]
        reset_region_cache(monkeypatch)
        cert = certify(sc, short)
        swept = set(visibility._cache[1])
        sights = verify._sights(sc, short)
        index = verify._by_facing(sights)
        buildings = [h_cell(h.corners()) for h in sc.holes]
        residual, cut, fronts, skips = [], set(), set(), 0
        for piece in free_space(sc).pieces:
            if verify._proven(piece, verify._holders(index, piece), sights, buildings):
                continue
            front = verify._front(index, piece)
            fronts.update(short[i] for i in front)
            rest = [piece]
            for i in front:
                if not rest:
                    break
                after = h_subtract(rest, visibility_region(sc, short[i]).cells)
                if all(h_shadowed(sights[i][0], c, buildings) for c in rest):
                    assert after == rest  # the same cells, in order
                    skips += 1
                else:
                    cut.add(short[i])
                rest = after
            residual += rest
        assert not cert.covered and skips
        assert [(c.pts, c.lines) for c in residual] == \
            [(c.pts, c.lines) for c in cert.residual.pieces]
        assert swept == cut
        assert len(swept) < len(fronts)
        regions = certificate_doc(cert)["regions"]
        assert [(tuple(r["anchor"]), tuple(r["facing"])) for r in regions] == \
            [(g.anchor, g.facing) for g in short]


class TestAxisFreeCells:
    @pytest.mark.parametrize("s,dx,dy", [(1, 0, 0), (1, 10**17, 10**17),
                                         (Fraction(1, 10**400), 0, 0)],
                             ids=["plain", "1e17", "1e-400"])
    def test_strip_pieces_match_ring_built_cells(self, s, dx, dy):
        """On columns and on rows, every strip piece equals, cell for cell
        and in order, the cell h_cell makes of its Point ring: the same
        vertices, lines and bbox.  Random scenes k = 0..28, and their
        images under a shift floats cannot add exactly and a scale below
        the smallest float, whose corners are Fractions."""
        for k in range(29):
            scene = scaled_and_shifted(gen_random(GeneratorParams(k=k, seed=k, grid=1000)),
                                       s, dx, dy)
            for rows in (False, True):
                cells = verify._strip_cells(*verify._strips(scene.bounds, scene.holes, rows), rows)
                ref = axis_free_cells(scene.bounds, scene.holes, rows=rows)
                assert [(c.pts, c.lines, c.bbox) for c in cells] == \
                    [(c.pts, c.lines, c.bbox) for c in ref]


class TestStripsSweep:
    """`verify._strips`, one sweep over the strip lines, against the scan
    of every hole per strip (`references.strips_by_scan`)."""

    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10),
                              st.integers(1, 4), st.integers(1, 4)), max_size=10),
           st.sampled_from([(1, 0), (Fraction(1, 3), 0), (1, 10**17)]))
    @example([(2, 2, 2, 2), (4, 5, 2, 2), (7, 2, 2, 2), (6, 8, 3, 2)], (1, 0))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_the_scan(self, rects, transform):
        """Buildings on a 12 x 12 grid, each kept when it is apart from
        those kept before, so that many share an x- or y-line: one ends on
        the line where another begins, or both begin or end on it, which
        `certify` accepts.  The scene as is, scaled by 1/3 and shifted by
        10^17, on columns and on rows: the same lines and the same free
        intervals, in order.  The example's buildings share x = 4, x = 6,
        x = 9, y = 2 and y = 4."""
        holes = []
        for x, y, w, h in rects:
            r = AxisRect(x, y, min(x + w, 11), min(y + h, 11))
            if all(r.x1 < o.x0 or o.x1 < r.x0 or r.y1 < o.y0 or o.y1 < r.y0 for o in holes):
                holes.append(r)
        scale, shift = transform
        sc = validate_scene(scaled_and_shifted(Scene(bounds=AxisRect(0, 0, 12, 12),
                                                     holes=tuple(holes)), scale, shift, shift))
        for rows in (False, True):
            assert verify._strips(sc.bounds, sc.holes, rows) == \
                strips_by_scan(sc.bounds, sc.holes, rows)


class TestCertifyMetamorphic:
    @given(st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 12),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_symmetries_keep_verdict_and_area(self, k, seed, drop, dx, dy, s):
        """Quarter turns and integer translations keep the verdict and the
        residual area; scaling by s keeps the verdict and multiplies the
        area by s^2.  Residual cell counts are not compared: the cells may
        be cut differently.  The `guards_2k1` set faces W and the
        `guards_main` set mostly N or S, or E or W in a rotated frame, each
        full and one short, so a quarter turn moves each set's proof from
        one strip axis to the other."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=200))
        guards = list(guards_2k1(sc).guards)
        main = list(guards_main(sc).guards)
        for gs in (guards, guards[:drop % len(guards)] + guards[drop % len(guards) + 1:],
                   main, main[:drop % len(main)] + main[drop % len(main) + 1:]):
            base = certify(sc, gs)
            _assert_witness_unseen(sc, gs, base)
            area = base.residual.area()
            images = [(rotate_scene_ccw(sc, t), rotate_guards(gs, sc, t), 1)
                      for t in (1, 2, 3)]
            images.append((scaled_and_shifted(sc, 1, dx, dy), gs, 1))
            images.append((scaled_and_shifted(sc, s, 0, 0), gs, s))
            for scene, image_guards, factor in images:
                cert = certify(scene, image_guards)
                assert cert.covered == base.covered
                assert cert.residual.area() == area * factor ** 2
                _assert_witness_unseen(scene, image_guards, cert)
        assert certify(sc, guards).covered and certify(sc, main).covered

    @pytest.mark.parametrize("s,dx,dy", [(1, 10**17, 10**17), (1, 2**53 + 1, -2**60),
                                         (Fraction(1, 10**400), 0, 0)],
                             ids=["1e17", "2^53+1", "1e-400"])
    def test_float_hostile_images_keep_verdict_and_area(self, s, dx, dy):
        """A shift that floats cannot add exactly, or a scale below the
        smallest float, keeps the verdict, the residual area (times s^2)
        and an unseen witness: the floats only prefilter.  Both
        placements, full and one short, on two k = 6 cities."""
        for seed in (0, 1):
            sc = gen_random(GeneratorParams(k=6, seed=seed, grid=200))
            image = scaled_and_shifted(sc, s, dx, dy)
            for algorithm in (guards_2k1, guards_main):
                gs = list(algorithm(sc).guards)
                for guards in (gs, gs[:len(gs) // 2] + gs[len(gs) // 2 + 1:]):
                    base, cert = certify(sc, guards), certify(image, guards)
                    assert (cert.covered, cert.residual.area()) == \
                        (base.covered, base.residual.area() * s * s)
                    _assert_witness_unseen(image, guards, cert)

    @given(st.integers(1, 6), st.integers(0, 10**6), st.integers(0, 12))
    @settings(max_examples=15, deadline=None)
    def test_reflections_keep_verdict_and_area(self, k, seed, drop):
        """The mirror image (x, y) -> (-x, y), followed by each quarter
        turn, gives the four reflections; each keeps the verdict and the
        residual area."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=200))
        guards = list(guards_2k1(sc).guards)
        mirrored = mirror_scene(sc)
        for gs in (guards, guards[:drop % len(guards)] + guards[drop % len(guards) + 1:]):
            base = certify(sc, gs)
            _assert_witness_unseen(sc, gs, base)
            image_guards = mirror_guards(gs, sc)
            for t in range(4):
                scene = rotate_scene_ccw(mirrored, t)
                turned = rotate_guards(image_guards, mirrored, t)
                cert = certify(scene, turned)
                assert cert.covered == base.covered
                assert cert.residual.area() == base.residual.area()
                _assert_witness_unseen(scene, turned, cert)

    @pytest.mark.parametrize("k,seed", [(2, 11), (5, 12), (8, 13)])
    def test_placements_on_all_eight_symmetries(self, k, seed):
        """On each of the four rotations and four reflections of a city,
        `guards_2k1` and `guards_main` place certified covered sets within
        2k + 1 and 2k + floor(k/4) + 4 guards, and the image of the
        city's `guards_main` set without its middle guard keeps that set's
        verdict and residual area."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=200))
        main = list(guards_main(sc).guards)
        short = main[:len(main) // 2] + main[len(main) // 2 + 1:]
        base = certify(sc, short)
        mirrored = mirror_scene(sc)
        images = [(rotate_scene_ccw(sc, t), rotate_guards(short, sc, t)) for t in range(4)]
        images += [(rotate_scene_ccw(mirrored, t),
                    rotate_guards(mirror_guards(short, sc), mirrored, t)) for t in range(4)]
        for scene, image_short in images:
            for algorithm, bound in ((guards_2k1, 2 * k + 1), (guards_main, 2 * k + k // 4 + 4)):
                placed = algorithm(scene).guards
                assert len(placed) <= bound
                assert certify(scene, placed).covered
            cert = certify(scene, image_short)
            assert (cert.covered, cert.residual.area()) == \
                (base.covered, base.residual.area())
            _assert_witness_unseen(scene, image_short, cert)


def _cells(cells):
    return [(c.pts, c.lines) for c in cells]


def _on_rows(scene, guards):
    """The strip axis `certify` runs on: rows when most guards of an
    axis-aligned scene face N or S, columns otherwise."""
    return scene.kind == AXIS_ALIGNED and 2 * sum(g.facing[0] == 0 for g in guards) > len(guards)


def _assert_same_points(cells, others):
    """The two cell lists cover the same closed point set: each minus the
    other leaves nothing."""
    assert h_subtract(list(cells), list(others)) == []
    assert h_subtract(list(others), list(cells)) == []


def _assert_matches_reference(scene, guards):
    """certify returns the region-by-region pass's residual cell for cell
    (vertices, edge lines and order), and its witness, on the strips the
    guards pick; on rows the residual is also the column pass's as a
    point set."""
    cert = certify(scene, guards)
    rows = _on_rows(scene, guards)
    ref = residual_pass(scene, guards, _strip_pieces(scene, rows))
    assert _cells(cert.residual.pieces) == _cells(ref)
    if rows:
        _assert_same_points(ref, residual_pass(scene, guards))
    assert cert.witness == (h_centroid(max(ref, key=h_area2)) if ref else None)
    assert cert.covered == (not ref)
    _assert_witness_unseen(scene, guards, cert)
    return cert


def _assert_witness_unseen(scene, guards, cert):
    """An uncovered certificate's witness, checked by the point route:
    `sees` accepts it for no guard."""
    if not cert.covered:
        assert not any(sees(scene, g, cert.witness) for g in guards)


def _sees_all(scene, guard, cell):
    """h_sees_all for a guard of the scene, with its buildings as blockers."""
    return h_sees_all(h_point(guard.position(scene)), guard.facing, cell,
                      [h_cell(h.corners()) for h in scene.holes])


def _through_a_corner(scene, pos, p):
    """Does the open segment from pos to p run through a building corner?"""
    dx, dy = p.x - pos.x, p.y - pos.y
    return any((c.x - pos.x) * dy == (c.y - pos.y) * dx
               and 0 < (c.x - pos.x) * dx + (c.y - pos.y) * dy < dx * dx + dy * dy
               for h in scene.holes for c in h.corners())


def _meets_buildings_at_corners_only(scene, a, b):
    """Does the closed segment from a to b meet each building in nothing
    or in one of its corners?  The segment is clipped to each building's
    closed edge half-planes."""
    dx, dy = b.x - a.x, b.y - a.y
    for h in scene.holes:
        cs = h.corners()
        edges = list(zip(cs, cs[1:] + cs[:1]))
        turn = 1 if sum(u.x * v.y - v.x * u.y for u, v in edges) > 0 else -1
        lo, hi = Fraction(0), Fraction(1)
        for u, v in edges:
            # the side of a + t·(dx, dy) is s0 + t·s1, >= 0 inside
            s0 = turn * ((v.x - u.x) * (a.y - u.y) - (v.y - u.y) * (a.x - u.x))
            s1 = turn * ((v.x - u.x) * dy - (v.y - u.y) * dx)
            if s1 > 0:
                lo = max(lo, Fraction(-s0) / s1)
            elif s1 < 0:
                hi = min(hi, Fraction(-s0) / s1)
            elif s0 < 0:
                lo, hi = Fraction(1), Fraction(0)
        if lo < hi or lo == hi and Point(a.x + lo * dx, a.y + lo * dy) not in cs:
            return False
    return True


def _sight_without_area(scene, guard, cell, p):
    """May `sees` accept p, a point inside a cell the guard's region
    leaves?  Only along a sight that carries no area: p lies on the
    guard's half-plane boundary line; or the segment from the guard to p
    meets the buildings at their corners alone, and the points of the
    cell next to p, off every such line, are hidden
    (`test_sight_through_two_corners_has_no_area`)."""
    pos = guard.position(scene)

    def on_boundary(q):
        return (q.x - pos.x) * guard.facing[0] + (q.y - pos.y) * guard.facing[1] == 0

    if on_boundary(p):
        return True
    if not _meets_buildings_at_corners_only(scene, pos, p):
        return False
    near = [Point(p.x + (v.x - p.x) / 10**6, p.y + (v.y - p.y) / 10**6)
            for v in h_cell_to_cell(cell)]
    near = [q for q in near if not on_boundary(q) and not _through_a_corner(scene, pos, q)]
    return bool(near) and not any(sees(scene, guard, q) for q in near)


def _interior_points(cell, rng, count=4):
    """Rational points strictly inside the cell: positive integer weights
    over its vertices."""
    corners = h_cell_to_cell(cell)
    out = []
    for _ in range(count):
        ws = [rng.randint(1, 1000) for _ in corners]
        t = sum(ws)
        out.append(Point(sum(Fraction(w) * c.x for w, c in zip(ws, corners)) / t,
                         sum(Fraction(w) * c.y for w, c in zip(ws, corners)) / t))
    return out


_FACINGS = (N, E, S, W, (1, 1), (-1, 1), (1, -1), (-1, -1), (2, 1), (-1, 3))


def _drawn_guard_and_cells(data, k, seed):
    """A random k-building scene at grid 30 or a scene of rotated buildings;
    a guard on a building or P corner, facing along a wall or askew; and
    the cells to test: a random rational rectangle in the bounds and every
    free-space piece."""
    if data.draw(st.booleans()):
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=30))
    else:
        sc = data.draw(st.sampled_from([gen_3k1_necessity(1), gen_3k1_necessity(2),
                                        rot3k1_counterexample()]))
    corner = data.draw(st.integers(0, 3))
    facing = data.draw(st.sampled_from(_FACINGS))
    building = data.draw(st.integers(-1, sc.k - 1))
    g = (p_corner_guard(corner, facing) if building < 0
         else hole_guard(building, corner, facing))
    b = sc.bounds
    den = data.draw(st.sampled_from([1, 2, 3, 7]))
    xs = sorted(data.draw(st.lists(st.integers(b.x0 * den, b.x1 * den),
                                   min_size=2, max_size=2, unique=True)))
    ys = sorted(data.draw(st.lists(st.integers(b.y0 * den, b.y1 * den),
                                   min_size=2, max_size=2, unique=True)))
    (x0, x1), (y0, y1) = [Fraction(v, den) for v in xs], [Fraction(v, den) for v in ys]
    rect = h_cell((Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)))
    return sc, g, (rect, *free_space(sc).pieces)


class TestResidualByContainment:
    """`certify` drops each free-space piece that one guard sees all of
    (h_sees_all) and cuts the others by every region: differential checks
    against the plain region-by-region pass, and checks of the proof
    against the reference cut and against `sees`."""

    @pytest.mark.parametrize("k,seed", [(4, 1), (7, 2), (10, 3), (13, 4), (16, 5),
                                        (20, 6), (24, 7), (28, 8)])
    def test_placements_match_the_region_by_region_pass(self, k, seed):
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        verdicts = []
        for algorithm in (guards_2k1, guards_main):
            guards = list(algorithm(sc).guards)
            drop = random.Random(seed).randrange(len(guards))
            for gs in (guards, guards[:drop] + guards[drop + 1:]):
                verdicts.append(_assert_matches_reference(sc, gs).covered)
        assert verdicts[0] and verdicts[2]

    @pytest.mark.parametrize("make", [lambda: gen_3k1_necessity(1),
                                      lambda: gen_3k1_necessity(2)])
    def test_rotated_family_subsets_match(self, make):
        sc = make()
        cands = candidate_set(sc, include_p_corners=True)
        rng = random.Random(sc.k)
        residuals = set()
        for size in (0, 1, 3, 3 * sc.k + 1, 3 * sc.k + 4, len(cands)):
            cert = _assert_matches_reference(sc, rng.sample(cands, size))
            residuals.add(cert.covered)
        assert residuals == {True, False}

    def test_non_wall_aligned_facings_match(self):
        """Diagonal and skew facings, and facings whose fan crosses the
        sweep's first direction (1, 0), such as East."""
        facings = [(1, 1), (-1, 1), (1, -1), (-1, -1), (2, 1), (1, 0), (-1, 0)]
        rng = random.Random(3)
        for seed in range(3):
            sc = gen_random(GeneratorParams(k=6, seed=seed, grid=1000))
            guards = [hole_guard(i, c, rng.choice(facings))
                      for i in range(sc.k) for c in range(4)]
            guards += [p_corner_guard(c, f) for c, f in
                       ((0, (1, 1)), (1, (-1, 1)), (2, (-1, -1)), (3, (1, -1)))]
            for gs in (guards, rng.sample(guards, 8)):
                _assert_matches_reference(sc, gs)

    def test_east_run_piece_is_proven(self):
        """An East guard's region runs from South through East to North,
        and the sweep lists its triangles from a ray past (1, 0): a piece
        across the guard's North-East diagonal, held by triangles from
        both ends of that list, is proven."""
        sc = parse_city({"bounds": [0, 0, 10, 10],
                         "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}).scene
        g = hole_guard(0, 2, E)
        piece = h_cell((Point(7, 5), Point(9, 5), Point(9, 8), Point(7, 8)))
        assert _sees_all(sc, g, piece)
        assert h_subtract([piece], visibility_region(sc, g).cells) == []

    def test_most_pieces_are_proven(self):
        sc = gen_random(GeneratorParams(k=16, seed=3, grid=1000))
        guards = guards_2k1(sc).guards
        pieces = free_space(sc).pieces
        proven = sum(any(_sees_all(sc, g, p) for g in guards) for p in pieces)
        assert proven > len(pieces) // 2

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_proof_is_exact_on_sweep_regions(self, k, seed, data):
        """h_sees_all says a guard sees all of a cell exactly when cutting
        the cell by the guard's region leaves nothing."""
        sc, g, cells = _drawn_guard_and_cells(data, k, seed)
        region = visibility_region(sc, g).cells
        for cell in cells:
            assert _sees_all(sc, g, cell) == (h_subtract([cell], region) == [])

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_proof_agrees_with_sees(self, k, seed, data):
        """Against `sees`, the point route through `interior_run`: a cell
        h_sees_all proves is seen at its vertices, its centroid and
        interior rational points; otherwise the centroid and interior
        points of the largest cell the region leaves of it are not seen,
        unless their sight carries no area (`_sight_without_area`): then
        the region leaves them out."""
        sc, g, cells = _drawn_guard_and_cells(data, k, seed)
        region = visibility_region(sc, g).cells
        rng = random.Random(seed)
        for cell in cells:
            if _sees_all(sc, g, cell):
                for p in (*h_cell_to_cell(cell), h_centroid(cell),
                          *_interior_points(cell, rng)):
                    assert sees(sc, g, p)
            else:
                largest = max(h_subtract([cell], region), key=h_area2)
                for p in (h_centroid(largest), *_interior_points(largest, rng)):
                    assert not sees(sc, g, p) or _sight_without_area(sc, g, largest, p)

    def test_sight_through_two_corners_has_no_area(self):
        """The guard at (4, 18) facing N sees (27, 59/2) along a segment
        that touches the buildings only at their corners (20, 26) and
        (26, 29); every other point of the free cell [26, 28] x [29, 30]
        is hidden, so the region leaves the whole cell.  The point route
        and the region are both right: that sight has no area."""
        sc = gen_random(GeneratorParams(k=4, seed=19270, grid=30))
        g = hole_guard(2, 2, N)
        assert g.position(sc) == Point(4, 18)
        p = Point(27, Fraction(59, 2))
        assert sees(sc, g, p) and _through_a_corner(sc, g.position(sc), p)
        cell = h_cell((Point(26, 29), Point(28, 29), Point(28, 30), Point(26, 30)))
        assert h_subtract([cell], visibility_region(sc, g).cells) == [cell]
        assert _sight_without_area(sc, g, cell, p)

    def test_sight_between_corners_on_both_sides_has_no_area(self):
        """The guard at P's corner (0, 0) facing N sees (41/2, 41/2) along
        y = x, which touches building 2 at its corner (6, 6) from above and
        building 4 at its corner (11, 11) from below; every other point of
        the cell [20, 21]^2 around it is hidden, so the region leaves the
        whole cell.  A diagonal through a building and a sight along its
        edge meet it in more than a corner."""
        sc = gen_random(GeneratorParams(k=5, seed=5, grid=30))
        assert (sc.holes[2], sc.holes[4]) == (AxisRect(6, 4, 8, 6), AxisRect(10, 11, 11, 12))
        g = p_corner_guard(0, N)
        p = Point(Fraction(41, 2), Fraction(41, 2))
        assert sees(sc, g, p) and _through_a_corner(sc, Point(0, 0), p)
        assert _meets_buildings_at_corners_only(sc, Point(0, 0), p)
        cell = h_cell((Point(20, 20), Point(21, 20), Point(21, 21), Point(20, 21)))
        assert h_subtract([cell], visibility_region(sc, g).cells) == [cell]
        assert _sight_without_area(sc, g, cell, p)
        assert not _meets_buildings_at_corners_only(sc, Point(6, 4), Point(8, 6))
        assert not _meets_buildings_at_corners_only(sc, Point(5, 6), Point(9, 6))


def _anchors(scene):
    """A guard at every building and P corner, with every facing of
    `_FACINGS`."""
    return ([hole_guard(i, c, f) for i in range(scene.k) for c in range(4)
             for f in _FACINGS] + [p_corner_guard(c, f) for c in range(4) for f in _FACINGS])


def _strip_pieces(scene, rows):
    """The free-space pieces on columns, or with `rows` on rows in an
    axis-aligned scene."""
    if rows and scene.kind == AXIS_ALIGNED:
        return verify._strip_cells(*verify._strips(scene.bounds, scene.holes, True), True)
    return free_space(scene).pieces


def _pieces_and_level_parts(scene, rows):
    """The free-space pieces on the strip axis, and both halves of each
    piece at every building level across it (y = c on columns, x = c on
    rows) that crosses it strictly."""
    levels = building_levels(scene, rows=rows)
    axis = 0 if rows else 1
    cells = []
    for piece in _strip_pieces(scene, rows):
        cells.append(piece)
        cs = [h_to_point(p)[axis] for p in piece.pts]
        for c in (Fraction(c) for c in levels if min(cs) < c < max(cs)):
            line = (c.denominator, 0, -c.numerator) if rows else (0, c.denominator, -c.numerator)
            cells += [HCell(*half) for half in _h_split((piece.pts, piece.lines), line)]
    return cells


def _flat(held):
    """The holder indices of `verify._holders`' per-facing prefixes."""
    return [i for _, members, n in held for i in members[:n]]


class TestFacingIndex:
    """The facing index (`verify._holders`, `verify._front`) against the
    side table of every guard at every vertex (`references.side_table`):
    the same holders and the same front guards, the front guards in guard
    order."""

    @staticmethod
    def check(scene, guards):
        """Assert the index agrees on every piece and level part, on both
        strip axes; the number of cells with a vertex whose W is not 1."""
        sights = verify._sights(scene, guards)
        index = verify._by_facing(sights)
        cells = _pieces_and_level_parts(scene, False) + _pieces_and_level_parts(scene, True)
        for cell in cells:
            held, front = side_table(sights, cell)
            assert sorted(_flat(verify._holders(index, cell))) == held
            assert verify._front(index, cell) == front
        return sum(any(p[2] != 1 for p in cell.pts) for cell in cells)

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_index_matches_the_side_table(self, k, seed, data):
        """Random scenes at grid 30 and the rotated 3k+1 family; guards at
        any corner, facing along a wall or askew, so that some facings
        hold one guard and some several."""
        if data.draw(st.booleans()):
            sc = gen_random(GeneratorParams(k=k, seed=seed, grid=30))
        else:
            sc = data.draw(st.sampled_from([gen_3k1_necessity(1), gen_3k1_necessity(2),
                                            rot3k1_counterexample()]))
        guards = data.draw(st.lists(st.sampled_from(_anchors(sc)), min_size=1,
                                    max_size=12, unique=True))
        self.check(sc, guards)

    def test_every_anchor_on_rotated_buildings(self):
        """Every corner and facing at once on the 3k+1 counterexample,
        whose pieces and level parts have vertices with W > 1."""
        sc = rot3k1_counterexample()
        assert self.check(sc, _anchors(sc)) > 0


class TestSplitProof:
    """A piece that one of its holders sees all of is proven by hull
    (`verify._proven`) and needs no region; any other piece is cut.
    `h_sees_all` tests the hull as bare lines.  The class keeps the name
    of the level-split proof it once tested, so that its test ids stay."""

    @staticmethod
    def spy(monkeypatch):
        """Record every verdict of `verify._proven`."""
        prove, proofs = verify._proven, []
        monkeypatch.setattr(verify, "_proven",
                            lambda *args, **kw: proofs.append(prove(*args, **kw)) or proofs[-1])
        return proofs

    @staticmethod
    def hull_spy(monkeypatch):
        """Record every verdict of the hull test `verify.h_clear`."""
        clear, verdicts = verify.h_clear, []
        monkeypatch.setattr(verify, "h_clear",
                            lambda *args: verdicts.append(clear(*args)) or verdicts[-1])
        return verdicts

    @staticmethod
    def location_spy(monkeypatch):
        """Record the strips built (`verify._strips`: their axis and piece
        count) and the pieces located (`verify._on_strips`)."""
        strips, locate, built, located = verify._strips, verify._on_strips, [], []

        def building(*args, **kw):
            bound = inspect.signature(strips).bind(*args, **kw)
            bound.apply_defaults()
            out = strips(*args, **kw)
            built.append((bound.arguments["rows"], sum(len(los) for los, _ in out[1])))
            return out

        def locating(*args):
            located.append(locate(*args))
            return located[-1]

        monkeypatch.setattr(verify, "_strips", building)
        monkeypatch.setattr(verify, "_on_strips", locating)
        return built, located

    @pytest.mark.parametrize("k", [16, 22, 28])
    @pytest.mark.parametrize("seed", range(3))
    def test_covered_placements_sweep_no_region(self, monkeypatch, k, seed):
        """`guards_2k1` faces W and is proven on columns; most of
        `guards_main` faces N or S, or E or W in a rotated frame, and is
        proven on the strips it faces along.  Every strip piece is proven
        by one guard, and no region is swept.  A guard standing on a piece
        proves it by location, with no hull test, and the holders facing a
        piece head on are tried first: every piece left takes one hull
        test, which passes, so there are fewer hull tests than pieces."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        proofs = self.spy(monkeypatch)
        hulls = self.hull_spy(monkeypatch)
        built, located = self.location_spy(monkeypatch)
        for algorithm in (guards_2k1, guards_main):
            guards = algorithm(sc).guards
            reset_region_cache(monkeypatch)
            for record in (proofs, hulls, built, located):
                record.clear()
            assert certify(sc, guards).covered
            assert visibility._cache[1] == {}
            (_, pieces), = built
            assert len(located[0]) + len(proofs) == pieces
            assert all(proofs)
            assert all(hulls) and len(hulls) == len(proofs) < pieces

    def test_oracle_set_is_covered_by_cuts(self, monkeypatch):
        """The oracle's OPTIMAL set on a k = 8 city, four guards facing E
        and W, runs on columns, and no one guard proves every column
        piece: the pieces left are cut by the front guards' regions, which
        leaves the residual of the plain region-by-region pass, nothing,
        and sweeps no region but the four guards'."""
        sc = gen_random(GeneratorParams(k=8, seed=1, grid=1000))
        res = optimal_guard_count(sc, candidate_set(sc, include_p_corners=True), 17)
        assert res.status == OPTIMAL
        guards = res.solution.guards
        assert len(guards) == 4 and not _on_rows(sc, guards)
        proofs = self.spy(monkeypatch)
        reset_region_cache(monkeypatch)
        cert = certify(sc, guards)
        assert cert.covered and not all(proofs)
        swept = set(visibility._cache[1])
        assert swept and swept <= set(guards)
        assert list(cert.residual.pieces) == residual_pass(sc, guards) == []

    @pytest.mark.parametrize("k,seed,covered", [(16, 0, False), (12, 1, False),
                                                (16, 1, True)])
    def test_north_south_sets_take_one_row_pass(self, monkeypatch, k, seed, covered):
        """A `guards_main` set without its middle guard, mostly facing N or
        S, is certified in one pass on rows: the strips are built once, on
        rows, some row piece has no proof and is cut, and the
        residual is the column pass's as a point set, with an unseen
        witness."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        main = list(guards_main(sc).guards)
        short = main[:len(main) // 2] + main[len(main) // 2 + 1:]
        assert _on_rows(sc, short)
        proofs = self.spy(monkeypatch)
        built, _ = self.location_spy(monkeypatch)
        reset_region_cache(monkeypatch)
        cert = certify(sc, short)
        assert cert.covered == covered
        assert [rows for rows, _ in built] == [True] and proofs and not all(proofs)
        _assert_same_points(cert.residual.pieces, residual_pass(sc, short))
        _assert_witness_unseen(sc, short, cert)

    @pytest.mark.parametrize("rows", [False, True], ids=["columns", "rows"])
    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_proof_leaves_nothing_to_cut(self, rows, k, seed, data):
        """Whenever the proof holds, on column or row pieces, cutting the
        piece by every guard's region leaves nothing; the guards stand at
        any corner, facing along a wall or askew.  A rotated scene's
        pieces are its column pieces on either axis.  The proof's verdict
        is the plain rule's, whatever order it tries the holders in: some
        guard sees all of the piece, a guard standing on it included.  The
        scene may be scaled by 1/3, so that vertices have W > 1, or shifted
        by 10^17, where the floats that order the hull tests tie."""
        if data.draw(st.booleans()):
            sc = gen_random(GeneratorParams(k=k, seed=seed, grid=30))
        else:
            sc = data.draw(st.sampled_from([gen_3k1_necessity(1), gen_3k1_necessity(2),
                                            rot3k1_counterexample()]))
        scale, shift = data.draw(st.sampled_from([(1, 0), (Fraction(1, 3), 0), (1, 10**17)]))
        sc = scaled_and_shifted(sc, scale, shift, shift)
        guards = data.draw(st.lists(st.sampled_from(_anchors(sc)), min_size=1, max_size=6,
                                    unique=True))
        buildings = [h_cell(h.corners()) for h in sc.holes]
        sights = verify._sights(sc, guards)
        index = verify._by_facing(sights)
        regions = [c for g in guards for c in visibility_region(sc, g).cells]
        for piece in _strip_pieces(sc, rows):
            held = verify._holders(index, piece)
            proven = verify._proven(piece, held, sights, buildings)
            assert proven == any(h_sees_all(a, f, piece, buildings) for a, f, _ in sights)
            if proven:
                assert h_subtract([piece], regions) == []

    @pytest.mark.parametrize("piece", [
        ((6, 6), (9, 6), (9, 9), (6, 9)),      # the apex is a vertex
        ((6, 3), (9, 3), (9, 9), (6, 9)),      # inside the edge x = 6
        ((3, 6), (6, 6), (6, 9), (3, 9)),      # a vertex, West of the apex
        ((2, 6), (10, 6), (10, 8), (2, 8)),    # inside the edge y = 6
        ((7, 6), (9, 6), (9, 9), (7, 9)),      # on the line y = 6, past an edge's end
        ((1, 6), (3, 6), (3, 9), (1, 9)),      # on the line y = 6, before an edge's start
        ((6, 7), (8, 7), (8, 9), (6, 9)),      # on the line x = 6, below the piece
        ((6, 0), (9, 0), (9, 3), (6, 3)),      # on the line x = 6, above the piece
        ((6, 6), (9, 7), (7, 9)),              # a triangle's vertex
        ((8, 6), (9, 8), (7, 8)),              # on its edge's line y = 6 by one vertex
        ((6, 6), (8, 5), (9, 9), (6, 9)),      # a vertex, the piece across y = 6
        ((4, 8), (8, 4), (9, 9)),              # inside the slanted edge x + y = 12
        ((2, 6), (6, 6), (4, 9)),              # a vertex, its edge on the building's y = 6
    ], ids=str)
    def test_hull_cell_at_degenerate_apexes(self, piece):
        """The hull of an apex on the piece's boundary or on an edge's
        line gives the reference answer, for every facing: nothing left
        after cutting the piece by the guard's region.  The apex is the NE
        corner (6, 6) of the building [4, 6]^2 in [0, 10]^2."""
        sc = city_a()
        cell = h_cell(tuple(Point(*p) for p in piece))
        verdicts = set()
        for facing in _FACINGS:
            g = hole_guard(0, 2, facing)
            verdict = _sees_all(sc, g, cell)
            assert verdict == (h_subtract([cell], visibility_region(sc, g).cells) == [])
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("piece,facing,scale", [
        (((6, 6), (9, 6), (9, 9), (6, 9)), (1, 1), 1),            # the apex is a vertex
        (((6, 6), (9, 7), (7, 9)), N, 1),                          # a triangle's vertex
        (((6, 3), (9, 3), (9, 9), (6, 9)), E, 1),                  # inside the edge x = 6
        (((2, 6), (10, 6), (10, 8), (2, 8)), N, 1),                # inside the edge y = 6
        (((6, 6), (10, 6), (10, 10), (6, 10)), (1, 1), Fraction(1, 3)),  # a vertex, W = 3
        (((6, 4), (10, 4), (10, 10), (6, 10)), E, Fraction(1, 3)),       # inside an edge, W = 3
    ], ids=str)
    def test_holder_on_the_piece_needs_no_hull_test(self, monkeypatch, piece, facing, scale):
        """A guard whose apex lies on the closed piece, with the piece in
        its closed half-plane, sees all of it: the hull of the apex and the
        piece is the piece, which is free.  The location step's scan
        (`verify._on_piece`) proves it with no hull test, and its region
        leaves nothing of the piece.  The apex is the corner (6, 6) of the
        building [4, 6]^2 in [0, 10]^2, or its image in the copy scaled by
        1/3."""
        sc = scaled_and_shifted(city_a(), scale, 0, 0)
        g = hole_guard(0, 2, facing)
        cell = h_cell(tuple(Point(scale * x, scale * y) for x, y in piece))
        sights = verify._sights(sc, [g])
        hulls = self.hull_spy(monkeypatch)
        assert _flat(verify._holders(verify._by_facing(sights), cell)) == [0]
        assert verify._on_piece(cell, sights) and hulls == []
        assert not verify._on_piece(cell, verify._sights(sc, [hole_guard(0, 0, facing)]))
        assert h_subtract([cell], visibility_region(sc, g).cells) == []

    @pytest.mark.parametrize("building,piece", [
        ((50, 75, 64, 85), ((70, 60), (90, 60), (90, 90), (70, 90))),
        ((75, 50, 85, 64), ((60, 70), (90, 70), (90, 90), (60, 90))),
    ])
    def test_hull_edges_from_the_apex_separate(self, building, piece):
        """A building just outside the hull's edge from the apex (60, 60)
        to the piece, or back, is apart from the hull by that edge's line
        alone: none of its own edge lines separates them."""
        sc = parse_city({"bounds": [0, 0, 100, 100], "buildings": [
            {"base": [40, 40, 60, 60], "height": 1},
            {"base": list(building), "height": 1}]}).scene
        g = hole_guard(0, 2, N)
        cell = h_cell(tuple(Point(*p) for p in piece))
        assert _sees_all(sc, g, cell)
        assert h_subtract([cell], visibility_region(sc, g).cells) == []


class TestLocation:
    """The location step: a strip piece that a guard stands on, with the
    piece in its closed half-plane, is proven by locating the guard
    (`verify._on_strips`), and only the pieces left become HCells and take
    the holder walk."""

    @given(st.integers(1, 12), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_located_pieces_match_the_point_route(self, k, seed, data):
        """On columns and on rows, the pieces located are exactly those a
        guard stands on and proves by the Point route
        (`references.located_by_scan`), which is the on-piece rule the
        hull-tested walk once applied to its holders; and `certify` equals
        the region-by-region pass over `references.axis_free_cells`, cell
        for cell.  Guards stand at any corner of a building or of P,
        facing along the walls or askew; the scene may be scaled by 1/3,
        so that vertices have W > 1, or shifted by 10^17."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=100))
        scale, shift = data.draw(st.sampled_from([(1, 0), (Fraction(1, 3), 0), (1, 10**17)]))
        sc = scaled_and_shifted(sc, scale, shift, shift)
        anchors = ([("hole", i, c) for i in range(k) for c in range(4)]
                   + [("p", c) for c in range(4)])
        guards = data.draw(st.lists(st.builds(
            Guard, st.sampled_from(anchors), st.sampled_from(_FACINGS + ((3, -4),))),
            min_size=1, max_size=12, unique=True))
        sights = verify._sights(sc, guards)
        for rows in (False, True):
            us, strips = verify._strips(sc.bounds, sc.holes, rows)
            pieces = axis_free_cells(sc.bounds, sc.holes, rows)
            ids = [(s, j) for s, (los, _) in enumerate(strips) for j in range(len(los))]
            assert len(ids) == len(pieces)
            stood = located_by_scan(sc, guards, pieces)
            assert verify._on_strips(sights, us, strips, rows) == \
                {ids[n] for n, on in enumerate(stood) if on}
        ref = residual_pass(sc, guards, axis_free_cells(sc.bounds, sc.holes, _on_rows(sc, guards)))
        assert _cells(certify(sc, guards).residual.pieces) == _cells(ref)

    # (pieces no guard stands on, pieces) per seed, measured for the
    # guards_2k1 and the guards_main set
    MEASURED = {0: [(362, 875), (353, 867)], 1: [(342, 855), (340, 855)]}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_only_pieces_no_guard_stands_on_become_cells(self, monkeypatch, seed):
        """Count budget at k = 256, grid 40k: on the covered `guards_2k1`
        and `guards_main` sets, `_holders` and `h_rect` run once for each
        piece no guard stands on (`located_by_scan`) and for no other, and
        those are under half of the pieces (`MEASURED`)."""
        sc = gen_random(GeneratorParams(k=256, seed=seed, grid=40 * 256))
        sets = [guards_2k1(sc).guards, guards_main(sc).guards]
        calls = {"_holders": 0, "h_rect": 0}
        for name in calls:
            fn = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, fn=fn, name=name:
                                calls.__setitem__(name, calls[name] + 1) or fn(*args))
        for guards, measured in zip(sets, self.MEASURED[seed]):
            pieces = axis_free_cells(sc.bounds, sc.holes, _on_rows(sc, guards))
            left = located_by_scan(sc, guards, pieces).count(False)
            assert (left, len(pieces)) == measured and left < len(pieces) / 2
            calls.update(_holders=0, h_rect=0)
            reset_region_cache(monkeypatch)
            assert certify(sc, guards).covered
            assert calls == {"_holders": left, "h_rect": left}


class TestHolderQuery:
    """The holder query (`verify._nearest`): per axis facing, the nearest
    holder level with the piece is hull-tested first, and the walk over
    every holder (`verify._walk`) runs only when none proves the piece."""

    # pieces the fallback walk ran on, measured for the guards_2k1 and
    # the guards_main set, per (k, seed)
    MEASURED = {(256, 0): (0, 1), (256, 1): (0, 0), (1024, 0): (0, 0), (1024, 1): (0, 3)}

    @pytest.mark.parametrize("k,seed", sorted(MEASURED))
    def test_each_piece_takes_one_hull_test(self, monkeypatch, k, seed):
        """Count budget at grid 40k: on the covered `guards_2k1` and
        `guards_main` sets, each piece no guard stands on (one
        `_proven` call each) takes exactly one hull test, which passes,
        and the fallback walk runs on at most `MEASURED` of them."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=40 * k))
        sets = [guards_2k1(sc).guards, guards_main(sc).guards]
        tests, walks = [], []
        prove, clear, walk = verify._proven, verify.h_clear, verify._walk
        monkeypatch.setattr(verify, "_proven", lambda *args: tests.append([]) or prove(*args))
        monkeypatch.setattr(verify, "h_clear",
                            lambda *args: tests[-1].append(clear(*args)) or tests[-1][-1])
        monkeypatch.setattr(verify, "_walk", lambda *args: walks.append(1) or walk(*args))
        for guards, measured in zip(sets, self.MEASURED[k, seed]):
            tests.clear()
            walks.clear()
            reset_region_cache(monkeypatch)
            assert certify(sc, guards).covered
            assert tests and all(verdicts == [True] for verdicts in tests)
            assert len(walks) <= measured


def _assert_shadow_verdicts(sc, pos, cells):
    """For each building and cell: `h_shadowed` against that building alone
    equals the reference at every vertex of the cell; a True means the
    sight segment to each of the cell's first 9 interior points runs
    through the building's interior; against all buildings it is the
    disjunction.  Returns the set of verdicts seen."""
    apex = h_point(pos)
    buildings = [h_cell(h.corners()) for h in sc.holes]
    verdicts = set()
    for cell in cells:
        each = []
        for hole, b in zip(sc.holes, buildings):
            shadowed = h_shadowed(apex, cell, [b])
            assert shadowed == all(in_closed_shadow(pos, tuple(hole.corners()), v)
                                   for v in h_cell_to_cell(cell))
            if shadowed:
                for p in islice(verify.interior_points(cell), 9):
                    assert point_run(pos, p, hole) is not None
            each.append(shadowed)
        assert h_shadowed(apex, cell, buildings) == any(each)
        verdicts.update(each)
    return verdicts


class TestInteriorPoints:
    def test_points_are_exact_and_inside(self):
        """Every point is int or Fraction, never a float, even when the
        centroid and the first two vertices are all ints, and lies in the
        open cell."""
        cells = [h_cell((Point(0, 0), Point(3, 0), Point(0, 3))),
                 h_cell((Point(0, 0), Point(4, 0), Point(4, 2), Point(0, 2))),
                 h_cell((Point(Fraction(1, 3), 0), Point(2, Fraction(1, 2)), Point(0, 2)))]
        sc = gen_random(GeneratorParams(k=3, seed=4, grid=60))
        cells += certify(sc, guards_2k1(sc).guards[1:]).residual.pieces
        for cell in cells:
            for p in islice(verify.interior_points(cell), 9):
                assert all(type(v) in (int, Fraction) for v in p)
                hp = h_point(p)
                assert all(A * hp[0] + B * hp[1] + C * hp[2] > 0 for A, B, C in cell.lines)
        assert type(next(verify.interior_points(cells[0])).x) is int


class TestWitness:
    @pytest.mark.parametrize("s,d", [(1, 0), (Fraction(1, 3), 0), (1, 10**17)],
                             ids=["as-is", "thirds", "1e17"])
    def test_integer_rule_equals_the_fraction_rule(self, s, d):
        """On every residual cell of short sets (one guard of a `guards_2k1`
        or `guards_main` set dropped, random k = 1-10), `verify._witness`
        gives the witness of the Fraction rule, `witness_by_fractions`, for
        the set's sights and for them with two more guards whose boundary
        lines run through the cell's first two `interior_points`, so the
        witness is the third."""
        rng = random.Random(53)
        tested = 0
        for k in range(1, 11):
            sc = scaled_and_shifted(gen_random(GeneratorParams(k=k, seed=k, grid=40 * k)),
                                    s, d, d)
            corners = [hole_guard(i, c, N) for i in range(k) for c in range(4)]
            for place in (guards_2k1, guards_main):
                guards = place(sc).guards
                drop = rng.randrange(len(guards))
                short = guards[:drop] + guards[drop + 1:]
                sights = verify._sights(sc, short)
                for cell in certify(sc, short).residual.pieces:
                    assert verify._witness(cell, sights) == witness_by_fractions(cell, sights)
                    lines = []
                    for p in islice(verify.interior_points(cell), 2):
                        g = rng.choice(corners)
                        a = g.position(sc)
                        lines.append(Guard(anchor=g.anchor, facing=(a.y - p.y, p.x - a.x)))
                    more = sights + verify._sights(sc, lines)
                    third = list(islice(verify.interior_points(cell), 3))[2]
                    assert verify._witness(cell, more) == witness_by_fractions(cell, more) == third
                    tested += 1
        assert tested >= 20


class TestShadowed:
    """`geom.h_shadowed(apex, cell, blockers)`: the closed shadow of one
    building, seen from the apex, holds the cell.  No interior point of a
    closed shadow is seen, so the residual pass skips a guard's region
    when every cell left to cut is shadowed from the guard's corner."""

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shadowed_cells_are_hidden(self, k, seed, data):
        """A random rectangle, the free-space pieces and the triangles of
        another guard's region, seen from any corner of the scene."""
        sc, g, cells = _drawn_guard_and_cells(data, k, seed)
        other = data.draw(st.sampled_from(_anchors(sc)))
        _assert_shadow_verdicts(sc, g.position(sc), cells + visibility_region(sc, other).cells)

    @pytest.mark.parametrize("make", [lambda: gen_3k1_necessity(2), rot3k1_counterexample,
                                      lambda: gen_random(GeneratorParams(k=6, seed=1, grid=40))],
                             ids=["3k1-2", "counterexample", "random-6"])
    def test_every_corner_of_fixed_scenes(self, make):
        """Every building and P corner, against the pieces and their level
        parts: rotated quads included, both verdicts occur."""
        sc = make()
        cells = _pieces_and_level_parts(sc, False)  # only column pieces are cut
        corners = {g.position(sc) for g in _anchors(sc)}
        verdicts = set()
        for pos in corners:
            verdicts |= _assert_shadow_verdicts(sc, pos, cells)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("apex,piece,expected", [
        ((6, 6), ((1, 1), (3, 1), (3, 3), (1, 3)), True),     # behind its own corner
        ((6, 6), ((1, 4), (3, 4), (3, 6), (1, 6)), True),     # touching its own edge's line
        ((6, 6), ((1, 5), (3, 5), (3, 7), (1, 7)), False),    # across that line
        ((8, 4), ((0, 4), (2, 4), (2, 5), (0, 5)), True),     # collinear with the edge y = 4
        ((8, 4), ((0, 3), (2, 3), (2, 5), (0, 5)), False),    # across that edge's line
        ((8, 4), ((5, 6), (6, 6), (5, 7)), True),             # at t2, on the tangent ray
        ((5, 0), ((3, 8), (5, 8), (4, 9)), True),             # a vertex on the tangent ray
        ((5, 0), ((2, 8), (4, 8), (4, 9), (2, 9)), False),    # across the tangent ray
        ((5, 0), ((4, 6), (6, 6), (5, 9)), True),             # on the far edge's line
        ((5, 0), ((1, 6), (9, 6), (9, 8), (1, 8)), False),    # wider than the shadow
        ((5, 0), ((4, 1), (6, 1), (6, 2), (4, 2)), False),    # between apex and building
        ((5, 0), ((4, 4), (6, 4), (5, 5)), True),             # on the near edge, inside
        ((6, 6), ((6, 6), (6, 2), (8, 2)), False),            # at the cell's vertex
        ((5, 2), ((3, 2), (7, 2), (7, 3), (3, 3)), False),    # inside the cell's edge
        ((4, 8), ((4, 0), (5, 0), (5, 1), (4, 1)), True),     # on the line x = 4, touching it
    ], ids=str)
    def test_fixed_cases(self, apex, piece, expected):
        """Against the building [4, 6]^2: from its own corner (6, 6), from
        (8, 4) and (4, 8) on the lines of its edges y = 4 and x = 4, from
        (5, 0) below it, and from a vertex and an edge of the cell."""
        sc = city_a()
        cell = h_cell(tuple(Point(*p) for p in piece))
        building = h_cell(sc.holes[0].corners())
        assert h_shadowed(h_point(Point(*apex)), cell, [building]) == expected
        _assert_shadow_verdicts(sc, Point(*apex), [cell])


def _thirds(scene):
    """The scene scaled by 1/3: every corner a Fraction, every cell's W 3."""
    def third(r):
        return AxisRect(*(Fraction(v, 3) for v in r))
    return Scene(bounds=third(scene.bounds), holes=tuple(map(third, scene.holes)))


def _apexes_on(cell):
    """The cell's vertices and the midpoint of each of its edges."""
    corners = h_cell_to_cell(cell)
    mids = [Point(Fraction(a.x + b.x) / 2, Fraction(a.y + b.y) / 2)
            for a, b in zip(corners, corners[1:] + corners[:1])]
    return [*cell.pts, *map(h_point, mids)]


def _strictly_inside(apex, cell):
    return all(A * apex[0] + B * apex[1] + C * apex[2] > 0 for A, B, C in cell.lines)


def _assert_split_matches_rotation(apex, cells, buildings):
    """For each cell the apex is not strictly inside: the hull's (pts,
    lines) equal the rotated split's, and so do the verdicts of
    `h_sees_all` for every facing and of `h_shadowed`; for each building
    it is not strictly inside, the shadow's lines.  Returns the set of
    (test, verdict) pairs seen."""
    for b in buildings:
        if not _strictly_inside(apex, b):
            assert _h_shadow(apex, b) == shadow_by_rotation(apex, b)
    verdicts = set()
    for cell in cells:
        if _strictly_inside(apex, cell):
            continue
        assert _h_hull(apex, cell) == hull_by_rotation(apex, cell)
        for facing in _FACINGS:
            verdict = h_sees_all(apex, facing, cell, buildings)
            assert verdict == sees_all_by_scan(apex, facing, cell, buildings)
            verdicts.add(("sees all", verdict))
        verdict = h_shadowed(apex, cell, buildings)
        assert verdict == shadowed_by_scan(apex, cell, buildings)
        verdicts.add(("shadowed", verdict))
    return verdicts


class TestHullSplitAgainstRotation:
    """The hull and shadow tests split a cell's edges into a far and a
    near run in one pass (`geom._h_chains`) and read the runs by index;
    they agree with the split of rotated copies and the scan of every
    building (`references.chains_by_rotation`, `references.near_by_scan`)
    on the hull, the shadow and the verdicts."""

    @pytest.mark.parametrize("make,w_above_one", [
        (lambda: gen_random(GeneratorParams(k=4, seed=1, grid=40)), False),
        (lambda: _thirds(gen_random(GeneratorParams(k=4, seed=2, grid=40))), True),
        (lambda: gen_3k1_necessity(2), False), (rot3k1_counterexample, True),
    ], ids=["random-4", "thirds-4", "3k1-2", "counterexample"])
    def test_fixed_scenes(self, make, w_above_one):
        """Axis rectangles, and on the thirds-scaled and rotated scenes
        cells with W > 1; every corner of the scene as an apex, outside
        the cells or on them, and each seventh cell's own vertices and
        edge midpoints as apexes on its boundary."""
        sc = make()
        buildings = [h_cell(h.corners()) for h in sc.holes]
        cells = _pieces_and_level_parts(sc, False) + _pieces_and_level_parts(sc, True)
        verdicts = set()
        for pos in {g.position(sc) for g in _anchors(sc)}:
            verdicts |= _assert_split_matches_rotation(h_point(pos), cells, buildings)
        for cell in cells[::7]:
            for apex in _apexes_on(cell):
                verdicts |= _assert_split_matches_rotation(apex, [cell], buildings)
        assert verdicts == {(test, v) for test in ("sees all", "shadowed") for v in (True, False)}
        assert any(p[2] != 1 for c in cells for p in c.pts) == w_above_one

    @given(st.integers(1, 5), st.integers(0, 10**6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_cells(self, k, seed, data):
        """A random rational rectangle and the free-space pieces, seen
        from a drawn corner of the scene."""
        sc, g, cells = _drawn_guard_and_cells(data, k, seed)
        buildings = [h_cell(h.corners()) for h in sc.holes]
        _assert_split_matches_rotation(h_point(g.position(sc)), cells, buildings)


class TestOracle:
    def test_city_a_exact(self):
        sc = city_a()
        cands = candidate_set(sc)
        assert len(cands) == 16
        res = optimal_guard_count(sc, cands, 6)
        assert res.status == OPTIMAL
        assert res.count in (3, 4)
        assert res.count == exhaustive_min_cover(sc, cands, 6)
        assert certify(sc, res.solution.guards).covered

    @pytest.mark.parametrize("bounds,holes,code,detail", [
        (AxisRect(5, 0, 0, 5), (), "EMPTY_BOUNDS", ("bounds",)),
        (AxisRect(0, 0, 0, 0), (), "EMPTY_BOUNDS", ("bounds",)),
        (AxisRect(0, 0, 10, 0), (), "EMPTY_BOUNDS", ("bounds",)),
        (AxisRect(0, 0, 10, 10), (AxisRect(2, 2, 4, 4), AxisRect(3, 3, 6, 6)),
         "OVERLAPPING_HOLES", (0, 1)),
        (AxisRect(0, 0, 10, 10), (AxisRect(0, 2, 4, 4),), "HOLE_TOUCHES_BOUNDARY", (0,)),
    ])
    def test_refuses_the_scenes_certify_refuses(self, bounds, holes, code, detail):
        """The oracle answers only for scenes that `certify` accepts: a
        scene without area, with overlapping buildings or with a building
        on a side of P raises before any region is built."""
        sc = Scene(bounds=bounds, holes=holes)
        with pytest.raises(SceneValidationError) as e:
            optimal_guard_count(sc, candidate_set(sc), 8)
        assert e.value.violations == [(code, detail)]
        with pytest.raises(SceneValidationError) as e:
            min_roof_guards(City(scene=sc, heights=tuple(1 for _ in holes)), 8)
        assert e.value.violations == [(code, detail)]

    @pytest.mark.parametrize("hole", [
        AxisRect(2, 2, 2, 5),
        AxisRect(2, 5, 4, 3),
        ConvexQuad((Point(2, 2), Point(2, 4), Point(4, 4), Point(4, 2))),
        ConvexQuad((Point(3, 3),) * 4),
    ], ids=["no-width", "upside-down", "clockwise-quad", "point-quad"])
    def test_refuses_holes_that_are_not_cells(self, hole):
        """A hole the parser cannot make, built by a library caller (the
        two quads are rectangles by `is_rectangle`), is refused by
        validation, and so by `certify` and the oracle, before any exact
        form of it is built."""
        sc = Scene(bounds=AxisRect(0, 0, 10, 10), holes=(hole,))
        for check in (validate_scene, lambda s: certify(s, (p_corner_guard(0, E),)),
                      lambda s: optimal_guard_count(s, [p_corner_guard(0, E)], 8)):
            with pytest.raises(SceneValidationError) as e:
                check(sc)
            assert e.value.violations == [("MALFORMED_HOLE", (0,))]

    @pytest.mark.parametrize("hole", [
        (2, 2, 4, 4),
        [2, 2, 4, 4],
        ConvexQuad(((2, 2), (4, 2), (4, 4), (2, 4))),
        ConvexQuad(5),
    ], ids=["tuple", "list", "pairs-quad", "int-quad"])
    def test_refuses_holes_it_cannot_read(self, hole):
        """A hole that is neither an AxisRect nor a ConvexQuad of four
        Points is MALFORMED_HOLE, and the inside and overlap checks skip
        it: a second hole that it would overlap and that touches the
        boundary is reported on its own."""
        sc = Scene(bounds=AxisRect(0, 0, 10, 10), holes=(AxisRect(0, 3, 3, 5), hole))
        expected = [("MALFORMED_HOLE", (1,)), ("HOLE_TOUCHES_BOUNDARY", (0,))]
        for check in (validate_scene, lambda s: certify(s, (p_corner_guard(0, E),)),
                      lambda s: optimal_guard_count(s, [p_corner_guard(0, E)], 8)):
            with pytest.raises(SceneValidationError) as e:
                check(sc)
            assert e.value.violations == expected

    def test_candidate_count_bound(self):
        # 4 corners x 4 wall-aligned facings per building, 4 x 2 inward
        # facings at P's corners, every (anchor, facing) pair once
        scenes = _symmetric_images(gen_random(GeneratorParams(k=3, seed=1, grid=50)))
        scenes += [gen_3k1_necessity(1), gen_3k1_necessity(2), rot3k1_counterexample()]
        for sc in scenes:
            for p_corners in (False, True):
                cands = candidate_set(sc, include_p_corners=p_corners)
                assert len(cands) == 16 * sc.k + 8 * p_corners
                assert len({(g.anchor, g.facing) for g in cands}) == len(cands)

    def test_uncoverable_without_candidates(self):
        sc = Scene(bounds=make_axis_rect(0, 0, 10, 10), holes=())
        res = optimal_guard_count(sc, candidate_set(sc), 3)
        assert res.status == UNCOVERABLE
        assert res.witness_point is not None

    def test_infeasible_within(self):
        res = optimal_guard_count(city_a(), candidate_set(city_a()), 1)
        assert res.status == INFEASIBLE_WITHIN

    def test_oracle_le_algorithms(self):
        for seed in (0, 1):
            for k in (1, 2):
                sc = gen_random(GeneratorParams(k=k, seed=seed, grid=40))
                main = guards_main(sc)
                res = optimal_guard_count(sc, candidate_set(sc), main.count)
                assert res.status == OPTIMAL and res.count <= main.count
                two = guards_2k1(sc)
                res_p = optimal_guard_count(
                    sc, candidate_set(sc, include_p_corners=True), two.count)
                assert res_p.status == OPTIMAL and res_p.count <= two.count

    def test_branch_and_bound_equals_exhaustive(self):
        for seed in (3, 8):
            sc = gen_random(GeneratorParams(k=1, seed=seed, grid=30))
            cands = candidate_set(sc, include_p_corners=True)
            res = optimal_guard_count(sc, cands, 5)
            assert res.count == exhaustive_min_cover(sc, cands, 5)

    def test_face_soundness(self):
        sc = gen_random(GeneratorParams(k=2, seed=4, grid=30))
        cands = candidate_set(sc)[:10]
        faces = build_faces(sc, cands)
        regions = [visibility_region(sc, g).region for g in cands]
        for face, mask in faces[::5]:
            cell = PolygonSet.of_hcells((face,)).cells[0]
            n = len(cell)
            cx = sum(Fraction(p.x) for p in cell) / n
            cy = sum(Fraction(p.y) for p in cell) / n
            samples = [Point(cx, cy)]
            for v in cell[:4]:
                samples.append(Point((cx + v.x) / 2, (cy + v.y) / 2))
            for p in samples:
                got = frozenset(i for i, r in enumerate(regions) if region_contains(r, p))
                assert got == mask

    @pytest.mark.parametrize("make, digest", [
        pytest.param(lambda: gen_random(GeneratorParams(k=2, seed=2, grid=40)),
                     "1f62563d987cfa80bb5db82416c29fd4deda16917fe52bf14fb1cf7b81f082f6",
                     id="random-k2-seed2"),
        pytest.param(lambda: gen_random(GeneratorParams(k=3, seed=5, grid=100)),
                     "e5ca2813a9365ba5f8c29da23c75b20cdc0f63d634ed49b4ab5008359f00a9bb",
                     id="random-k3-seed5"),
        pytest.param(lambda: gen_3k1_necessity(1),
                     "3b0ce527168ac1275661ca2eed7cce4768252d1f286573cd104e2d53bd99a22d",
                     id="rot3k1-k1"),
    ])
    def test_faces_are_pinned(self, make, digest):
        # every face's vertices, lines and mask, in the arrangement's order
        sc = make()
        faces = build_faces(sc, candidate_set(sc, include_p_corners=True))
        doc = repr([(cell.pts, cell.lines, sorted(mask)) for cell, mask in faces])
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_faces_tile_free_space(self):
        scenes = [gen_random(GeneratorParams(k=k, seed=seed, grid=30))
                  for k in (1, 2) for seed in (5, 6)]
        scenes += [gen_3k1_necessity(1), gen_3k1_necessity(2)]
        for sc in scenes:
            faces = build_faces(sc, candidate_set(sc, include_p_corners=True))
            tiles = PolygonSet.of_hcells(cell for cell, _ in faces)
            assert tiles.area() == free_space(sc).area()

    def test_equal_scenes_give_the_same_witness(self):
        sc = gen_random(GeneratorParams(k=2, seed=7, grid=40))
        copy = Scene(bounds=sc.bounds, holes=tuple(sc.holes))
        first = optimal_guard_count(sc, candidate_set(sc, include_p_corners=True), 5)
        # another scene in between empties the one-scene region cache
        optimal_guard_count(city_a(), candidate_set(city_a()), 4)
        second = optimal_guard_count(copy, candidate_set(copy, include_p_corners=True), 5)
        assert first.status == OPTIMAL
        assert second.solution == first.solution

    def test_negative_max_count_is_refused(self):
        sc = city_a()
        cands = candidate_set(sc)
        with pytest.raises(ValueError):
            optimal_guard_count(sc, cands, -1)
        with pytest.raises(ValueError):
            min_cover_of_region(sc, cands, free_space(sc), -1)
        with pytest.raises(ValueError):
            exhaustive_min_cover(sc, cands, -1)
        with pytest.raises(ValueError):
            min_roof_guards(gen_roof_necessity(2), -1)
        with pytest.raises(ValueError):
            min_hitting_set([], -1)


def _symmetric_images(scene):
    """The scene under its four quarter turns, then its mirror image under
    each: the eight symmetries of the square."""
    mirrored = mirror_scene(scene)
    return [rotate_scene_ccw(scene, t) for t in range(4)] + \
        [rotate_scene_ccw(mirrored, t) for t in range(4)]


class TestOracleMetamorphic:
    """The exact minimum is a property of the scene's shape: each of the
    eight symmetries, with candidates built on the image, gives the same
    status and count, at the minimum and one below it."""

    @pytest.mark.parametrize("make,p_corners,minimum", [
        *[pytest.param(lambda k=k, seed=seed: gen_random(
              GeneratorParams(k=k, seed=seed, grid=200)), True, None,
              id=f"random-k{k}-seed{seed}") for k in (1, 2, 3) for seed in (0, 1)],
        pytest.param(lambda: gen_3k1_necessity(1), False, 4, id="rot3k1-k1"),
    ])
    def test_minimum_on_all_eight_symmetries(self, make, p_corners, minimum):
        sc = make()
        bound = 2 * sc.k + 1 if minimum is None else minimum
        base = optimal_guard_count(sc, candidate_set(sc, include_p_corners=p_corners), bound)
        assert base.status == OPTIMAL and base.count == (minimum or base.count)
        for image in _symmetric_images(sc):
            cands = candidate_set(image, include_p_corners=p_corners)
            res = optimal_guard_count(image, cands, bound)
            assert (res.status, res.count) == (OPTIMAL, base.count)
            assert certify(image, res.solution.guards).covered
            below = optimal_guard_count(image, cands, base.count - 1)
            assert (below.status, below.count) == (INFEASIBLE_WITHIN, None)


def _face_masks(scene, candidates, region=None):
    return [sum(1 << c for c in mask) for _, mask in build_faces(scene, candidates, region)]


def _face_answer(masks, max_count):
    """The oracle's (status, count) computed from the face arrangement's
    masks."""
    if 0 in masks:
        return UNCOVERABLE, None
    best = min_hitting_set(masks, max_count)
    return (INFEASIBLE_WITHIN, None) if best is None else (OPTIMAL, len(best))


def _differential_scenes():
    cases = [pytest.param(lambda k=k, seed=seed: gen_random(
                              GeneratorParams(k=k, seed=seed, grid=200)),
                          (1, k + 1, 2 * k + 1), id=f"random-k{k}-seed{seed}")
             for k in range(1, 5) for seed in range(5)]
    cases += [pytest.param(lambda k=k: gen_3k1_necessity(k), (3 * k, 3 * k + 1),
                           id=f"rot3k1-k{k}") for k in (1, 2)]
    cases.append(pytest.param(rot3k1_counterexample, (9, 10), id="rot3k1-k3"))
    return cases


class TestLazyOracleAgreesWithFaces:
    """Differential: the certify-and-refine oracle against a minimum
    hitting set over the full face arrangement, on 132 cases (random
    k = 1..4 and the rotated family, with and without P corners)."""

    @pytest.mark.parametrize("make,max_counts", _differential_scenes())
    def test_status_and_count(self, make, max_counts):
        sc = make()
        for p_corners in (False, True):
            cands = candidate_set(sc, include_p_corners=p_corners)
            masks = _face_masks(sc, cands)
            for max_count in max_counts:
                res = optimal_guard_count(sc, cands, max_count)
                assert (res.status, res.count) == _face_answer(masks, max_count), \
                    (p_corners, max_count)
                if res.status == OPTIMAL:
                    assert certify(sc, res.solution.guards).covered

    def test_gap_pockets_match_the_face_route(self):
        sc = rot3k1_counterexample()
        cands = candidate_set(sc)
        for i in (0, 1):
            gap = space_between(sc, i)
            for pool in (cands, [g for g in cands if g.anchor[1] in (i, i + 1)]):
                masks = _face_masks(sc, pool, gap)
                for max_count in (1, 6):
                    _, count = _face_answer(masks, max_count)
                    assert min_cover_of_region(sc, pool, gap, max_count) == count

    @pytest.mark.parametrize("max_count", [0, 1])
    def test_pocket_unseen_by_every_candidate_is_uncoverable(self, max_count):
        """Each free-space cell's centroid is seen, so the first search
        fails only on the bound; the pocket SW of the building is seen by
        none of these guards, which the pass over every candidate finds."""
        sc = city_a()
        guards = [hole_guard(0, 0, N), hole_guard(0, 0, E),
                  hole_guard(0, 1, N), hole_guard(0, 2, N)]
        for cell in free_space(sc).pieces:
            p = h_centroid(cell)
            assert any(region_contains(visibility_region(sc, g).region, p) for g in guards)
        res = optimal_guard_count(sc, guards, max_count)
        assert res.status == UNCOVERABLE
        p = res.witness_point
        assert region_contains(free_space(sc), p)
        assert not any(region_contains(visibility_region(sc, g).region, p) for g in guards)
        assert not any(sees(sc, g, p) for g in guards)
        assert _face_answer(_face_masks(sc, guards), max_count)[0] == UNCOVERABLE

    @pytest.mark.parametrize("bounds,buildings,guards,max_count", [
        # a base cell's centroid (3/2, 10) lies on the guard's boundary line
        (20, [(3, 7, 5, 10)], [hole_guard(0, 2, S)], 1),
        # the largest residual cell's centroid (21/2, 1/2) lies on the
        # grazing line of the guard at (2, 9) through the corners (7, 4)
        # and (10, 1)
        (12, [(6, 3, 7, 4), (2, 9, 3, 10), (10, 1, 11, 2)],
         [p_corner_guard(3, S), hole_guard(1, 0, S), hole_guard(0, 1, W),
          hole_guard(2, 3, W), hole_guard(1, 1, E), hole_guard(2, 3, S)], 6),
    ])
    def test_uncoverable_witness_is_seen_by_no_candidate(self, bounds, buildings, guards,
                                                         max_count):
        """The witness is a point of the largest cell left by every
        candidate's region, and no candidate `sees` it."""
        sc = Scene(bounds=make_axis_rect(0, 0, bounds, bounds),
                   holes=tuple(make_axis_rect(*b) for b in buildings))
        res = optimal_guard_count(sc, guards, max_count)
        assert res.status == UNCOVERABLE
        rest = h_subtract(free_space(sc).pieces,
                          [c for g in guards for c in visibility_region(sc, g).cells])
        assert region_contains(PolygonSet.of_hcells([max(rest, key=h_area2)]), res.witness_point)
        assert not any(sees(sc, g, res.witness_point) for g in guards)


def _loop_scenes():
    cases = [pytest.param(lambda k=k: gen_random(GeneratorParams(k=k, seed=k, grid=200)),
                          2 * k + 1, id=f"random-k{k}") for k in range(1, 9)]
    cases += [pytest.param(lambda k=k: gen_3k1_necessity(k), 3 * k + 1, id=f"rot3k1-k{k}")
              for k in (1, 2)]
    return cases


class TestLazyOracleKeepsItsWork:
    """Differential: the loop that keeps its work between rounds (a lower
    bound, residuals per chosen prefix, masks by point location in each
    region's runs) against the same loop with every round from scratch
    and every mask a test of every region's cells: the same status,
    chosen set, witness and witness list, points and masks, at every
    `max_count` from 0 to the minimum (or to the first UNCOVERABLE
    answer, which every larger `max_count` repeats), on random scenes at
    grid 200 and the rotated family, and on their shift by 10^17, where
    the float bboxes' padding spans the whole scene."""

    @pytest.mark.parametrize("make,bound", _loop_scenes())
    @pytest.mark.parametrize("shift", [0, 10 ** 17], ids=["plain", "1e17"])
    def test_same_rounds_as_from_scratch(self, make, bound, shift):
        sc = scaled_and_shifted(make(), 1, shift, shift)
        base = free_space(sc).pieces
        for p_corners in (False, True):
            cands = candidate_set(sc, include_p_corners=p_corners)
            for max_count in range(bound + 1):
                got = _certify_and_refine(sc, cands, base, max_count)
                assert got == certify_and_refine_from_scratch(sc, cands, base, max_count), \
                    (p_corners, max_count)
                if got[0] != INFEASIBLE_WITHIN:
                    break
            assert got[0] == OPTIMAL or not p_corners

    @pytest.mark.parametrize("make,p_corners,max_count,least", [
        pytest.param(lambda: gen_random(GeneratorParams(k=2, seed=2, grid=200)), True, 5, 2,
                     id="random-k2"),
        pytest.param(lambda: gen_3k1_necessity(2), False, 7, 7, id="rot3k1-k2")])
    def test_cells_only_for_chosen_candidates(self, monkeypatch, make, p_corners, max_count,
                                              least):
        """The masks read each region's runs, so a region's cells are built
        only when some round chooses it and subtracts it."""
        sc = make()  # the rotated family reads regions of its own
        reset_region_cache(monkeypatch)
        built, chosen = [], set()
        triangles = visibility.VisibilityRegion._triangles
        monkeypatch.setattr(visibility.VisibilityRegion, "_triangles",
                            lambda vr: built.append(vr.guard) or triangles(vr))
        search = oracle.min_hitting_set

        def recorded(*args):
            best = search(*args)
            chosen.update(best or ())
            return best

        monkeypatch.setattr(oracle, "min_hitting_set", recorded)
        cands = candidate_set(sc, include_p_corners=p_corners)
        res = optimal_guard_count(sc, cands, max_count)
        assert res.status == OPTIMAL and res.count == least
        assert built and len(built) == len(set(built))
        assert set(built) <= {cands[i] for i in chosen} < set(cands)


def _residual_scenes():
    scenes = [gen_random(GeneratorParams(k=k, seed=k + grid, grid=grid))
              for grid in (30, 200) for k in range(1, 5)]
    return scenes + [gen_3k1_necessity(1), gen_3k1_necessity(2), rot3k1_counterexample()]


class TestResidualDropsWhatItsGuardSees:
    """Differential: `_residual` on an empty memo, which drops each cell
    that a chosen guard sees whole before that guard's region cuts,
    against one `h_subtract` of the base by every chosen region's cells:
    the same cells, vertices, lines and order, and every cached prefix
    that of its own subtraction.  Random sorted sets of 1 to 5 candidates,
    P corners included, on random scenes at k = 1..4 (grids 30 and 200)
    and the rotated families, and on their shift by 10^17.  The hull
    proof must drop some cell in the corpus."""

    @pytest.mark.parametrize("shift", [0, 10 ** 17], ids=["plain", "1e17"])
    def test_same_cells_as_one_subtraction(self, monkeypatch, shift):
        proofs = []
        clear = oracle.h_clear
        monkeypatch.setattr(oracle, "h_clear",
                            lambda *args: proofs.append(clear(*args)) or proofs[-1])
        rng = random.Random(46)
        for sc in _residual_scenes():
            sc = scaled_and_shifted(sc, 1, shift, shift)
            base = free_space(sc).pieces
            cands = candidate_set(sc, include_p_corners=True)
            regions = [visibility_region(sc, c) for c in cands]
            for _ in range(25):
                chosen = sorted(rng.sample(range(len(cands)), rng.randint(1, 5)))
                residuals = {(): base}
                got = oracle._residual(sc, residuals, chosen, regions)
                for n in range(len(chosen) + 1):
                    expected = h_subtract(base, [c for i in chosen[:n] for c in regions[i].cells])
                    assert [(c.pts, c.lines) for c in residuals[tuple(chosen[:n])]] == \
                        [(c.pts, c.lines) for c in expected], (chosen, n)
                assert got is residuals[tuple(chosen)]
        assert any(proofs)


def _brute_min_hitting_set(masks, n):
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            bits = sum(1 << c for c in subset)
            if all(m & bits for m in masks):
                return size
    return None


class TestMinHittingSet:
    """Differential: the branch and bound against enumeration of every
    candidate subset by increasing size."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12),
        st.integers(0, n))))
    def test_matches_enumeration(self, case):
        n, masks, max_count = case
        least = _brute_min_hitting_set(masks, n)
        got = min_hitting_set(masks, max_count)
        if least is None or least > max_count:
            assert got is None
            return
        assert got is not None and len(got) == least
        assert all(0 <= c < n for c in got)
        bits = sum(1 << c for c in got)
        assert all(m & bits for m in masks)
        assert min_hitting_set(masks, max_count) == got

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        st.integers(0, n))))
    # the search finds {0, 1, 3, 4} before the minimum {0, 5, 9}
    @example((10, [5, 592, 38, 1, 648, 518, 290, 56], 10))
    def test_lower_bound_keeps_the_set(self, case):
        """Any `lower` up to the true minimum stops the search at the set
        the full search returns, or finds none when there is none."""
        n, masks, max_count = case
        least = _brute_min_hitting_set(masks, n)
        full = min_hitting_set(masks, max_count)
        for lower in range(0, (n if least is None else least) + 1):
            assert min_hitting_set(masks, max_count, lower) == full

    def test_fixed_cases(self):
        assert min_hitting_set([], 0) == frozenset()
        assert min_hitting_set([0b1, 0], 5) is None
        assert min_hitting_set([0b1], 0) is None
        assert min_hitting_set([0b1], 1) == frozenset({0})

    def test_duplicated_and_dominated_candidates(self):
        # 0 and 2 hit the same faces (the lower index stays); 1 hits a
        # subset of the faces 3 hits
        masks = [0b0101, 0b1010, 0b1000]
        assert min_hitting_set(masks, 2) == frozenset({0, 3})
        assert min_hitting_set(masks, 1) is None


class TestCertifyAgreesWithFaces:
    """Differential: the residual pass (certify) and the face arrangement
    (build_faces) cut the same regions by different routes; a guard subset
    covers iff it meets every face's mask."""

    def test_random_subsets(self):
        rng = random.Random(13)
        seen = set()
        for k in (1, 2):
            for seed in (1, 2, 3):
                sc = gen_random(GeneratorParams(k=k, seed=seed, grid=40))
                cands = candidate_set(sc)
                masks = {mask for _, mask in build_faces(sc, cands)}
                subsets = [set(), set(range(len(cands)))]
                subsets += [set(rng.sample(range(len(cands)), rng.randint(1, len(cands))))
                            for _ in range(25)]
                for subset in subsets:
                    covered = certify(sc, [cands[i] for i in sorted(subset)]).covered
                    assert covered == all(m & subset for m in masks), (k, seed, subset)
                    seen.add(covered)
        assert seen == {True, False}


class TestRoofOracle:
    def test_roof_necessity_minimum(self):
        for k in (2, 3, 4, 5):
            city = gen_roof_necessity(k)
            assert min_roof_guards(city, k - 1) is None
            assert min_roof_guards(city, k) == k


def _ref_blocked(a, za, b, zb, base, h):
    """Unfiltered reference: does the open 3D segment (a, za)-(b, zb) meet the
    prism's open interior?  The footprint run is the reference closed clip
    kept iff its midpoint is interior (the footprint is convex), and z is
    linear, so some z < h on the open run iff it holds at one of its ends."""
    run = ref_interior_run(a, b, base)
    return run is not None and min(za + t * (zb - za) for t in run) < h


def _ref_roof_cover_sets(city, candidates, ties):
    """Every roof sample against every prism; counts in `ties` the blocking
    tests whose prism is exactly as tall as the lower end of the segment."""
    scene, heights = city.scene, city.heights
    out = []
    for g in candidates:
        v, vz = g.position(scene), heights[g.anchor[1]]
        fx, fy = g.facing
        covered = set()
        for j, roof in enumerate(scene.holes):
            hz = heights[j]
            seen = True
            for p in roof_samples(roof):
                if (p.x - v.x) * fx + (p.y - v.y) * fy < 0:
                    seen = False
                    break
                if p == v:
                    continue
                for base, h in zip(scene.holes, heights):
                    ties[0] += h == min(vz, hz)
                    if _ref_blocked(v, vz, p, hz, base, h):
                        seen = False
                        break
                if not seen:
                    break
            if seen:
                covered.add(j)
        out.append(frozenset(covered))
    return out


def _rotated_cities():
    scenes = [gen_3k1_necessity(1), gen_3k1_necessity(2), rot3k1_counterexample()]
    for sc in scenes:
        k = sc.k
        for heights in ((2,) * k, tuple(range(1, k + 1)), tuple(range(k, 0, -1))):
            yield City(scene=sc, heights=heights)


def _random_low_cities():
    rng = random.Random(23)
    for k in (2, 3, 4, 5, 6):
        for seed in (0, 1):
            sc = gen_random(GeneratorParams(k=k, seed=seed, grid=40))
            yield City(scene=sc, heights=tuple(rng.randint(1, 3) for _ in range(k)))


def _filter_edge_city(b_top, b_height):
    """Guard building A (height 5, guard at its SE corner (4, 5)), a middle
    building B = [10, 1, 12, b_top] and the roof C = [20, 5, 22, 7] at
    height 3.  With b_top = 5 the sight lines to C's samples on y = 5 run
    along B's top side and the others pass above it."""
    sc = parse_city({"bounds": [0, 0, 30, 10], "buildings": [
        {"base": [2, 5, 4, 8], "height": 5},
        {"base": [10, 1, 12, b_top], "height": b_height},
        {"base": [20, 5, 22, 7], "height": 3}]}).scene
    return City(scene=sc, heights=(5, b_height, 3)), hole_guard(0, 1, E)


class TestRoofCoverSets:
    @pytest.mark.parametrize("corpus", ["random", "rotated"])
    def test_matches_unfiltered_reference(self, corpus):
        cities = list(_random_low_cities() if corpus == "random" else _rotated_cities())
        ties, verdicts = [0], set()
        for city in cities:
            cands = candidate_set(city.scene)
            got = roof_cover_sets(city, cands)
            assert got == _ref_roof_cover_sets(city, cands, ties)
            verdicts.update(bool(s) for s in got)
        assert ties[0] > 0, "no prism exactly as tall as a segment's lower end"
        assert verdicts == {True, False}

    def test_prism_as_tall_as_lower_end_does_not_block(self):
        # B's footprint spans every sight line from the guard to C's roof,
        # which crosses it at heights between 4 and 5.
        for b_height, blocked in ((3, False), (4, False), (5, True), (100, True)):
            city, g = _filter_edge_city(9, b_height)
            assert (2 in roof_cover_sets(city, [g])[0]) is not blocked, b_height
        # A flat sight line at B's height.
        city, g = _filter_edge_city(9, 3)
        assert 2 in roof_cover_sets(City(scene=city.scene, heights=(3, 3, 3)), [g])[0]

    @pytest.mark.parametrize("turns", [0, 1, 2, 3])
    def test_segment_along_footprint_side_does_not_block(self, turns):
        for b_top, covered in ((5, True), (6, False)):
            city, g = _filter_edge_city(b_top, 100)
            sc = rotate_scene_ccw(city.scene, turns)
            [g] = rotate_guards([g], city.scene, turns)
            got = roof_cover_sets(City(scene=sc, heights=city.heights), [g])[0]
            assert (2 in got) is covered, (b_top, turns)

    def test_guard_on_bounding_corner_is_refused(self):
        city = gen_roof_necessity(3)
        for corner in range(4):
            with pytest.raises(ValueError, match="building corners"):
                roof_cover_sets(city, [p_corner_guard(corner, E)])

    def test_roof_behind_guard(self):
        city, g = _filter_edge_city(9, 1)
        assert roof_cover_sets(city, [g, hole_guard(0, 1, W)]) == [
            frozenset({1, 2}), frozenset({0})]
