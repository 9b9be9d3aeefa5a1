import hashlib
import json
import subprocess
import sys

import pytest

from cityguard.cli import main
from cityguard.errors import SceneValidationError
from cityguard.geom import Point, h_to_point
from cityguard.instances import GeneratorParams, gen_random, gen_random_city
from cityguard.io import (
    FormatError, canonical_json, certificate_doc, load_city, load_solution, parse_city,
    parse_solution, save_city, save_solution, solution_doc,
)
from cityguard.model import W, hole_guard, p_corner_guard, Solution
from cityguard.placement import (
    ALLOW_P_CORNER, BUILDINGS_ONLY, city_guarding, guards_2k1, guards_main,
)
from cityguard.svg import render_svg
from cityguard.verify import certify
from references import reset_region_cache
from test_placement import CASE3_BASES


def city_a_doc():
    return {"bounds": [0, 0, 10, 10],
            "buildings": [{"base": [4, 4, 6, 6], "height": 3}]}


class TestFormats:
    def test_parse_city_a(self):
        city = parse_city(city_a_doc())
        assert city.scene.k == 1 and city.heights == (3,)

    def test_zero_height_rejected(self):
        doc = {"bounds": [0, 0, 10, 10],
               "buildings": [{"base": [4, 4, 6, 6], "height": 0}]}
        with pytest.raises(FormatError) as e:
            parse_city(doc)
        assert "height must be positive" in str(e.value)

    def test_unknown_fields_rejected(self):
        doc = city_a_doc()
        doc["extra"] = 1
        with pytest.raises(FormatError):
            parse_city(doc)
        doc2 = city_a_doc()
        doc2["buildings"][0]["color"] = "red"
        with pytest.raises(FormatError):
            parse_city(doc2)

    def test_rational_strings(self):
        doc = {"bounds": [0, 0, "21/2", 10],
               "buildings": [{"base": [4, 4, "13/2", 6], "height": "1/3"}]}
        city = parse_city(doc)
        assert str(city.scene.bounds.x1) == "21/2"

    def test_invalid_scene_propagates(self):
        doc = {"bounds": [0, 0, 10, 10],
               "buildings": [{"base": [0, 4, 2, 6], "height": 1}]}
        with pytest.raises(SceneValidationError):
            parse_city(doc)

    def test_round_trip_byte_stable(self, tmp_path):
        city = gen_random_city(GeneratorParams(k=4, seed=9, grid=50))
        p1 = tmp_path / "a.json"
        save_city(city, p1)
        first = p1.read_bytes()
        city2 = load_city(p1)
        p2 = tmp_path / "b.json"
        save_city(city2, p2)
        assert p2.read_bytes() == first

    def test_solution_round_trip(self, tmp_path):
        sol = Solution(algorithm="walls-2k1",
                       guards=(hole_guard(0, 2, W), p_corner_guard(1, W)))
        path = tmp_path / "sol.json"
        save_solution(sol, path)
        sol2 = load_solution(path)
        assert sol2.algorithm == sol.algorithm and sol2.guards == sol.guards
        save_solution(sol2, tmp_path / "sol2.json")
        assert (tmp_path / "sol2.json").read_bytes() == path.read_bytes()

    def test_trace_round_trip(self):
        """A placement's trace survives its document, its lists made tuples
        again, and a solution without one writes no `trace`: `guards_main`,
        `guards_2k1` and both `city_guarding` modes on random cities at
        k = 1..8 and on the Case 3ii city."""
        cities = [gen_random_city(GeneratorParams(k=k, seed=k, grid=40 * k)) for k in range(1, 9)]
        cities.append(parse_city({"bounds": [0, 0, 1000, 1000], "buildings": [
            {"base": b, "height": i + 1}
            for i, b in enumerate(CASE3_BASES + [[925, 505, 945, 515]])]}))
        labels = set()
        for city in cities:
            for place in (guards_main, guards_2k1,
                          lambda sc: city_guarding(city, BUILDINGS_ONLY),
                          lambda sc: city_guarding(city, ALLOW_P_CORNER)):
                sol = place(city.scene)
                doc = solution_doc(sol)
                assert ("trace" in doc) == bool(sol.trace)
                assert parse_solution(doc) == sol
                assert parse_solution(json.loads(canonical_json(doc))) == sol
                labels.update(entry[0] for entry in sol.trace)
        assert {"case0", "case3ii", "mode", "roof-fix"} <= labels

    def test_deep_trace_rejected_with_path(self):
        """A trace nested past the interpreter's recursion limit is a
        format error, not a RecursionError; the JSON parser alone accepts
        nesting this deep."""
        deep = []
        for _ in range(600):
            deep = [deep]
        with pytest.raises(FormatError) as e:
            parse_solution({"algorithm": "x", "guards": [], "trace": [["a", deep]]})
        assert e.value.path == "$.trace[0]"

    def test_quad_round_trip(self, tmp_path):
        doc = {"bounds": [0, 0, 20, 20],
               "buildings": [{"quad": [[10, 4], [14, 8], [10, 12], [6, 8]],
                              "height": 2}]}
        city = parse_city(doc)
        path = tmp_path / "q.json"
        save_city(city, path)
        assert load_city(path) == city

    @pytest.mark.parametrize("anchor, facing, path", [
        ({"building": 0, "corner": 7}, [1, 0], "$.guards[0].anchor.corner"),
        ({"building": 0, "corner": -1}, [1, 0], "$.guards[0].anchor.corner"),
        ({"building": -1, "corner": 0}, [1, 0], "$.guards[0].anchor.building"),
        ({"building": 1.5, "corner": 0}, [1, 0], "$.guards[0].anchor.building"),
        ({"building": "0", "corner": 0}, [1, 0], "$.guards[0].anchor.building"),
        ({"building": 0, "corner": True}, [1, 0], "$.guards[0].anchor.corner"),
        ({"p_corner": 9}, [1, 0], "$.guards[0].anchor.p_corner"),
        ({"p_corner": -2}, [1, 0], "$.guards[0].anchor.p_corner"),
        ({"building": 0, "corner": 1}, [0, 0], "$.guards[0].facing"),
        ({"building": 0, "corner": 1}, ["0/3", 0], "$.guards[0].facing"),
        ({"building": 0, "corner": 1}, [True, 0], "$.guards[0].facing"),
    ])
    def test_malformed_guard_rejected_with_path(self, anchor, facing, path):
        doc = {"algorithm": "x", "guards": [{"anchor": anchor, "facing": facing}]}
        with pytest.raises(FormatError) as e:
            parse_solution(doc)
        assert e.value.path == path

    @pytest.mark.parametrize("parse, doc, path", [
        (parse_solution, [1], "$"),
        (parse_solution, {"algorithm": "x", "guards": 5}, "$.guards"),
        (parse_solution, {"algorithm": "x", "guards": [3]}, "$.guards[0]"),
        (parse_solution, {"algorithm": "x", "guards": [{"anchor": 3, "facing": [1, 0]}]},
         "$.guards[0].anchor"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": 5}, "$.trace"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": [[]]}, "$.trace[0]"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": [["a"], [1, "b"]]},
         "$.trace[1]"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": [["a", [True]]]},
         "$.trace[0]"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": [["a", 1.5]]}, "$.trace[0]"),
        (parse_solution, {"algorithm": "x", "guards": [], "trace": [["a"], ["b", {"c": 1}]]},
         "$.trace[1]"),
        (parse_city, {"bounds": [0, 0, 10, 10], "buildings": 5}, "$.buildings"),
        (parse_city, {"bounds": [0, 0, 10, 10], "buildings": [7]}, "$.buildings[0]"),
        # JSON booleans are not rationals, although Python counts them as ints
        (parse_city, {"bounds": [True, 0, 10, 10]}, "$.bounds"),
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"base": [1, 1, 3, 3], "height": True}]},
         "$.buildings[0].height"),
        # a shape or a coordinate the constructors refuse names its own path
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"base": [6, 6, 4, 4], "height": 1}]},
         "$.buildings[0].base"),
        (parse_city, {"bounds": [0, 0, 10, 10], "buildings": [
            {"base": [1, 1, 2, 2], "height": 1}, {"base": [4, 5, 6, 5], "height": 1}]},
         "$.buildings[1].base"),
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"base": [1, "x", 3, 3], "height": 1}]},
         "$.buildings[0].base"),
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"quad": [[2, 2], [6, 2], [3, 3], [2, 6]], "height": 1}]},
         "$.buildings[0].quad"),
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"quad": [[2, 2], [2, 6], [6, 6], [6, 2]], "height": 1}]},
         "$.buildings[0].quad"),
        (parse_city, {"bounds": [0, 0, 10, 10],
                      "buildings": [{"quad": [[1, 1], [3, "1/0"], [3, 3], [1, 3]], "height": 1}]},
         "$.buildings[0].quad"),
        (parse_city, {"bounds": [10, 0, 0, 10]}, "$.bounds"),
        (parse_city, {"bounds": [0, 3, 10, 3],
                      "buildings": [{"base": [1, 1, 2, 2], "height": 1}]}, "$.bounds"),
        (parse_solution, {"algorithm": [1, {"a": None}], "guards": []}, "$.algorithm"),
        (parse_solution, {"algorithm": 7, "guards": []}, "$.algorithm"),
        (parse_solution, {"algorithm": True, "guards": []}, "$.algorithm"),
        (parse_solution, {"algorithm": None, "guards": []}, "$.algorithm"),
    ])
    def test_non_object_rejected_with_path(self, parse, doc, path):
        with pytest.raises(FormatError) as e:
            parse(doc)
        assert e.value.path == path
        assert str(e.value).startswith(path + ": ")


# The certificate and the SVG of an uncovered k = 2 scene (grid 12, seed 8,
# the 2k+1 set without its first guard), as they leave the library: they
# pin the Point rings made from the kernel's cells, to the byte.
PINNED_CERTIFICATE = (
    '{"covered":false,"regions":[{"anchor":["hole",0,2],"facing":[-1,0],'
    '"rings":[[[6,7],[6,12],[1,12]],[[6,7],[3,10],[3,8]],[[6,7],[3,8],[1,8]],'
    '[[6,7],[0,"41/5"],[0,7]]]},{"anchor":["hole",1,0],"facing":[-1,0],'
    '"rings":[[[1,8],[1,12],[0,12]],[[1,8],[0,12],[0,0]],[[1,8],[0,0],[1,'
    '0]]]},{"anchor":["hole",1,2],"facing":[-1,0],"rings":[[[3,10],[3,12],[0,'
    '12]],[[3,10],[0,12],[0,10]]]},{"anchor":["p",1],"facing":[-1,0],'
    '"rings":[[[12,0],[12,12],["12/7",12]],[[12,0],[6,7],[6,6]],[[12,0],[6,'
    '6],[4,6]],[[12,0],["4/3",8],[1,8]],[[12,0],[0,"96/11"],[0,0]]]}],'
    '"residual":[[[3,"27/4"],[3,7],["8/3",7]],[[4,6],[4,7],[3,7],[3,'
    '"27/4"]]],"residual_area":"2/3","witness":["7/2","107/16"]}')
PINNED_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
    '<polygon points="0.000,1000.000 1000.000,1000.000 1000.000,0.000 0.000,0.000"'
    ' fill="#ffffff" fill-opacity="1" stroke="#000000" stroke-width="1"/>\n'
    '<polygon points="500.000,416.667 500.000,0.000 83.333,0.000"'
    ' fill="#1f77b4" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="500.000,416.667 250.000,166.667 250.000,333.333"'
    ' fill="#1f77b4" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="500.000,416.667 250.000,333.333 83.333,333.333"'
    ' fill="#1f77b4" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="500.000,416.667 0.000,316.667 0.000,416.667"'
    ' fill="#1f77b4" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="83.333,333.333 83.333,0.000 0.000,0.000"'
    ' fill="#ff7f0e" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="83.333,333.333 0.000,0.000 0.000,1000.000"'
    ' fill="#ff7f0e" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="83.333,333.333 0.000,1000.000 83.333,1000.000"'
    ' fill="#ff7f0e" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="250.000,166.667 250.000,0.000 0.000,0.000"'
    ' fill="#2ca02c" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="250.000,166.667 0.000,0.000 0.000,166.667"'
    ' fill="#2ca02c" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="1000.000,1000.000 1000.000,0.000 142.857,0.000"'
    ' fill="#d62728" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="1000.000,1000.000 500.000,416.667 500.000,500.000"'
    ' fill="#d62728" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="1000.000,1000.000 500.000,500.000 333.333,500.000"'
    ' fill="#d62728" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="1000.000,1000.000 111.111,333.333 83.333,333.333"'
    ' fill="#d62728" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="1000.000,1000.000 0.000,272.727 0.000,1000.000"'
    ' fill="#d62728" fill-opacity="0.12" stroke="none" stroke-width="1"/>\n'
    '<polygon points="333.333,500.000 500.000,500.000 500.000,416.667 333.333,416.667"'
    ' fill="#555555" fill-opacity="1" stroke="#000000" stroke-width="1"/>\n'
    '<polygon points="83.333,333.333 250.000,333.333 250.000,166.667 83.333,166.667"'
    ' fill="#555555" fill-opacity="1" stroke="#000000" stroke-width="1"/>\n'
    '<polygon points="250.000,437.500 250.000,416.667 222.222,416.667"'
    ' fill="#ff0000" fill-opacity="0.6" stroke="#aa0000" stroke-width="1"/>\n'
    '<polygon points="333.333,500.000 333.333,416.667 250.000,416.667 250.000,437.500"'
    ' fill="#ff0000" fill-opacity="0.6" stroke="#aa0000" stroke-width="1"/>\n'
    '<circle cx="291.667" cy="442.708" r="6" fill="#ff0000"/>\n'
    '<line x1="500.000" y1="416.667" x2="480.000" y2="416.667"'
    ' stroke="#1f77b4" stroke-width="4"/>\n'
    '<circle cx="500.000" cy="416.667" r="5"'
    ' fill="#1f77b4" stroke="#000000" stroke-width="1"/>\n'
    '<line x1="83.333" y1="333.333" x2="63.333" y2="333.333"'
    ' stroke="#ff7f0e" stroke-width="4"/>\n'
    '<circle cx="83.333" cy="333.333" r="5"'
    ' fill="#ff7f0e" stroke="#000000" stroke-width="1"/>\n'
    '<line x1="250.000" y1="166.667" x2="230.000" y2="166.667"'
    ' stroke="#2ca02c" stroke-width="4"/>\n'
    '<circle cx="250.000" cy="166.667" r="5"'
    ' fill="#2ca02c" stroke="#000000" stroke-width="1"/>\n'
    '<line x1="1000.000" y1="1000.000" x2="980.000" y2="1000.000"'
    ' stroke="#d62728" stroke-width="4"/>\n'
    '<circle cx="1000.000" cy="1000.000" r="5"'
    ' fill="#d62728" stroke="#000000" stroke-width="1"/>\n'
    '</svg>\n')


class TestSvg:
    def test_structure_and_determinism(self):
        sc = parse_city(city_a_doc()).scene
        sol = guards_2k1(sc)
        cert = certify(sc, sol.guards)
        svg1 = render_svg(sc, sol, cert)
        svg2 = render_svg(sc, sol, cert)
        assert svg1 == svg2
        assert svg1.count("<circle") == 3          # one marker per guard
        assert svg1.count('fill="#555555"') == 1   # one hole
        assert "<svg" in svg1 and svg1.rstrip().endswith("</svg>")

    def test_residual_highlight(self):
        sc = parse_city(city_a_doc()).scene
        cert = certify(sc, [hole_guard(0, 1, (1, 0))])
        svg = render_svg(sc, None, cert)
        assert 'fill="#ff0000"' in svg

    def test_exits_are_pinned(self):
        sc = gen_random(GeneratorParams(k=2, seed=8, grid=12))
        sol = guards_2k1(sc)
        guards = sol.guards[1:]
        cert = certify(sc, guards)
        assert not cert.covered and len(cert.residual.cells) == 2
        doc = json.dumps(certificate_doc(cert), sort_keys=True, separators=(",", ":"))
        assert doc == PINNED_CERTIFICATE
        svg = render_svg(sc, Solution(algorithm=sol.algorithm, guards=guards), cert)
        assert svg == PINNED_SVG

    @pytest.mark.parametrize("k,seed,digest", [
        (16, 3, "f7252fff818f9599da889f4b63434c751bde6884c63820f7dc05b6ccbf61d73b"),
        (28, 0, "af4b5ca2df1124f481443bac582f2c2cd62219f1f4f1a8c90d2692ad1b7a20a4"),
        (48, 1, "e4f3d934343d2a145489f29b6f5c42b8d9e75d099471e870b93d73fdb526b0e3"),
        (64, 0, "e1aaf3c93a4e3cd0ce7679a381c3237ec50ba1c9b53cbc02547506a13fa7babb"),
    ])
    def test_larger_certificates_are_pinned(self, k, seed, digest):
        """The compact certificate JSON of a 2k+1 set missing its middle
        guard, by SHA-256: residual rings, witness and every region."""
        sc = gen_random(GeneratorParams(k=k, seed=seed, grid=1000))
        guards = guards_2k1(sc).guards
        short = guards[:len(guards) // 2] + guards[len(guards) // 2 + 1:]
        cert = certify(sc, short)
        assert not cert.covered
        doc = json.dumps(certificate_doc(cert), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_solve_verify(self, tmp_path):
        scene = tmp_path / "s.json"
        sol = tmp_path / "g.json"
        assert self.run("gen", "--family", "random", "--k", "3", "--seed", "5",
                        "--grid", "40", "--out", str(scene)) == 0
        assert self.run("solve", "--algo", "walls-main", "--in", str(scene),
                        "--out", str(sol)) == 0
        assert self.run("verify", "--scene", str(scene), "--solution", str(sol)) == 0
        assert self.run("solve", "--algo", "city", "--mode", "allow-p-corner",
                        "--in", str(scene), "--out", str(sol)) == 0
        assert self.run("verify", "--scene", str(scene), "--solution", str(sol),
                        "--city") == 0

    def test_verify_failure_exit_code(self, tmp_path):
        scene = tmp_path / "s.json"
        sol = tmp_path / "g.json"
        save_city(parse_city(city_a_doc()), scene)
        save_solution(Solution(algorithm="x", guards=(hole_guard(0, 1, (1, 0)),)), sol)
        assert self.run("verify", "--scene", str(scene), "--solution", str(sol)) == 3

    def test_seen_witness_is_not_printed(self, tmp_path, monkeypatch, capsys):
        """verify checks an uncovered certificate's witness with `sees` for
        every guard: a witness some guard sees (here, made the first
        guard's own corner) is refused with one stderr line and exit 3,
        and neither NOT covered nor the certificate file is written."""
        import cityguard.verify as verify
        scene = tmp_path / "s.json"
        sol = tmp_path / "g.json"
        cert = tmp_path / "c.json"
        save_city(parse_city(city_a_doc()), scene)
        save_solution(Solution(algorithm="x", guards=(hole_guard(0, 1, (1, 0)),)), sol)
        reset_region_cache(monkeypatch)
        monkeypatch.setattr(verify, "_witness", lambda cell, sights: h_to_point(sights[0][0]))
        assert self.run("verify", "--scene", str(scene), "--solution", str(sol),
                        "--cert", str(cert)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["certification failure: witness (6, 4) is seen by "
                                    "the guard at ('hole', 0, 1) facing (1, 0)"]
        assert not cert.exists()

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bounds": [0, 0, 10, 10],
                                   "buildings": [{"base": [0, 4, 2, 6], "height": 1}]}))
        out = tmp_path / "o.json"
        assert self.run("solve", "--algo", "roof", "--in", str(bad),
                        "--out", str(out)) == 2

    @pytest.mark.parametrize("command", ["solve", "verify", "oracle"])
    def test_coordinates_past_the_float_range_exit_2(self, tmp_path, capsys, command):
        """A k = 3 city shifted by 10^309, past what a float holds, is
        refused at validation with one line and exit 2."""
        scene, shifted, sol = tmp_path / "s.json", tmp_path / "far.json", tmp_path / "g.json"
        assert self.run("gen", "--family", "random", "--k", "3", "--seed", "5",
                        "--grid", "40", "--out", str(scene)) == 0
        assert self.run("solve", "--algo", "walls-2k1", "--in", str(scene),
                        "--out", str(sol)) == 0
        doc = json.loads(scene.read_text())
        far = 10 ** 309
        doc["bounds"] = [int(v) + far for v in doc["bounds"]]
        for b in doc["buildings"]:
            b["base"] = [int(v) + far for v in b["base"]]
        shifted.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = {"solve": ["solve", "--algo", "walls-2k1", "--in", str(shifted),
                          "--out", str(tmp_path / "o.json")],
                "verify": ["verify", "--scene", str(shifted), "--solution", str(sol)],
                "oracle": ["oracle", "--scene", str(shifted), "--max", "7"]}[command]
        assert self.run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["validation error: COORDINATE_OUT_OF_RANGE('bounds',)"]

    def test_oracle_cli(self, tmp_path):
        scene = tmp_path / "s.json"
        save_city(parse_city(city_a_doc()), scene)
        assert self.run("oracle", "--scene", str(scene), "--max", "6") == 0
        assert self.run("oracle", "--scene", str(scene), "--max", "1") == 4

    def test_oracle_prints_an_unseen_witness(self, tmp_path, capsys):
        """A city with no building has no candidate: oracle exits 4 and
        prints the witness as verify does."""
        scene = tmp_path / "s.json"
        save_city(gen_random_city(GeneratorParams(k=0, seed=0, grid=10)), scene)
        assert self.run("oracle", "--scene", str(scene), "--max", "2") == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "UNCOVERABLE: witness (5, 5)"
        assert err == ""

    def test_oracle_refuses_a_seen_witness(self, tmp_path, monkeypatch, capsys):
        """oracle checks an UNCOVERABLE witness with `sees` for every
        candidate: a witness some candidate sees (here, a building corner)
        is refused with one stderr line and exit 3."""
        import cityguard.oracle as oracle
        scene = tmp_path / "s.json"
        save_city(parse_city(city_a_doc()), scene)
        monkeypatch.setattr(oracle, "optimal_guard_count", lambda *args: oracle.OracleResult(
            status=oracle.UNCOVERABLE, witness_point=Point(6, 4)))
        assert self.run("oracle", "--scene", str(scene), "--max", "2") == 3
        out, err = capsys.readouterr()
        assert "UNCOVERABLE" not in out
        assert err.splitlines() == ["certification failure: witness (6, 4) is seen by "
                                    "the candidate at ('hole', 0, 0) facing (0, 1)"]

    def test_render_and_determinism(self, tmp_path):
        scene = tmp_path / "s.json"
        save_city(parse_city(city_a_doc()), scene)
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert self.run("render", "--scene", str(scene), "--out", str(out1)) == 0
        assert self.run("render", "--scene", str(scene), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bench(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert self.run("bench", "--count", "4", "--k-min", "1", "--k-max", "2",
                        "--seed", "3", "--grid", "40", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance,k,roof,walls_2k1")
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[-2] == "1"  # certified

    def test_gen_3k1_and_roof_families(self, tmp_path):
        scene = tmp_path / "s.json"
        assert self.run("gen", "--family", "rot-3k1", "--k", "2",
                        "--out", str(scene)) == 0
        assert load_city(scene).scene.kind == "GENERAL"
        assert self.run("gen", "--family", "roof-necessity", "--k", "3",
                        "--out", str(scene)) == 0
        assert self.run("gen", "--family", "rot-3k1", "--k", "4",
                        "--out", str(scene)) == 2

    @pytest.mark.parametrize("argv", [
        ("bench", "--count", "3", "--k-min", "5", "--k-max", "4"),
        ("bench", "--count", "4", "--k-min", "5", "--k-max", "2"),
        ("gen", "--family", "random", "--k", "-1"),
        ("gen", "--family", "rot-3k1", "--k", "3"),
    ])
    def test_bad_k_range_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", *argv,
                                 "--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "random", "--k", "1", "--grid", "2"),
        ("gen", "--family", "random", "--k", "4", "--grid", "1"),
        ("bench", "--count", "2", "--grid", "1"),
        ("bench", "--count", "1", "--grid", "2", "--k-min", "3", "--k-max", "3"),
    ])
    def test_grid_too_small_for_a_building_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", *argv,
                                 "--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: grid ")
        assert "randrange" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_guard_on_missing_building_exits_2(self, tmp_path, command):
        scene = tmp_path / "s.json"
        sol = tmp_path / "g.json"
        out = tmp_path / "out.svg"
        save_city(parse_city(city_a_doc()), scene)
        sol.write_text(json.dumps({"algorithm": "x", "guards": [
            {"anchor": {"building": 9, "corner": 0}, "facing": [1, 0]}]}))
        argv = [command, "--scene", str(scene), "--solution", str(sol)]
        if command == "render":
            argv += ["--out", str(out)]
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("validation error: ")
        assert "building 9" in result.stderr
        assert not out.exists()

    def test_malformed_guard_exits_2(self, tmp_path):
        scene = tmp_path / "s.json"
        sol = tmp_path / "g.json"
        save_city(parse_city(city_a_doc()), scene)
        sol.write_text(json.dumps({"algorithm": "x", "guards": [
            {"anchor": {"building": 0, "corner": 7}, "facing": [1, 0]}]}))
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", "verify",
                                 "--scene", str(scene), "--solution", str(sol)],
                                capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "validation error: $.guards[0].anchor.corner: must be below 4"]

    @pytest.mark.parametrize("family,k,algo", [
        ("rot-3k1", "2", "walls-2k1"),
        ("rot-3k1", "2", "walls-main"),
        ("rot-3k1", "2", "city"),
        ("random", "0", "walls-main"),
        ("random", "0", "city"),
    ])
    def test_solve_outside_algorithm_domain_exits_2(self, tmp_path, capsys,
                                                     family, k, algo):
        scene = tmp_path / "s.json"
        out = tmp_path / "g.json"
        assert self.run("gen", "--family", family, "--k", k, "--out", str(scene)) == 0
        capsys.readouterr()
        assert self.run("solve", "--algo", algo, "--in", str(scene),
                        "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert not out.exists()

    def test_bench_dir_outside_algorithm_domain_exits_2(self, tmp_path, capsys):
        assert self.run("gen", "--family", "rot-3k1", "--k", "2",
                        "--out", str(tmp_path / "rot.json")) == 0
        capsys.readouterr()
        assert self.run("bench", "--dir", str(tmp_path)) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: rot: ")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["verify-missing-solution", "bench-missing-dir",
                                      "bench-out-missing-dir", "solve-out-missing-dir"])
    def test_missing_file_or_directory_exits_2(self, tmp_path, capsys, case):
        scene = tmp_path / "s.json"
        save_city(parse_city(city_a_doc()), scene)
        missing = tmp_path / "nonexistent"
        argv = {
            "verify-missing-solution": ["verify", "--scene", str(scene),
                                        "--solution", str(missing / "g.json")],
            "bench-missing-dir": ["bench", "--dir", str(missing)],
            "bench-out-missing-dir": ["bench", "--count", "1", "--k-min", "1",
                                      "--k-max", "1", "--grid", "30",
                                      "--out", str(missing / "x.csv")],
            "solve-out-missing-dir": ["solve", "--algo", "walls-2k1", "--in", str(scene),
                                      "--out", str(missing / "s.json")],
        }[case]
        assert self.run(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")
        assert "nonexistent" in err[0]
        assert not missing.exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["utf16-bom", "deep-nesting"])
    def test_unreadable_json_exits_2(self, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", "verify",
                                 "--scene", str(bad), "--solution", str(bad)],
                                capture_output=True, text=True)
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("validation error: ")

    def test_oracle_negative_max_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "s.json"
        save_city(parse_city(city_a_doc()), scene)
        assert self.run("oracle", "--scene", str(scene), "--max", "-1") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["validation error: --max must be >= 0, got -1"]
        assert "INFEASIBLE" not in captured.out

    def test_console_script(self, tmp_path):
        result = subprocess.run([sys.executable, "-m", "cityguard.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        for sub in ("solve", "verify", "oracle", "gen", "render", "bench"):
            assert sub in result.stdout


class TestBenchHarness:
    def test_run_bench_deterministic(self):
        from cityguard.bench import csv_lines, random_corpus, run_bench
        corpus = random_corpus(3, 1, 2, seed=11, grid=40)
        strip = lambda rows: [",".join(l.split(",")[:-1]) for l in csv_lines(rows)]
        assert strip(run_bench(corpus)) == strip(run_bench(corpus))

    @pytest.mark.parametrize("count,k_min,k_max", [(3, 5, 4), (4, 5, 2), (2, -3, -1),
                                                   (-1, 1, 2)])
    def test_random_corpus_refuses_bad_ranges(self, count, k_min, k_max):
        from cityguard.bench import random_corpus
        with pytest.raises(ValueError):
            random_corpus(count, k_min, k_max, seed=0)

    def test_random_corpus_k_cycles_through_range(self):
        from cityguard.bench import random_corpus
        corpus = random_corpus(4, 0, 1, seed=2, grid=30)
        assert [city.scene.k for _, city in corpus] == [0, 1, 0, 1]

    def test_oracle_column_bounded(self):
        from cityguard.bench import random_corpus, run_bench
        rows = run_bench(random_corpus(2, 1, 2, seed=21, grid=30), with_oracle=True)
        for row in rows:
            assert row.oracle_count is not None
            assert row.oracle_count <= row.counts["walls_2k1"]
