"""Unified command line: solve, verify, oracle, gen, render, bench.

Exit codes: 0 success, 2 validation error, 3 certification failure,
4 bound violation.  Every refused argument (a ValueError, FormatError
included, or a SceneValidationError) reaches one handler in `main`.
"""

from __future__ import annotations

import argparse
import sys

from cityguard.errors import (
    CityGuardError, DegeneratePositionError, GenerationFailedError,
    PlacementIncompleteError, SceneValidationError,
)
from cityguard.io import load_city, load_solution, save_city, save_solution
from cityguard.model import City

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_BOUND = 4


def _cmd_solve(args) -> int:
    from cityguard.placement import (
        ALLOW_P_CORNER, BUILDINGS_ONLY, city_guarding, guards_2k1, guards_main,
        roof_guarding,
    )
    city = load_city(args.infile)
    scene = city.scene
    if args.algo == "roof":
        sol = roof_guarding(city)
    elif args.algo == "walls-2k1":
        sol = guards_2k1(scene)
    elif args.algo == "walls-main":
        sol = guards_main(scene)
    else:
        mode = BUILDINGS_ONLY if args.mode == "buildings-only" else ALLOW_P_CORNER
        sol = city_guarding(city, mode)
    save_solution(sol, args.out)
    if args.svg:
        _write_svg(args.svg, scene, sol, city if args.algo == "city" else None)
    print(f"{sol.algorithm}: {sol.count} guards -> {args.out}")
    return EXIT_OK


def _write_svg(path, scene, sol=None, city=None):
    from cityguard.svg import render_svg
    from cityguard.verify import certify, certify_city
    cert = None
    if sol is not None:
        cert = certify_city(city, sol) if city is not None else certify(scene, sol.guards)
    with open(path, "w") as f:
        f.write(render_svg(scene, sol, cert))


def _cmd_verify(args) -> int:
    from cityguard.verify import certify, certify_city
    city = load_city(args.scene)
    sol = load_solution(args.solution)
    cert = certify_city(city, sol) if args.city else certify(city.scene, sol.guards)
    witness = cert.witness
    if witness and _seen(city.scene, sol.guards, witness, "guard"):
        return EXIT_CERTIFICATION
    if args.cert:
        import json
        from cityguard.io import certificate_doc
        with open(args.cert, "w") as f:
            f.write(json.dumps(certificate_doc(cert), sort_keys=True, indent=1) + "\n")
    if cert.covered:
        print(f"covered: {sol.count} guards, residual area 0")
        return EXIT_OK
    print(f"NOT covered: residual area {cert.residual.area()}"
          + (f", witness ({witness.x}, {witness.y})" if witness else "")
          + ("" if cert.roof_flags is None or all(cert.roof_flags)
             else f", uncovered roofs {[i for i, ok in enumerate(cert.roof_flags) if not ok]}"))
    return EXIT_CERTIFICATION


def _cmd_oracle(args) -> int:
    from cityguard.oracle import (
        INFEASIBLE_WITHIN, OPTIMAL, candidate_set, optimal_guard_count,
    )
    if args.max < 0:
        raise ValueError(f"--max must be >= 0, got {args.max}")
    city = load_city(args.scene)
    cands = candidate_set(city.scene, include_p_corners=args.include_p_corners)
    res = optimal_guard_count(city.scene, cands, args.max)
    print(f"candidate class: wall-aligned vertex guards"
          f"{' + bounding-rectangle corners' if args.include_p_corners else ''}"
          f" ({len(cands)} candidates)")
    if res.status == OPTIMAL:
        print(f"minimum: {res.count}")
        if args.out:
            save_solution(res.solution, args.out)
        return EXIT_OK
    if res.status == INFEASIBLE_WITHIN:
        print(f"INFEASIBLE_WITHIN({args.max})")
        return EXIT_BOUND
    witness = res.witness_point
    if _seen(city.scene, cands, witness, "candidate"):
        return EXIT_CERTIFICATION
    print(f"UNCOVERABLE: witness ({witness.x}, {witness.y})")
    return EXIT_BOUND


def _seen(scene, guards, witness, role) -> bool:
    """Check a witness by the point route before it is reported: does a
    guard see it?  If so, say which on one stderr line."""
    from cityguard.visibility import sees
    seer = next((g for g in guards if sees(scene, g, witness)), None)
    if seer is not None:
        print(f"certification failure: witness ({witness.x}, {witness.y}) is seen by "
              f"the {role} at {seer.anchor} facing {seer.facing}", file=sys.stderr)
    return seer is not None


def _cmd_gen(args) -> int:
    from cityguard.instances import (
        GeneratorParams, gen_3k1_necessity, gen_random_city, gen_roof_necessity,
    )
    if args.family == "random":
        city = gen_random_city(GeneratorParams(k=args.k, seed=args.seed, grid=args.grid))
    elif args.family == "roof-necessity":
        city = gen_roof_necessity(args.k)
    else:
        scene = gen_3k1_necessity(args.k)
        city = City(scene=scene, heights=tuple(1 for _ in range(scene.k)))
    save_city(city, args.out)
    print(f"{args.family} k={args.k} -> {args.out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    city = load_city(args.scene)
    sol = load_solution(args.solution) if args.solution else None
    _write_svg(args.out, city.scene, sol, city if (sol and args.city) else None)
    print(f"rendered -> {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from cityguard.bench import BoundViolation, csv_lines, random_corpus, run_bench
    if args.dir:
        import os
        corpus = []
        for name in sorted(os.listdir(args.dir)):
            if name.endswith(".json"):
                corpus.append((name[:-5], load_city(os.path.join(args.dir, name))))
    else:
        corpus = random_corpus(args.count, args.k_min, args.k_max, args.seed, args.grid)
    try:
        rows = run_bench(corpus, with_oracle=args.oracle)
    except BoundViolation as e:
        print(f"bound violation: {e}", file=sys.stderr)
        return EXIT_BOUND
    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        for line in csv_lines(rows):
            print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cityguard",
                                description="Guard placement for rectangular cities "
                                            "with 180-degree vertex guards")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run a placement algorithm")
    sp.add_argument("--algo", required=True,
                    choices=["roof", "walls-2k1", "walls-main", "city"])
    sp.add_argument("--mode", choices=["buildings-only", "allow-p-corner"],
                    default="buildings-only", help="city algorithm mode")
    sp.add_argument("--in", dest="infile", required=True, help="scene/city file")
    sp.add_argument("--out", required=True, help="solution file")
    sp.add_argument("--svg", help="optional SVG rendering")
    sp.set_defaults(func=_cmd_solve)

    vp = sub.add_parser("verify", help="certify a solution exactly")
    vp.add_argument("--scene", required=True)
    vp.add_argument("--solution", required=True)
    vp.add_argument("--city", action="store_true", help="also require roof coverage")
    vp.add_argument("--cert", help="write the full certificate (regions, residual)")
    vp.set_defaults(func=_cmd_verify)

    op = sub.add_parser("oracle", help="exact minimum over wall-aligned vertex guards")
    op.add_argument("--scene", required=True)
    op.add_argument("--max", type=int, required=True)
    op.add_argument("--include-p-corners", action="store_true")
    op.add_argument("--out", help="write the witness solution")
    op.set_defaults(func=_cmd_oracle)

    gp = sub.add_parser("gen", help="generate instances")
    gp.add_argument("--family", required=True,
                    choices=["random", "roof-necessity", "rot-3k1"])
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--grid", type=int, default=1000)
    gp.add_argument("--out", required=True)
    gp.set_defaults(func=_cmd_gen)

    rp = sub.add_parser("render", help="render a scene (and solution) to SVG")
    rp.add_argument("--scene", required=True)
    rp.add_argument("--solution")
    rp.add_argument("--city", action="store_true")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=_cmd_render)

    bp = sub.add_parser("bench", help="benchmark algorithms against the bounds")
    bp.add_argument("--dir", help="directory of scene files (instead of a generator)")
    bp.add_argument("--count", type=int, default=20)
    bp.add_argument("--k-min", type=int, default=1)
    bp.add_argument("--k-max", type=int, default=8)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--grid", type=int, default=64)
    bp.add_argument("--oracle", action="store_true", help="add the exact-minimum oracle column")
    bp.add_argument("--out", default="-")
    bp.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SceneValidationError, DegeneratePositionError,
            GenerationFailedError, OSError) as e:
        # every refused argument: a malformed file or scene, a scene outside an
        # algorithm's domain (two buildings on one axis line, for a placement),
        # a guard on no corner of the scene, a k, grid or --max out of range,
        # or (OSError) a missing or unreadable file
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except PlacementIncompleteError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except CityGuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
