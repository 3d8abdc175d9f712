"""Command line front end.

Exit codes: 0 completed, 1 domain/parse/usage error, 2 cross-check
disagreement. Facet input is parsed to a simplicial complex; its face
poset is built only by the commands that run a poset-level recognizer.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .classify import VERDICT_FIELDS, classify_both, classify_fast, classify_recursive, cross_check
from .errors import CrossCheckError, DomainError, ParseError, PosurfError
from .generators import generate, generator_names, random_pure_complex, sphere
from .poset import from_hasse, restrict, to_hasse
from .simplicial import SimplicialComplex, read_facets, simplicial_join, write_facets
from .surfaces import border, is_k_surface, is_pcm, is_smooth_pcm

# Each golden instance is a ``generate`` spec, which is also its name. The
# suspension of annulus 4, built by hand, follows them, then the two
# smallest non-smooth simplicial PCMs (6 facets on 7 vertices, up to
# isomorphism): cones over a 6-triangle annulus bounded by two 3-cycles.
# Non-smooth 3-PCMs: pinched-box 4 (the cone over annulus 4), that
# suspension and the two smallest.
_GOLDEN_BENCH = ("simplex 0", "simplex 1", "simplex 3", "sphere 2", "disk 6", "annulus 6",
                 "pinched-sphere", "pinched-box 6", "pinched-box 4")
_SMALLEST_NON_SMOOTH = (
    ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 1, 4, 6), (0, 3, 4, 5), (0, 4, 5, 6)),
    ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 4, 6), (0, 3, 5, 6), (0, 4, 5, 6)),
)

_CLASSIFIERS = {"fast": classify_fast, "recursive": classify_recursive, "both": classify_both}

_READERS = {"facets": read_facets, "hasse": from_hasse}


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str | None) -> str:
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path or '-'} is not UTF-8 text (byte {exc.start})") from None


def _load(args):
    """The parsed complex or poset."""
    return _READERS[args.format](_read_text(args.file))


def _poset(obj):
    return obj.face_poset() if isinstance(obj, SimplicialComplex) else obj


def _complex(obj) -> SimplicialComplex:
    if not isinstance(obj, SimplicialComplex):
        raise DomainError("pseudomanifold checks require facet input")
    return obj


# Each ``check`` flag: the Classification field whose line it prints, and
# its recognizer, which returns a bool or a verdict whose rank is set when
# it holds.
_CHECKS = {
    "surface": ("is_surface", lambda obj: is_k_surface(_poset(obj))),
    "pcm": ("is_pcm", lambda obj: is_pcm(_poset(obj))),
    "smooth": ("is_smooth_pcm", lambda obj: is_smooth_pcm(_poset(obj))),
    "pseudomanifold": ("is_pseudomanifold", lambda obj: _complex(obj).is_pseudomanifold()),
    "normal": ("is_normal_pseudomanifold", lambda obj: _complex(obj).is_normal_pseudomanifold()),
}


def _faces_by_rank(obj) -> dict[str, int]:
    if isinstance(obj, SimplicialComplex):
        return {str(r): c for r, c in enumerate(obj.f_vector())}
    counts = Counter(obj.face_ranks)
    return {str(r): counts[r] for r in sorted(counts)}


def _verdict_line(name: str, value) -> str:
    """The report line of one Classification field, such as 'smooth pcm: yes'."""
    if isinstance(value, bool) or value is None:
        value = "not evaluated" if value is None else "yes" if value else "no"
    return f"{name.removeprefix('is_').replace('_', ' ')}: {value}"


def _cmd_gen(args) -> int:
    obj = generate(args.name, *args.params)
    simplicial = isinstance(obj, SimplicialComplex)
    if args.format == "facets" and not simplicial:
        raise DomainError(f"{args.name} produces a poset; only --format hasse applies")
    text = write_facets(obj) if simplicial and args.format != "hasse" else to_hasse(_poset(obj))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    obj = _load(args)
    mode = args.mode or ("fast" if isinstance(obj, SimplicialComplex) else "recursive")
    cls = _CLASSIFIERS[mode](obj)
    report = {
        "command": "classify",
        "input": args.file or "-",
        "format": args.format,
        "mode": mode,
        "instance": {
            "total_faces": len(obj),
            "faces_by_rank": _faces_by_rank(obj),
        },
        "classification": cls.to_dict(),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        meta = report["instance"]
        print(f"instance: {meta['total_faces']} faces, by rank {meta['faces_by_rank']}")
        for name in VERDICT_FIELDS:
            print(_verdict_line(name, getattr(cls, name)))
        print(f"category: {cls.category}")
        print(f"path: {cls.path}")
    return 0


def _cmd_border(args) -> int:
    poset = _poset(_load(args))
    decomposition = border(poset)
    sub = restrict(poset, sorted(decomposition.border_faces))
    out = [to_hasse(sub.to_poset()).rstrip("\n")]
    out.append(
        f"# border: {len(decomposition.border_faces)} of {len(poset)} faces, "
        f"{len(decomposition.components)} component(s)"
    )
    for i, (faces, verdict) in enumerate(decomposition.components):
        status = f"{verdict.rank}-surface" if verdict.holds else "not a surface"
        out.append(f"# component {i}: {len(faces)} faces, {status}")
    print("\n".join(out))
    return 0


def _cmd_check(args) -> int:
    name, recognize = next(check for flag, check in _CHECKS.items() if getattr(args, flag))
    v = recognize(_load(args))
    rank = getattr(v, "rank", None)
    print(_verdict_line(name, v if isinstance(v, bool) else rank is not None)
          + (f" (rank {rank})" if rank is not None else ""))
    return 0


def _cmd_bench(args) -> int:
    instances = [(spec, generate(*spec.split())) for spec in _GOLDEN_BENCH]
    instances.append(("suspension of annulus 4", simplicial_join(generate("annulus", 4), sphere(0))))
    instances += [(f"smallest non-smooth pcm {i}", SimplicialComplex(facets))
                  for i, facets in enumerate(_SMALLEST_NON_SMOOTH, 1)]
    instances += [(f"sphere {n}", sphere(n)) for n in range(args.max_sphere + 1)]
    for i in range(args.random):
        dim = 1 + i % 3
        k = random_pure_complex(dim, 8 + i % 5, 4 + i % 9, seed=args.seed + i)
        instances.append((f"random-pure d{dim} #{i}", k))
    report = cross_check(instances)
    if args.json:
        print(json.dumps({"command": "bench", **report.to_dict()}, indent=2))
    else:
        print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posurf", description="discrete surface / PCM / pseudomanifold toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a named instance")
    p_gen.add_argument("name", choices=generator_names())
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.add_argument("-o", "--output")
    p_gen.add_argument("--format", choices=_READERS)
    p_gen.set_defaults(func=_cmd_gen)

    def add_input(p):
        p.add_argument("file", nargs="?", help="input file; '-' or absent reads stdin")
        p.add_argument("--format", choices=_READERS, default="facets")

    p_cls = sub.add_parser("classify", help="full classification report")
    add_input(p_cls)
    p_cls.add_argument("--mode", choices=_CLASSIFIERS)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_border = sub.add_parser("border", help="emit the border suborder and its components")
    add_input(p_border)
    p_border.set_defaults(func=_cmd_border)

    p_check = sub.add_parser("check", help="run a single recognizer")
    add_input(p_check)
    which = p_check.add_mutually_exclusive_group(required=True)
    for flag in _CHECKS:
        which.add_argument(f"--{flag}", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser("bench", help="cross-check corpus with timing table")
    p_bench.add_argument("--max-sphere", type=int, default=4)
    p_bench.add_argument("--random", type=int, default=25)
    p_bench.add_argument("--seed", type=int, default=20240801)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CrossCheckError as exc:
        print(f"posurf: cross-check failure: {exc}", file=sys.stderr)
        return 2
    except (PosurfError, OSError) as exc:
        print(f"posurf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
