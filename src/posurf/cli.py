"""Command line front end.

Exit codes: 0 completed, 1 domain/parse/usage error, 2 cross-check
disagreement. Facet input is parsed to a simplicial complex; its face
poset is built only by the commands that run a poset-level recognizer.
POSURF_DISABLE_MEMO is read by the library, so every command obeys it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .border import border, is_pcm, is_smooth_pcm
from .classify import VERDICT_FIELDS, classify_both, classify_fast, classify_recursive, cross_check
from .errors import CrossCheckError, DomainError, ParseError, PosurfError
from .generators import generate, generator_names, random_pure_complex, sphere
from .poset import from_hasse, restrict, to_hasse
from .simplicial import SimplicialComplex, read_facets, simplicial_join, write_facets
from .surfaces import is_k_surface

_GOLDEN_BENCH = (
    ("simplex 0", lambda: generate("simplex", 0)),
    ("simplex 1", lambda: generate("simplex", 1)),
    ("simplex 3", lambda: generate("simplex", 3)),
    ("sphere 2", lambda: generate("sphere", 2)),
    ("disk 6", lambda: generate("disk", 6)),
    ("annulus 6", lambda: generate("annulus", 6)),
    ("pinched-sphere", lambda: generate("pinched-sphere")),
    ("pinched-box 6", lambda: generate("pinched-box", 6)),
    # non-smooth 3-PCMs: pinched-box 4 is the cone over annulus 4
    ("pinched-box 4", lambda: generate("pinched-box", 4)),
    ("suspension of annulus 4", lambda: simplicial_join(generate("annulus", 4), sphere(0))),
)


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load(args):
    """Returns (the complex or None, the parsed complex or poset)."""
    text = _read_text(args.file)
    if args.format == "facets":
        k = read_facets(text)
        return k, k
    return None, from_hasse(text)


def _poset(obj):
    return obj.face_poset() if isinstance(obj, SimplicialComplex) else obj


def _faces_by_rank(obj) -> dict[str, int]:
    if isinstance(obj, SimplicialComplex):
        return {str(r): c for r, c in enumerate(obj.f_vector())}
    counts: dict[int, int] = {}
    for r in obj.face_ranks:
        counts[r] = counts.get(r, 0) + 1
    return {str(r): counts[r] for r in sorted(counts)}


def _word(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return "not evaluated" if v is None else str(v)


def _cmd_gen(args) -> int:
    obj = generate(args.name, *args.params, seed=args.seed)
    if isinstance(obj, SimplicialComplex):
        fmt = args.format or "facets"
        text = write_facets(obj) if fmt == "facets" else to_hasse(obj.face_poset())
    else:
        fmt = args.format or "hasse"
        if fmt == "facets":
            raise DomainError(f"{args.name} produces a poset; only --format hasse applies")
        text = to_hasse(obj)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    k, obj = _load(args)
    mode = args.mode
    if mode is None:
        mode = "fast" if k is not None else "recursive"
    if mode == "recursive":
        cls = classify_recursive(obj)
    elif mode == "fast":
        if k is None:
            raise DomainError("fast classification requires facet input (a simplicial complex)")
        cls = classify_fast(k)
    else:
        if k is None:
            raise DomainError("mode 'both' requires facet input (a simplicial complex)")
        cls = classify_both(k)
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
            print(f"{name.removeprefix('is_').replace('_', ' ')}: {_word(getattr(cls, name))}")
        print(f"category: {cls.category}")
        print(f"path: {cls.path}")
    return 0


def _cmd_border(args) -> int:
    poset = _poset(_load(args)[1])
    decomposition = border(poset)
    sub = restrict(poset, sorted(decomposition.border_faces))
    out = [to_hasse(sub.to_poset()).rstrip("\n")]
    out.append(
        f"# border: {len(decomposition.border_faces)} of {len(poset)} faces, "
        f"{len(decomposition.components)} component(s)"
    )
    for i, (faces, verdict) in enumerate(decomposition.components):
        status = f"{verdict.rank}-surface" if verdict.is_surface else "not a surface"
        out.append(f"# component {i}: {len(faces)} faces, {status}")
    print("\n".join(out))
    return 0


def _cmd_check(args) -> int:
    k, obj = _load(args)
    if args.surface:
        v = is_k_surface(_poset(obj))
        print(f"surface: {'yes' if v.is_surface else 'no'}"
              + (f" (rank {v.rank})" if v.is_surface else ""))
    elif args.pcm:
        v = is_pcm(_poset(obj))
        print(f"pcm: {'yes' if v.holds else 'no'}" + (f" (rank {v.rank})" if v.holds else ""))
    elif args.smooth:
        v = is_smooth_pcm(_poset(obj))
        print(f"smooth pcm: {'yes' if v.holds else 'no'}"
              + (f" (rank {v.rank})" if v.holds else ""))
    elif args.pseudomanifold:
        if k is None:
            raise DomainError("pseudomanifold checks require facet input")
        print(f"pseudomanifold: {'yes' if k.is_pseudomanifold() else 'no'}")
    else:
        if k is None:
            raise DomainError("pseudomanifold checks require facet input")
        print(f"normal pseudomanifold: {'yes' if k.is_normal_pseudomanifold() else 'no'}")
    return 0


def _cmd_bench(args) -> int:
    instances = [(name, fn()) for name, fn in _GOLDEN_BENCH]
    for n in range(args.max_sphere + 1):
        instances.append((f"sphere {n}", sphere(n)))
    for i in range(args.random):
        dim = 1 + i % 3
        instances.append(
            (
                f"random-pure d{dim} #{i}",
                random_pure_complex(dim, 8 + i % 5, 4 + i % 9, seed=args.seed + i),
            )
        )
    report = cross_check(instances)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "bench",
                    "rows": [
                        {
                            "instance": r.name,
                            "faces": r.faces,
                            "category": r.category,
                            "fast_ms": round(r.fast_s * 1000, 3),
                            "recursive_ms": round(r.recursive_s * 1000, 3),
                            "speedup": round(r.speedup, 2),
                        }
                        for r in report.rows
                    ],
                    "category_counts": report.category_counts,
                },
                indent=2,
            )
        )
    else:
        print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posurf", description="discrete surface / PCM / pseudomanifold toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a named instance", parents=[], add_help=True)
    p_gen.add_argument("name", choices=generator_names())
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.add_argument("-o", "--output")
    p_gen.add_argument("--format", choices=["facets", "hasse"])
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=_cmd_gen)

    def add_input(p):
        p.add_argument("file", nargs="?", help="input file; '-' or absent reads stdin")
        p.add_argument("--format", choices=["facets", "hasse"], default="facets")

    p_cls = sub.add_parser("classify", help="full classification report")
    add_input(p_cls)
    p_cls.add_argument("--mode", choices=["fast", "recursive", "both"])
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_border = sub.add_parser("border", help="emit the border suborder and its components")
    add_input(p_border)
    p_border.set_defaults(func=_cmd_border)

    p_check = sub.add_parser("check", help="run a single recognizer")
    add_input(p_check)
    which = p_check.add_mutually_exclusive_group(required=True)
    which.add_argument("--surface", action="store_true")
    which.add_argument("--pcm", action="store_true")
    which.add_argument("--smooth", action="store_true")
    which.add_argument("--pseudomanifold", action="store_true")
    which.add_argument("--normal", action="store_true")
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
    except (ParseError, DomainError) as exc:
        print(f"posurf: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"posurf: error: {exc}", file=sys.stderr)
        return 1
    except PosurfError as exc:
        print(f"posurf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
