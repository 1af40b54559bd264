"""Command-line front end.

Subcommands: validate, cohomology, check-laws, localization-check, export.
Exit codes: 0 success, 1 law or verification failure, 2 validation failure,
3 parse or I/O failure.  Machine-format output is canonical: identical
invocations (including seeds) produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .bwcomplex import build_complex
from .factorization import build_factorization
from .fincat import Report, enumerate_sequences
from .laws import LAW_NAMES, run_laws
from .localization import (
    CertificateError, NotLocal, transport_to_small, validate_adjoint_pair,
    verify_transport_theorem,
)
from .natsys import validate_natural_system
from .workspace import (
    InvalidWorkspace, ParseError, Workspace, category_text, group_text,
    load_workspace_file,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_PARSE``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _load(path: str) -> Workspace:
    try:
        return load_workspace_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except InvalidWorkspace as exc:
        print(exc.report)
        raise SystemExit(EXIT_INVALID)


def cmd_validate(args) -> int:
    ws = _load(args.file)
    reports = ws.validate_all()
    bad = 0
    for rep in reports:
        print(rep)
        if not rep.ok:
            bad += 1
    print(f"validated {len(reports)} object(s), {bad} with violations")
    return EXIT_INVALID if bad else EXIT_OK


def _require(table: dict, kind: str, name: str):
    if name not in table:
        print(f"error: no {kind} named {name!r} in workspace", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return table[name]


def _require_ok(rep: Report) -> None:
    """Print a validation report and exit 2 if it has violations."""
    if not rep.ok:
        print(rep)
        raise SystemExit(EXIT_INVALID)


def cmd_cohomology(args) -> int:
    ws = _load(args.file)
    _require(ws.categories, "category", args.category)
    system = _require(ws.systems, "system", args.system)
    if ws.system_base[args.system] != args.category:
        print(f"error: system {args.system!r} lives on "
              f"{ws.system_base[args.system]!r}, not {args.category!r}",
              file=sys.stderr)
        return EXIT_INVALID
    _require_ok(validate_natural_system(system))
    # by the (co)localization theorem H^*(C; D) is H^*(small; D∘F(psi)) for
    # the skeleton and for a terminal or initial object when D is (co)local
    # for them; otherwise small is C.  Only invariants are printed, so the
    # normalized complex suffices, and the output names stay the user's
    try:
        small, _ = transport_to_small(system)
    except CertificateError as exc:
        sys.stdout.write(f"certificate-failure: {exc}\n")
        return EXIT_CHECK_FAILED
    cx = build_complex(small, args.max_degree, normalized=True)
    lines = []
    for n in range(args.max_degree):
        inv = cx.cohomology(n)
        if args.format == "machine":
            lines.append(f"H {n} {inv.machine()}")
        else:
            lines.append(f"H^{n}({args.category},{args.system}) = {inv.human()}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_check_laws(args) -> int:
    law = args.law
    if law != "all" and law not in LAW_NAMES:
        print(f"error: unknown law {law!r}; known: all, {', '.join(LAW_NAMES)}",
              file=sys.stderr)
        return EXIT_PARSE
    reports = run_laws(law, args.seed, args.cases, args.max_morphisms,
                       args.max_degree)
    ok = True
    out = [f"seed {args.seed} cases {args.cases} "
           f"max-morphisms {args.max_morphisms} max-degree {args.max_degree}"]
    for rep in reports:
        out.extend(rep.lines())
        ok = ok and rep.ok
    out.append("result: " + ("pass" if ok else "FAIL"))
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_localization_check(args) -> int:
    ws = _load(args.file)
    system = _require(ws.systems, "system", args.system)
    name = args.localization
    loc = ws.localizations.get(name) or ws.colocalizations.get(name)
    if loc is None:
        print(f"error: no (co)localization named {name!r}", file=sys.stderr)
        return EXIT_PARSE
    if system.base != loc.big:
        print(f"error: system {args.system!r} does not live on the big "
              f"category of {name!r}", file=sys.stderr)
        return EXIT_INVALID
    _require_ok(validate_natural_system(system))
    rep = validate_adjoint_pair(loc)
    rep.subject = f"{loc.kind} {name}"
    _require_ok(rep)
    try:
        report = verify_transport_theorem(system, loc, args.max_degree)
    except NotLocal as exc:
        sys.stdout.write(f"not-local: {exc}\n")
        return EXIT_CHECK_FAILED
    except CertificateError as exc:
        sys.stdout.write(f"certificate-failure: {exc}\n")
        return EXIT_CHECK_FAILED
    lines = [f"{loc.kind} {name} with system {args.system}, "
             f"degrees 0..{args.max_degree - 1}"]
    lines.extend(report.lines())
    lines.append("result: pass")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_export(args) -> int:
    ws = _load(args.file)
    if args.what == "factorization":
        if not args.category:
            print("error: --category required", file=sys.stderr)
            return EXIT_PARSE
        cat = _require(ws.categories, "category", args.category)
        fc = build_factorization(cat)
        text = category_text(f"factorization_of_{args.category}", fc.category)
        annot = ["# object annotations: factorization object -> base morphism"]
        for f in range(cat.n_morphisms):
            annot.append(f"# {fc.category.object_name(f)} <- "
                         f"{cat.morphism_name(f)}")
        text = text + "\n".join(annot) + "\n"
    elif args.what == "nerve":
        if not args.category:
            print("error: --category required", file=sys.stderr)
            return EXIT_PARSE
        cat = _require(ws.categories, "category", args.category)
        out = [f"nerve of {args.category}, dimensions 0..{args.max_degree}"]
        for n in range(args.max_degree + 1):
            seqs = enumerate_sequences(cat, n)
            out.append(f"dimension {n}: {len(seqs)} cell(s)")
            if n == 0:
                out += [f"  ({cat.object_name(s.objects[0])}) nondegenerate"
                        for s in seqs]
                continue
            # a cell X_0 -> ... -> X_n is a sequence read backwards, listed
            # lexicographically in arrow ids
            for arrows in sorted(s.mors[::-1] for s in seqs):
                flag = ("degenerate" if any(map(cat.is_identity, arrows))
                        else "nondegenerate")
                out.append(f"  ({','.join(map(cat.morphism_name, arrows))}) "
                           f"{flag}")
        text = "\n".join(out) + "\n"
    else:   # "complex", the last choice argparse allows for --what
        if not (args.category and args.system):
            print("error: --category and --system required", file=sys.stderr)
            return EXIT_PARSE
        if args.max_degree < 1:
            print("error: --max-degree must be at least 1 for a complex",
                  file=sys.stderr)
            return EXIT_PARSE
        cat = _require(ws.categories, "category", args.category)
        system = _require(ws.systems, "system", args.system)
        if ws.system_base[args.system] != args.category:
            print("error: system does not live on the category",
                  file=sys.stderr)
            return EXIT_INVALID
        cx = build_complex(system, args.max_degree)
        out = [f"complex of ({args.category},{args.system}), "
               f"degrees 0..{args.max_degree}"]
        for n in range(args.max_degree + 1):
            out.append(f"degree {n}: {len(cx.bases[n])} basis sequence(s), "
                       f"group {group_text(cx.groups[n])}")
            for i in range(len(cx.bases[n])):
                out.append(f"  {cx.coordinate_name(n, i)}")
        for n in range(args.max_degree):
            m = cx.diffs[n].to_matrix()
            out.append(f"differential {n} -> {n + 1}: {m.rows}x{m.cols} "
                       f"row-major {list(m.entries)}")
        text = "\n".join(out) + "\n"
    try:
        with open(args.target, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.target}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {args.target}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bwcoh",
        description="Exact cohomology of finite categories with "
                    "natural-system coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a workspace file")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("cohomology", help="cohomology of a workspace system")
    c.add_argument("file")
    c.add_argument("category")
    c.add_argument("system")
    c.add_argument("--max-degree", type=_at_least(1), default=4)
    c.add_argument("--format", choices=("human", "machine"), default="human")
    c.set_defaults(func=cmd_cohomology)

    l = sub.add_parser("check-laws", help="run randomized law suites")
    l.add_argument("--seed", type=int, default=1)
    l.add_argument("--cases", type=_at_least(1), default=50)
    l.add_argument("--max-morphisms", type=_at_least(1), default=6)
    l.add_argument("--max-degree", type=_at_least(1), default=4)
    l.add_argument("--law", default="all")
    l.set_defaults(func=cmd_check_laws)

    k = sub.add_parser("localization-check",
                       help="verify the transport theorem for a workspace "
                            "(co)localization")
    k.add_argument("file")
    k.add_argument("localization")
    k.add_argument("system")
    k.add_argument("--max-degree", type=_at_least(1), default=3)
    k.set_defaults(func=cmd_localization_check)

    e = sub.add_parser("export", help="export derived structures")
    e.add_argument("file")
    e.add_argument("target")
    e.add_argument("--what", choices=("complex", "factorization", "nerve"),
                   required=True)
    e.add_argument("--category")
    e.add_argument("--system")
    e.add_argument("--max-degree", type=_at_least(0), default=3)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
