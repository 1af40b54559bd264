"""Workspace files: one self-contained structured-text document declaring
categories, functors, natural transformations, coefficient systems,
(co)localizations and tasks.

Grammar (line oriented; ``#`` starts a comment; indentation is free):

    bwcoh workspace v1

    category NAME
      objects: a b c
      mor f: a -> b
      identity a: id_a
      compose f g = h          # h = g∘f, f applied first
    end

    functor NAME: CAT1 -> CAT2
      obj a -> x
      mor f -> u
    end

    nat NAME: FUNCTOR1 => FUNCTOR2
      at a: u
    end

    system NAME on CAT
      constant: Z/4            # groups: 0 | Z | Z/d | Z^r | sums with +
    end

    system NAME on CAT
      value f: Z + Z/2
      act f -| h: [[1,0],[0,1]]   # D(h,1): D(f) -> D(f∘h)
      act f |- k: [[1]]           # D(1,k): D(f) -> D(k∘f)
    end

    system NAME on CAT
      bifunctor:
      value x y: Z                # value at the object pair (x, y)
      act h k: [[1]]              # action along (h, k), h contravariant
    end

    localization NAME
      big: CAT1
      small: CAT2
      phi: F
      psi: G
      unit x: f                   # component of the unit at each object
    end

    colocalization NAME
      ...
      counit x: f
    end

    task NAME: cohomology CAT SYSTEM max-degree=3   # the one option, N >= 1
    task NAME: localization-check LOC SYSTEM max-degree=3

Explicit systems list actions only for the one-sided generating pairs; the
loader builds each declared action once, checking that its matrix preserves
relations, and completes the full action table by composing the two sides.

What is checked, and where:

* on load, every cross-reference must resolve and every task option must
  be ``max-degree=N`` with N >= 1 (``ParseError``), and every
  category must pass ``validate_category``, every declared action matrix
  must preserve relations, and a ``bifunctor:`` system must pass
  ``validate_bifunctor`` (all ``InvalidWorkspace``);
* functors, natural transformations, systems and (co)localizations are
  validated by ``Workspace.validate_all``, the ``validate`` command.  A
  system is checked on its one-sided presentation by
  ``validate_natural_system``: well-defined generators, identity pairs
  acting as the identity, the composition relations of the ``act f -| h``
  and of the ``act f |- k`` actions, and the tie of every pair's action to
  both one-sided composites;
* ``cohomology`` and ``localization-check`` validate the system they use,
  and ``localization-check`` its (co)localization, before computing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgroup import (
    GroupHom, IllDefinedHom, PresentedGroup, from_invariants, hom_compose,
)
from .bwcomplex import ProductGroup
from .factorization import build_factorization
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report, compose_functors,
    identity_functor, make_category,
)
from .intmat import IntMatrix
from .localization import Colocalization, Localization, validate_adjoint_pair
from .natsys import (
    AbFunctor, BifunctorInvalid, NaturalSystem, from_bifunctor,
    validate_natural_system,
)
from .fincat import validate_category

HEADER = "bwcoh workspace v1"


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidWorkspace(ValueError):
    """A category or a declared action fails validation before anything is
    derived from it."""

    def __init__(self, report: Report):
        super().__init__(str(report))
        self.report = report


@dataclass
class Task:
    name: str
    command: str
    args: list[str]
    max_degree: int | None    # the one option, max-degree=N, N >= 1


@dataclass
class Workspace:
    categories: dict[str, FiniteCategory] = field(default_factory=dict)
    functors: dict[str, Functor] = field(default_factory=dict)
    nats: dict[str, NaturalTransformation] = field(default_factory=dict)
    systems: dict[str, NaturalSystem] = field(default_factory=dict)
    system_base: dict[str, str] = field(default_factory=dict)
    localizations: dict[str, Localization] = field(default_factory=dict)
    colocalizations: dict[str, Colocalization] = field(default_factory=dict)
    tasks: dict[str, Task] = field(default_factory=dict)

    def validate_all(self) -> list[Report]:
        reports = []
        for name, c in self.categories.items():
            r = validate_category(c)
            r.subject = f"category {name}"
            reports.append(r)
        for name, f in self.functors.items():
            r = f.validate()
            r.subject = f"functor {name}"
            reports.append(r)
        for name, a in self.nats.items():
            r = a.validate()
            r.subject = f"nat {name}"
            reports.append(r)
        for name, s in self.systems.items():
            r = validate_natural_system(s)
            r.subject = f"system {name}"
            reports.append(r)
        for name, l in [*self.localizations.items(),
                        *self.colocalizations.items()]:
            r = validate_adjoint_pair(l)
            r.subject = f"{l.kind} {name}"
            reports.append(r)
        return reports


def parse_group(text: str, line_no: int) -> PresentedGroup:
    text = text.strip()
    if text == "0":
        return from_invariants(0)
    rank = 0
    torsion = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            try:
                n = int(part[2:])
            except ValueError:
                n = -1
            if n < 0:
                raise ParseError(line_no, f"bad group token {part!r}")
            rank += n
        elif part.startswith("Z/"):
            try:
                torsion.append(int(part[2:]))
            except ValueError:
                raise ParseError(line_no, f"bad group token {part!r}")
        else:
            raise ParseError(line_no, f"bad group token {part!r}")
    return from_invariants(rank, tuple(torsion))


def group_text(g: PresentedGroup | ProductGroup) -> str:
    """A group's invariants in workspace spelling, e.g. ``Z^2 + Z/2``."""
    inv = g.invariants
    parts = []
    if inv.free_rank == 1:
        parts.append("Z")
    elif inv.free_rank > 1:
        parts.append(f"Z^{inv.free_rank}")
    parts.extend(f"Z/{d}" for d in inv.torsion)
    return " + ".join(parts) if parts else "0"


def parse_matrix(text: str, line_no: int) -> list[list[int]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line_no, "matrix must be bracketed, e.g. [[1,0],[0,1]]")
    try:
        import ast
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise ParseError(line_no, "matrix is not a literal list of int lists")
    if not isinstance(value, list) or \
            not all(isinstance(r, list) and all(isinstance(x, int) for x in r)
                    for r in value):
        raise ParseError(line_no, "matrix is not a list of int lists")
    return value


@dataclass
class _Block:
    kind: str
    head: str
    line_no: int
    lines: list[tuple[int, str]]


def _split_blocks(text: str) -> list[_Block]:
    lines = text.splitlines()
    seen_header = False
    blocks = []
    current: _Block | None = None
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line != HEADER:
                raise ParseError(i, f"expected header {HEADER!r}")
            seen_header = True
            continue
        if current is None:
            if line == "end":
                raise ParseError(i, "'end' outside any block")
            parts = line.split(None, 1)
            kind = parts[0]
            if kind == "task":
                blocks.append(_Block("task", parts[1] if len(parts) > 1 else "",
                                     i, []))
                continue
            if kind not in ("category", "functor", "nat", "system",
                            "localization", "colocalization"):
                raise ParseError(i, f"unknown block kind {kind!r}")
            current = _Block(kind, parts[1] if len(parts) > 1 else "", i, [])
        elif line == "end":
            blocks.append(current)
            current = None
        else:
            current.lines.append((i, line))
    if not seen_header:
        raise ParseError(1, f"missing header {HEADER!r}")
    if current is not None:
        raise ParseError(current.line_no, f"unterminated {current.kind} block")
    return blocks


def _parse_category(block: _Block) -> tuple[str, FiniteCategory]:
    name = block.head.strip()
    if not name:
        raise ParseError(block.line_no, "category needs a name")
    objects: list[str] = []
    mor: list[tuple[str, str, str]] = []
    identities: dict[str, str] = {}
    composes: list[tuple[int, str, str, str]] = []
    for ln, line in block.lines:
        if line.startswith("objects:"):
            objects.extend(line[len("objects:"):].split())
        elif line.startswith("mor "):
            body = line[4:]
            if ":" not in body or "->" not in body:
                raise ParseError(ln, "expected 'mor f: a -> b'")
            mname, rest = body.split(":", 1)
            src, tgt = rest.split("->", 1)
            mor.append((mname.strip(), src.strip(), tgt.strip()))
        elif line.startswith("identity "):
            body = line[len("identity "):]
            if ":" not in body:
                raise ParseError(ln, "expected 'identity a: id_a'")
            obj, mname = body.split(":", 1)
            identities[obj.strip()] = mname.strip()
        elif line.startswith("compose "):
            body = line[len("compose "):]
            if "=" not in body:
                raise ParseError(ln, "expected 'compose f g = h'")
            left, right = body.split("=", 1)
            parts = left.split()
            if len(parts) != 2:
                raise ParseError(ln, "expected two morphisms before '='")
            composes.append((ln, parts[0], parts[1], right.strip()))
        else:
            raise ParseError(ln, f"unknown category line {line!r}")
    obj_index = {o: i for i, o in enumerate(objects)}
    mor_index = {m[0]: i for i, m in enumerate(mor)}
    if len(obj_index) != len(objects):
        raise ParseError(block.line_no, "duplicate object name")
    if len(mor_index) != len(mor):
        raise ParseError(block.line_no, "duplicate morphism name")

    def obj(o: str, ln: int) -> int:
        if o not in obj_index:
            raise ParseError(ln, f"unknown object {o!r}")
        return obj_index[o]

    def morid(m: str, ln: int) -> int:
        if m not in mor_index:
            raise ParseError(ln, f"unknown morphism {m!r}")
        return mor_index[m]

    pairs = {}
    for ln, f, g, h in composes:
        pairs[(morid(f, ln), morid(g, ln))] = morid(h, ln)
    ident = []
    for o in objects:
        if o not in identities:
            raise ParseError(block.line_no, f"object {o!r} has no identity")
        ident.append(morid(identities[o], block.line_no))
    cat = make_category(
        len(objects),
        [(obj(s, block.line_no), obj(t, block.line_no)) for _, s, t in mor],
        ident, pairs,
        object_names=objects, morphism_names=[m[0] for m in mor],
    )
    return name, cat


def _mor_by_name(cat: FiniteCategory, name: str, ln: int) -> int:
    if cat.morphism_names and name in cat.morphism_names:
        return cat.morphism_names.index(name)
    raise ParseError(ln, f"unknown morphism {name!r}")


def _obj_by_name(cat: FiniteCategory, name: str, ln: int) -> int:
    if cat.object_names and name in cat.object_names:
        return cat.object_names.index(name)
    raise ParseError(ln, f"unknown object {name!r}")


def _parse_functor(block: _Block, ws: Workspace) -> tuple[str, Functor]:
    head = block.head
    if ":" not in head or "->" not in head:
        raise ParseError(block.line_no, "expected 'functor NAME: A -> B'")
    name, rest = head.split(":", 1)
    srcname, tgtname = (s.strip() for s in rest.split("->", 1))
    for n in (srcname, tgtname):
        if n not in ws.categories:
            raise ParseError(block.line_no, f"unknown category {n!r}")
    src = ws.categories[srcname]
    tgt = ws.categories[tgtname]
    obj_map = [None] * src.n_objects
    mor_map = [None] * src.n_morphisms
    for ln, line in block.lines:
        if line.startswith("obj "):
            a, b = _arrow_split(line[4:], ln)
            obj_map[_obj_by_name(src, a, ln)] = _obj_by_name(tgt, b, ln)
        elif line.startswith("mor "):
            a, b = _arrow_split(line[4:], ln)
            mor_map[_mor_by_name(src, a, ln)] = _mor_by_name(tgt, b, ln)
        else:
            raise ParseError(ln, f"unknown functor line {line!r}")
    if None in obj_map or None in mor_map:
        raise ParseError(block.line_no, "functor map is not total")
    return name.strip(), Functor(src, tgt, tuple(obj_map), tuple(mor_map))


def _arrow_split(body: str, ln: int) -> tuple[str, str]:
    if "->" not in body:
        raise ParseError(ln, "expected 'x -> y'")
    a, b = body.split("->", 1)
    return a.strip(), b.strip()


def _parse_nat(block: _Block, ws: Workspace) -> tuple[str, NaturalTransformation]:
    head = block.head
    if ":" not in head or "=>" not in head:
        raise ParseError(block.line_no, "expected 'nat NAME: F => G'")
    name, rest = head.split(":", 1)
    f1, f2 = (s.strip() for s in rest.split("=>", 1))
    for n in (f1, f2):
        if n not in ws.functors:
            raise ParseError(block.line_no, f"unknown functor {n!r}")
    src_f = ws.functors[f1]
    tgt_f = ws.functors[f2]
    comps = [None] * src_f.source.n_objects
    for ln, line in block.lines:
        if line.startswith("at "):
            body = line[3:]
            if ":" not in body:
                raise ParseError(ln, "expected 'at x: f'")
            o, m = body.split(":", 1)
            comps[_obj_by_name(src_f.source, o.strip(), ln)] = \
                _mor_by_name(src_f.target, m.strip(), ln)
        else:
            raise ParseError(ln, f"unknown nat line {line!r}")
    if None in comps:
        raise ParseError(block.line_no, "components are not total")
    return name.strip(), NaturalTransformation(src_f, tgt_f, tuple(comps))


def _parse_system(block: _Block, ws: Workspace) -> tuple[str, str, NaturalSystem]:
    head = block.head
    if " on " not in head:
        raise ParseError(block.line_no, "expected 'system NAME on CAT'")
    name, catname = (s.strip() for s in head.split(" on ", 1))
    if catname not in ws.categories:
        raise ParseError(block.line_no, f"unknown category {catname!r}")
    cat = ws.categories[catname]
    kind = None
    constant_group = None
    values: dict[int, PresentedGroup] = {}
    left_acts: dict[tuple[int, int], list[list[int]]] = {}
    right_acts: dict[tuple[int, int], list[list[int]]] = {}
    bif_values: dict[tuple[int, int], PresentedGroup] = {}
    bif_acts: dict[tuple[int, int], list[list[int]]] = {}
    for ln, line in block.lines:
        if line.startswith("constant:"):
            kind = "constant"
            constant_group = parse_group(line[len("constant:"):], ln)
        elif line.startswith("bifunctor"):
            kind = "bifunctor"
        elif line.startswith("value "):
            body = line[len("value "):]
            if ":" not in body:
                raise ParseError(ln, "expected 'value f: GROUP'")
            what, grp = body.split(":", 1)
            parts = what.split()
            if kind == "bifunctor":
                if len(parts) != 2:
                    raise ParseError(ln, "bifunctor value needs two objects")
                bif_values[(_obj_by_name(cat, parts[0], ln),
                            _obj_by_name(cat, parts[1], ln))] = \
                    parse_group(grp, ln)
            else:
                kind = kind or "explicit"
                if len(parts) != 1:
                    raise ParseError(ln, "value needs one morphism")
                values[_mor_by_name(cat, parts[0], ln)] = parse_group(grp, ln)
        elif line.startswith("act "):
            body = line[len("act "):]
            if ":" not in body:
                raise ParseError(ln, "expected 'act ...: MATRIX'")
            what, mat = body.split(":", 1)
            matrix = parse_matrix(mat, ln)
            parts = what.split()
            if kind == "bifunctor":
                if len(parts) != 2:
                    raise ParseError(ln, "bifunctor act needs two morphisms")
                bif_acts[(_mor_by_name(cat, parts[0], ln),
                          _mor_by_name(cat, parts[1], ln))] = matrix
            elif len(parts) == 3 and parts[1] == "-|":
                left_acts[(_mor_by_name(cat, parts[0], ln),
                           _mor_by_name(cat, parts[2], ln))] = matrix
            elif len(parts) == 3 and parts[1] == "|-":
                right_acts[(_mor_by_name(cat, parts[0], ln),
                            _mor_by_name(cat, parts[2], ln))] = matrix
            else:
                raise ParseError(ln, "expected 'act f -| h: M' or 'act f |- k: M'")
        else:
            raise ParseError(ln, f"unknown system line {line!r}")

    if kind == "constant":
        from .natsys import constant_system
        return name, catname, constant_system(cat, constant_group)
    subject = f"system {name}"
    if kind == "bifunctor":
        return name, catname, _assemble_bifunctor(cat, bif_values, bif_acts,
                                                  block.line_no, subject)
    return name, catname, _assemble_explicit(cat, values, left_acts,
                                             right_acts, block.line_no,
                                             subject)


def _action(subject: str, what: str, src: PresentedGroup,
            dst: PresentedGroup, matrix: IntMatrix) -> GroupHom:
    """The hom of the declared action ``act WHAT``; a matrix that does not
    preserve relations makes the workspace invalid."""
    try:
        return GroupHom.create(src, dst, matrix)
    except IllDefinedHom:
        raise InvalidWorkspace(Report(subject, [
            f"act {what}: matrix does not preserve relations from "
            f"{group_text(src)} to {group_text(dst)}"])) from None


def _assemble_bifunctor(cat, bif_values, bif_acts, line_no, subject
                        ) -> NaturalSystem:
    objects, mors = range(cat.n_objects), range(cat.n_morphisms)
    for x in objects:
        for y in objects:
            if (x, y) not in bif_values:
                raise ParseError(line_no,
                                 f"bifunctor value missing at object pair "
                                 f"({cat.object_name(x)},"
                                 f"{cat.object_name(y)})")
    acts = {}
    for h in mors:      # h: x' -> x and k: y -> y' act (x, y) -> (x', y')
        for k in mors:
            if (h, k) not in bif_acts:
                raise ParseError(line_no,
                                 f"bifunctor action missing at "
                                 f"({cat.morphism_name(h)},"
                                 f"{cat.morphism_name(k)})")
            src = bif_values[cat.mor_target[h], cat.mor_source[k]]
            dst = bif_values[cat.mor_source[h], cat.mor_target[k]]
            acts[h, k] = _action(
                subject, f"{cat.morphism_name(h)} {cat.morphism_name(k)}",
                src, dst, _matrix_of(bif_acts[h, k], dst, src, line_no))
    try:
        return from_bifunctor(cat, bif_values, acts)
    except BifunctorInvalid as exc:
        raise InvalidWorkspace(Report(subject, exc.report.violations)) \
            from None


def _matrix_of(rows: list[list[int]], dst: PresentedGroup,
               src: PresentedGroup, ln: int) -> IntMatrix:
    if len(rows) != dst.generators or \
            any(len(r) != src.generators for r in rows):
        raise ParseError(ln, f"matrix must be {dst.generators}x{src.generators}")
    if dst.generators == 0 or src.generators == 0:
        return IntMatrix.zeros(dst.generators, src.generators)
    return IntMatrix.from_rows(rows)


def _assemble_explicit(cat, values, left_acts, right_acts, line_no, subject
                       ) -> NaturalSystem:
    fc = build_factorization(cat)
    for f in range(cat.n_morphisms):
        if f not in values:
            raise ParseError(line_no,
                             f"value missing at morphism {cat.morphism_name(f)}")
    # one-sided generating actions, each built once; identities may be omitted
    left: dict[tuple[int, int], GroupHom] = {}
    right: dict[tuple[int, int], GroupHom] = {}

    def generator(built, acts, sign, f, leg, composite) -> GroupHom:
        if (f, leg) in built:
            return built[f, leg]
        if cat.is_identity(leg):
            hom = GroupHom.identity(values[f])
        else:
            what = f"{cat.morphism_name(f)} {sign} {cat.morphism_name(leg)}"
            if (f, leg) not in acts:
                raise ParseError(line_no, f"action missing: {what}")
            hom = _action(subject, what, values[f], values[composite],
                          _matrix_of(acts[(f, leg)], values[composite],
                                     values[f], line_no))
        built[f, leg] = hom
        return hom

    homs = []
    for p in fc.pairs:
        fh = cat.table[p.h][p.src]
        homs.append(hom_compose(
            generator(right, right_acts, "|-", fh, p.k, p.dst),
            generator(left, left_acts, "-|", p.src, p.h, fh)))
    return NaturalSystem(fc, AbFunctor(fc.category,
                                       tuple(values[f]
                                             for f in range(cat.n_morphisms)),
                                       tuple(homs)))


def _parse_adjoint(block: _Block, ws: Workspace, unit_side: bool):
    name = block.head.strip()
    big = small = phi = psi = None
    comps: dict[int, int] = {}
    key = "unit" if unit_side else "counit"
    for ln, line in block.lines:
        if line.startswith("big:"):
            big = line[4:].strip()
        elif line.startswith("small:"):
            small = line[6:].strip()
        elif line.startswith("phi:"):
            phi = line[4:].strip()
        elif line.startswith("psi:"):
            psi = line[4:].strip()
        elif line.startswith(key + " "):
            body = line[len(key) + 1:]
            if ":" not in body:
                raise ParseError(ln, f"expected '{key} x: f'")
            o, m = body.split(":", 1)
            bigcat = ws.categories.get(big)
            if bigcat is None:
                raise ParseError(ln, f"{key} listed before big category")
            comps[_obj_by_name(bigcat, o.strip(), ln)] = \
                _mor_by_name(bigcat, m.strip(), ln)
        else:
            raise ParseError(ln, f"unknown {('localization' if unit_side else 'colocalization')} line {line!r}")
    for label, val in (("big", big), ("small", small), ("phi", phi),
                       ("psi", psi)):
        if val is None:
            raise ParseError(block.line_no, f"missing {label}")
    if big not in ws.categories or small not in ws.categories:
        raise ParseError(block.line_no, "unknown category reference")
    if phi not in ws.functors or psi not in ws.functors:
        raise ParseError(block.line_no, "unknown functor reference")
    bigcat = ws.categories[big]
    smallcat = ws.categories[small]
    phif = ws.functors[phi]
    psif = ws.functors[psi]
    components = []
    for x in range(bigcat.n_objects):
        if x not in comps:
            raise ParseError(block.line_no,
                             f"{key} component missing at object "
                             f"{bigcat.object_name(x)}")
        components.append(comps[x])
    xi = compose_functors(psif, phif)
    if unit_side:
        nat = NaturalTransformation(identity_functor(bigcat), xi,
                                    tuple(components))
        return name, Localization(bigcat, smallcat, phif, psif, nat)
    nat = NaturalTransformation(xi, identity_functor(bigcat),
                                tuple(components))
    return name, Colocalization(bigcat, smallcat, phif, psif, nat)


def _parse_task(block: _Block, ws: Workspace) -> Task:
    head = block.head
    if ":" not in head:
        raise ParseError(block.line_no, "expected 'task NAME: command args'")
    name, rest = head.split(":", 1)
    words = rest.split()
    if not words:
        raise ParseError(block.line_no, "task needs a command")
    command = words[0]
    args = []
    max_degree = None
    for w in words[1:]:
        if "=" not in w:
            args.append(w)
            continue
        k, v = w.split("=", 1)
        if k != "max-degree" or max_degree is not None:
            raise ParseError(block.line_no, f"bad task option {w!r}: a task "
                             f"takes one option, max-degree=N")
        try:
            max_degree = int(v)
        except ValueError:
            max_degree = 0
        if max_degree < 1:
            raise ParseError(block.line_no, f"bad task option {w!r}: "
                             f"max-degree must be an integer of at least 1")
    task = Task(name.strip(), command, args, max_degree)
    # cross-reference checks
    if command == "cohomology":
        if len(args) != 2:
            raise ParseError(block.line_no, "cohomology task needs CAT SYSTEM")
        if args[0] not in ws.categories:
            raise ParseError(block.line_no, f"unknown category {args[0]!r}")
        if args[1] not in ws.systems:
            raise ParseError(block.line_no, f"unknown system {args[1]!r}")
        if ws.system_base[args[1]] != args[0]:
            raise ParseError(block.line_no,
                             f"system {args[1]!r} does not live on {args[0]!r}")
    elif command == "localization-check":
        if len(args) != 2:
            raise ParseError(block.line_no,
                             "localization-check task needs LOC SYSTEM")
        if args[0] not in ws.localizations and \
                args[0] not in ws.colocalizations:
            raise ParseError(block.line_no,
                             f"unknown (co)localization {args[0]!r}")
        if args[1] not in ws.systems:
            raise ParseError(block.line_no, f"unknown system {args[1]!r}")
    else:
        raise ParseError(block.line_no, f"unknown task command {command!r}")
    return task


def load_workspace(text: str) -> Workspace:
    blocks = _split_blocks(text)
    ws = Workspace()
    for block in blocks:
        if block.kind == "category":
            name, cat = _parse_category(block)
            if name in ws.categories:
                raise ParseError(block.line_no, f"duplicate category {name!r}")
            # systems, functors and (co)localizations build on the
            # composition table, so it must be complete before they parse
            rep = validate_category(cat)
            if not rep.ok:
                rep.subject = f"category {name}"
                raise InvalidWorkspace(rep)
            ws.categories[name] = cat
        elif block.kind == "functor":
            name, f = _parse_functor(block, ws)
            if name in ws.functors:
                raise ParseError(block.line_no, f"duplicate functor {name!r}")
            ws.functors[name] = f
        elif block.kind == "nat":
            name, a = _parse_nat(block, ws)
            ws.nats[name] = a
        elif block.kind == "system":
            name, catname, s = _parse_system(block, ws)
            if name in ws.systems:
                raise ParseError(block.line_no, f"duplicate system {name!r}")
            ws.systems[name] = s
            ws.system_base[name] = catname
        elif block.kind == "localization":
            name, l = _parse_adjoint(block, ws, unit_side=True)
            ws.localizations[name] = l
        elif block.kind == "colocalization":
            name, l = _parse_adjoint(block, ws, unit_side=False)
            ws.colocalizations[name] = l
        elif block.kind == "task":
            task = _parse_task(block, ws)
            if task.name in ws.tasks:
                raise ParseError(block.line_no, f"duplicate task {task.name!r}")
            ws.tasks[task.name] = task
    return ws


def load_workspace_file(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return load_workspace(fh.read())


# ---------------------------------------------------------------------------
# canonical serialization (used by exports; stable and diff-friendly)

def category_text(name: str, c: FiniteCategory) -> str:
    out = [f"category {name}"]
    out.append("  objects: " + " ".join(c.object_name(x)
                                        for x in range(c.n_objects)))
    for m in range(c.n_morphisms):
        out.append(f"  mor {c.morphism_name(m)}: "
                   f"{c.object_name(c.mor_source[m])} -> "
                   f"{c.object_name(c.mor_target[m])}")
    for x in range(c.n_objects):
        out.append(f"  identity {c.object_name(x)}: "
                   f"{c.morphism_name(c.identity[x])}")
    for f, row in enumerate(c.table):
        for g, h in row.items():
            out.append(f"  compose {c.morphism_name(f)} "
                       f"{c.morphism_name(g)} = {c.morphism_name(h)}")
    out.append("end")
    return "\n".join(out) + "\n"
