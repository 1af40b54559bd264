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
      hom: Z                   # G^Hom(x, y) at f: x -> y, where
    end                        # (h, k) sends u to k∘u∘h

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

* on load (``ParseError``, naming the offending line): every line must be
  one its block kind knows; a line keyed by what precedes its separator
  (``compose f g``, ``value f``, ``big:``, ``unit x``, ...) may appear once
  per block, where only ``objects:`` lines continue and a category's
  ``mor`` lines are checked as duplicate names; a system is constant,
  hom, bifunctor (``bifunctor:`` its first line) or explicit, never a mix;
  a group has at most ``MAX_GENERATORS`` generators, and so has each value
  of a ``hom:`` system, the group times the largest Hom set; the actions of
  a ``hom:`` system, one per pair of morphisms, together hold at most
  ``MAX_GENERATORS`` ** 2 entries; a ``compose`` line has spaces around its
  ``=``, so names may contain ``=``;
  block names are unique per kind, localizations and colocalizations
  sharing one namespace; every cross-reference must resolve, the system of
  a task must live on its category or on the big category of its
  (co)localization, and every task option must be ``max-degree=N`` with
  N >= 1;
* on load, every category must pass ``validate_category``, every declared
  action matrix must preserve relations, and a ``bifunctor:`` system must
  pass ``validate_bifunctor`` (all ``InvalidWorkspace``);
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

from collections import Counter
from dataclasses import dataclass, field

from .abgroup import (
    GroupHom, IllDefinedHom, PresentedGroup, from_invariants, hom_compose,
)
from .bwcomplex import ProductGroup
from .factorization import build_factorization
from .fincat import (
    FiniteCategory, Functor, NaturalTransformation, Report, compose_functors,
    identity_functor, make_category, validate_category,
)
from .intmat import IntMatrix
from .localization import Colocalization, Localization, validate_adjoint_pair
from .natsys import (
    AbFunctor, BifunctorInvalid, NaturalSystem, constant_system,
    from_bifunctor, hom_system, validate_natural_system,
)

HEADER = "bwcoh workspace v1"

# every action on a group is a dense square matrix over its generators, so
# one action holds at most MAX_GENERATORS^2 entries; so do all the actions
# of a ``hom:`` system together, one per pair of morphisms
MAX_GENERATORS = 2048


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
    generators = rank + len(torsion)
    if generators > MAX_GENERATORS:
        raise ParseError(line_no, f"group has {generators} generators, "
                         f"more than {MAX_GENERATORS}")
    return from_invariants(rank, tuple(torsion))


def group_text(g: PresentedGroup | ProductGroup) -> str:
    """A group's invariants in workspace spelling, e.g. ``Z^2 + Z/2``."""
    return g.invariants.human("+")


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
            not all(isinstance(r, list) and all(type(x) is int for x in r)
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
        line = raw.partition("#")[0].strip()
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
            if kind not in _KINDS:
                raise ParseError(i, f"unknown block kind {kind!r}")
            block = _Block(kind, parts[1] if len(parts) > 1 else "", i, [])
            if kind == "task":
                blocks.append(block)
            else:
                current = block
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


def _split(text: str, sep: str, line: int, usage: str) -> tuple[str, str]:
    """``text`` cut at its first ``sep`` into two stripped halves; text
    without ``sep`` is a parse error quoting ``usage``."""
    left, found, right = text.partition(sep)
    if not found:
        raise ParseError(line, f"expected '{usage}'")
    return left.strip(), right.strip()


def _find(table: dict, kind: str, name: str, line: int):
    """``table[name]``: a workspace table's entry, or an object's or a
    morphism's position; a name the table lacks is a parse error."""
    try:
        return table[name]
    except KeyError:
        raise ParseError(line, f"unknown {kind} {name!r}") from None


def _positions(names) -> dict[str, int]:
    """Each name's position; a category without names has None."""
    return {name: i for i, name in enumerate(names or ())}


# The lines of each block kind, by prefix: ``(sep, usage)`` for a line
# ``PREFIX KEY sep VALUE``, None for ``PREFIX VALUE``.  No prefix starts
# another, so the order, most frequent first, only saves time
_CATEGORY_LINES = {"compose ": (" = ", "compose f g = h"),
                   "mor ": (":", "mor f: a -> b"),
                   "identity ": (":", "identity a: id_a"), "objects:": None}
_FUNCTOR_LINES = {"obj ": ("->", "x -> y"), "mor ": ("->", "x -> y")}
_NAT_LINES = {"at ": (":", "at x: f")}
_SYSTEM_LINES = {"act ": (":", "act ...: MATRIX"),
                 "value ": (":", "value f: GROUP"),
                 "constant:": None, "hom:": None, "bifunctor": None}
_ADJOINT_LINES = {kind: {"big:": None, "small:": None, "phi:": None,
                         "psi:": None, f"{key} ": (":", f"{key} x: f")}
                  for kind, key in (("localization", "unit"),
                                    ("colocalization", "counit"))}


def _lines(block: _Block, grammar: dict, repeatable: tuple[str, ...] = ()):
    """Each line of ``block`` as ``(line, prefix, key, value)``, read by
    ``grammar``.  A line ``PREFIX KEY`` may appear only once per block unless
    its prefix is ``repeatable``; a repeat names both lines."""
    seen: dict[str, int] = {}
    for ln, line in block.lines:
        for prefix in grammar:
            if line.startswith(prefix):
                break
        else:
            raise ParseError(ln, f"unknown {block.kind} line {line!r}")
        form = grammar[prefix]
        rest = line[len(prefix):]
        key, value = _split(rest, form[0], ln, form[1]) if form \
            else ("", rest.strip())
        if prefix not in repeatable:
            what = prefix + " ".join(key.split())
            if what in seen:
                raise ParseError(ln, f"{what.strip()!r} repeats line "
                                 f"{seen[what]}")
            seen[what] = ln
        yield ln, prefix, key, value


def _parse_category(block: _Block, ws: Workspace) -> tuple[str, FiniteCategory]:
    name = block.head.strip()
    if not name:
        raise ParseError(block.line_no, "category needs a name")
    # mors and composes as (line, name, source, target), (line, f, g, h)
    objects, mors, identities, composes = [], [], {}, []
    for ln, prefix, key, value in _lines(block, _CATEGORY_LINES,
                                         ("objects:", "mor ")):
        if prefix == "objects:":
            objects.extend(value.split())
        elif prefix == "mor ":
            mors.append((ln, key, *_split(value, "->", ln, "mor f: a -> b")))
        elif prefix == "identity ":
            identities[key] = (ln, value)
        else:
            pair = key.split()
            if len(pair) != 2:
                raise ParseError(ln, "expected two morphisms before ' = '")
            composes.append((ln, pair[0], pair[1], value))
    obj_index = _positions(objects)
    mor_index = _positions(m[1] for m in mors)
    if len(obj_index) != len(objects):
        raise ParseError(block.line_no, "duplicate object name")
    if len(mor_index) != len(mors):
        raise ParseError(block.line_no, "duplicate morphism name")
    for o, (ln, _) in identities.items():
        _find(obj_index, "object", o, ln)
    pairs = {}
    for ln, f, g, h in composes:
        pairs[(_find(mor_index, "morphism", f, ln),
               _find(mor_index, "morphism", g, ln))] = \
            _find(mor_index, "morphism", h, ln)
    ident = []
    for o in objects:
        if o not in identities:
            raise ParseError(block.line_no, f"object {o!r} has no identity")
        ln, m = identities[o]
        ident.append(_find(mor_index, "morphism", m, ln))
    cat = make_category(
        len(objects),
        [(_find(obj_index, "object", s, ln), _find(obj_index, "object", t, ln))
         for ln, _, s, t in mors],
        ident, pairs,
        object_names=objects, morphism_names=[m[1] for m in mors],
    )
    return name, cat


def _parse_functor(block: _Block, ws: Workspace) -> tuple[str, Functor]:
    usage = "functor NAME: A -> B"
    name, rest = _split(block.head, ":", block.line_no, usage)
    src, tgt = (_find(ws.categories, "category", n, block.line_no)
                for n in _split(rest, "->", block.line_no, usage))
    objs = [_positions(c.object_names) for c in (src, tgt)]
    mors = [_positions(c.morphism_names) for c in (src, tgt)]
    obj_map = [None] * src.n_objects
    mor_map = [None] * src.n_morphisms
    for ln, prefix, a, b in _lines(block, _FUNCTOR_LINES):
        if prefix == "obj ":
            obj_map[_find(objs[0], "object", a, ln)] = \
                _find(objs[1], "object", b, ln)
        else:
            mor_map[_find(mors[0], "morphism", a, ln)] = \
                _find(mors[1], "morphism", b, ln)
    if None in obj_map or None in mor_map:
        raise ParseError(block.line_no, "functor map is not total")
    return name, Functor(src, tgt, tuple(obj_map), tuple(mor_map))


def _parse_nat(block: _Block, ws: Workspace) -> tuple[str, NaturalTransformation]:
    usage = "nat NAME: F => G"
    name, rest = _split(block.head, ":", block.line_no, usage)
    src_f, tgt_f = (_find(ws.functors, "functor", n, block.line_no)
                    for n in _split(rest, "=>", block.line_no, usage))
    objs = _positions(src_f.source.object_names)
    mors = _positions(src_f.target.morphism_names)
    comps = [None] * src_f.source.n_objects
    for ln, _, o, m in _lines(block, _NAT_LINES):
        comps[_find(objs, "object", o, ln)] = _find(mors, "morphism", m, ln)
    if None in comps:
        raise ParseError(block.line_no, "components are not total")
    return name, NaturalTransformation(src_f, tgt_f, tuple(comps))


def _parse_system(block: _Block, ws: Workspace) -> tuple[str, NaturalSystem]:
    name, catname = _split(block.head, " on ", block.line_no,
                           "system NAME on CAT")
    cat = _find(ws.categories, "category", catname, block.line_no)
    objs, mors = _positions(cat.object_names), _positions(cat.morphism_names)
    kind = since = group = None
    # explicit: values by morphism, acts by (sign, f, leg); bifunctor:
    # values by object pair, acts by morphism pair; each act (line, rows)
    values, acts = {}, {}
    for ln, prefix, key, text in _lines(block, _SYSTEM_LINES):
        if prefix == "bifunctor" and text not in ("", ":"):
            raise ParseError(ln, "expected 'bifunctor:'")
        if prefix in ("constant:", "hom:", "bifunctor"):
            line_kind = prefix.rstrip(":")
        else:
            line_kind = "bifunctor" if kind == "bifunctor" else "explicit"
        if kind not in (None, line_kind):
            raise ParseError(ln, f"system kinds mix: {kind} on line {since}, "
                             f"{line_kind} here")
        if kind is None:
            kind, since = line_kind, ln
        words = key.split()
        if prefix in ("constant:", "hom:"):
            group = parse_group(text, ln)
        elif prefix == "value ":
            if kind == "bifunctor":
                if len(words) != 2:
                    raise ParseError(ln, "bifunctor value needs two objects")
                values[_find(objs, "object", words[0], ln),
                       _find(objs, "object", words[1], ln)] = \
                    parse_group(text, ln)
            else:
                if len(words) != 1:
                    raise ParseError(ln, "value needs one morphism")
                values[_find(mors, "morphism", words[0], ln)] = \
                    parse_group(text, ln)
        elif prefix == "act ":
            matrix = (ln, parse_matrix(text, ln))
            if kind == "bifunctor":
                if len(words) != 2:
                    raise ParseError(ln, "bifunctor act needs two morphisms")
                acts[_find(mors, "morphism", words[0], ln),
                     _find(mors, "morphism", words[1], ln)] = matrix
            elif len(words) == 3 and words[1] in ("-|", "|-"):
                acts[words[1], _find(mors, "morphism", words[0], ln),
                     _find(mors, "morphism", words[2], ln)] = matrix
            else:
                raise ParseError(ln, "expected 'act f -| h: M' or "
                                 "'act f |- k: M'")
    ws.system_base[name] = catname
    if kind == "constant":
        return name, constant_system(cat, group)
    if kind == "hom":
        # D(f) is free over the group on Hom(source f, target f)
        widest = max(Counter(zip(cat.mor_source, cat.mor_target)).values(),
                     default=0)
        width = widest * group.generators
        if width > MAX_GENERATORS:
            raise ParseError(since, f"hom values have {width} generators "
                             f"({widest} morphisms x {group.generators}), "
                             f"more than {MAX_GENERATORS}")
        # one dense action per pair of morphisms, each at most width^2
        entries = (cat.n_morphisms * width) ** 2
        if entries > MAX_GENERATORS ** 2:
            raise ParseError(since, f"hom actions have {entries} entries "
                             f"({cat.n_morphisms}^2 actions of up to "
                             f"{width}^2), more than {MAX_GENERATORS}^2")
        return name, hom_system(cat, group)
    subject = f"system {name}"
    if kind == "bifunctor":
        return name, _assemble_bifunctor(cat, values, acts, block.line_no,
                                         subject)
    return name, _assemble_explicit(cat, values, acts, block.line_no, subject)


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


def _assemble_bifunctor(cat, values, acts, line_no, subject) -> NaturalSystem:
    objects, mors = range(cat.n_objects), range(cat.n_morphisms)
    for x in objects:
        for y in objects:
            if (x, y) not in values:
                raise ParseError(line_no,
                                 f"bifunctor value missing at object pair "
                                 f"({cat.object_name(x)},"
                                 f"{cat.object_name(y)})")
    homs = {}
    for h in mors:      # h: x' -> x and k: y -> y' act (x, y) -> (x', y')
        for k in mors:
            if (h, k) not in acts:
                raise ParseError(line_no,
                                 f"bifunctor action missing at "
                                 f"({cat.morphism_name(h)},"
                                 f"{cat.morphism_name(k)})")
            src = values[cat.mor_target[h], cat.mor_source[k]]
            dst = values[cat.mor_source[h], cat.mor_target[k]]
            homs[h, k] = _action(
                subject, f"{cat.morphism_name(h)} {cat.morphism_name(k)}",
                src, dst, _matrix_of(acts[h, k], dst, src))
    try:
        return from_bifunctor(cat, values, homs)
    except BifunctorInvalid as exc:
        raise InvalidWorkspace(Report(subject, exc.report.violations)) \
            from None


def _matrix_of(act: tuple[int, list[list[int]]], dst: PresentedGroup,
               src: PresentedGroup) -> IntMatrix:
    """The matrix of a declared act, given as (line, rows)."""
    ln, rows = act
    if len(rows) != dst.generators or \
            any(len(r) != src.generators for r in rows):
        raise ParseError(ln, f"matrix must be {dst.generators}x{src.generators}")
    if dst.generators == 0 or src.generators == 0:
        return IntMatrix.zeros(dst.generators, src.generators)
    return IntMatrix.from_rows(rows)


def _assemble_explicit(cat, values, acts, line_no, subject) -> NaturalSystem:
    fc = build_factorization(cat)
    for f in range(cat.n_morphisms):
        if f not in values:
            raise ParseError(line_no,
                             f"value missing at morphism {cat.morphism_name(f)}")
    # one-sided generating actions, each built once; identities may be omitted
    built: dict[tuple[str, int, int], GroupHom] = {}

    def generator(sign, f, leg, composite) -> GroupHom:
        if (sign, f, leg) in built:
            return built[sign, f, leg]
        if cat.is_identity(leg):
            hom = GroupHom.identity(values[f])
        else:
            what = f"{cat.morphism_name(f)} {sign} {cat.morphism_name(leg)}"
            if (sign, f, leg) not in acts:
                raise ParseError(line_no, f"action missing: {what}")
            hom = _action(subject, what, values[f], values[composite],
                          _matrix_of(acts[sign, f, leg], values[composite],
                                     values[f]))
        built[sign, f, leg] = hom
        return hom

    homs = []
    for p in fc.pairs:
        fh = cat.table[p.h][p.src]
        homs.append(hom_compose(generator("|-", fh, p.k, p.dst),
                                generator("-|", p.src, p.h, fh)))
    return NaturalSystem(fc, AbFunctor(
        fc, tuple(values[f] for f in range(cat.n_morphisms)), tuple(homs)))


def _parse_adjoint(block: _Block, ws: Workspace):
    name = block.head.strip()
    unit_side = block.kind == "localization"
    key = "unit" if unit_side else "counit"
    refs: dict[str, str] = {}
    names = None        # objects and morphisms of the big category
    comps: dict[int, int] = {}
    for ln, prefix, o, m in _lines(block, _ADJOINT_LINES[block.kind]):
        if prefix != key + " ":
            refs[prefix[:-1]] = m
            continue
        if names is None:
            bigcat = ws.categories.get(refs.get("big"))
            if bigcat is None:
                raise ParseError(ln, f"{key} listed before big category")
            names = (_positions(bigcat.object_names),
                     _positions(bigcat.morphism_names))
        comps[_find(names[0], "object", o, ln)] = \
            _find(names[1], "morphism", m, ln)
    for label in ("big", "small", "phi", "psi"):
        if label not in refs:
            raise ParseError(block.line_no, f"missing {label}")
    bigcat, smallcat = (ws.categories.get(refs[label])
                        for label in ("big", "small"))
    if bigcat is None or smallcat is None:
        raise ParseError(block.line_no, "unknown category reference")
    phif, psif = (ws.functors.get(refs[label]) for label in ("phi", "psi"))
    if phif is None or psif is None:
        raise ParseError(block.line_no, "unknown functor reference")
    components = []
    for x in range(bigcat.n_objects):
        if x not in comps:
            raise ParseError(block.line_no,
                             f"{key} component missing at object "
                             f"{bigcat.object_name(x)}")
        components.append(comps[x])
    # the unit runs 1 => psi∘phi, the counit psi∘phi => 1
    ends = (identity_functor(bigcat), compose_functors(psif, phif))
    nat = NaturalTransformation(*(ends if unit_side else ends[::-1]),
                                tuple(components))
    return name, (Localization if unit_side else Colocalization)(
        bigcat, smallcat, phif, psif, nat)


def _parse_task(block: _Block, ws: Workspace) -> tuple[str, Task]:
    name, rest = _split(block.head, ":", block.line_no,
                        "task NAME: command args")
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
    # cross-reference checks, as the command itself makes them
    if command == "cohomology":
        if len(args) != 2:
            raise ParseError(block.line_no, "cohomology task needs CAT SYSTEM")
        _find(ws.categories, "category", args[0], block.line_no)
        _find(ws.systems, "system", args[1], block.line_no)
        if ws.system_base[args[1]] != args[0]:
            raise ParseError(block.line_no,
                             f"system {args[1]!r} does not live on {args[0]!r}")
    elif command == "localization-check":
        if len(args) != 2:
            raise ParseError(block.line_no,
                             "localization-check task needs LOC SYSTEM")
        loc = ws.localizations.get(args[0]) or \
            ws.colocalizations.get(args[0])
        if loc is None:
            raise ParseError(block.line_no,
                             f"unknown (co)localization {args[0]!r}")
        system = _find(ws.systems, "system", args[1], block.line_no)
        if system.base != loc.big:
            raise ParseError(block.line_no,
                             f"system {args[1]!r} does not live on the big "
                             f"category of {args[0]!r}")
    else:
        raise ParseError(block.line_no, f"unknown task command {command!r}")
    return name, Task(name, command, args, max_degree)


# Each block kind's parser and the Workspace tables its name must be new
# to, the first of which stores it.  Localizations and colocalizations
# share one namespace.
_KINDS = {
    "category": (_parse_category, ("categories",)),
    "functor": (_parse_functor, ("functors",)),
    "nat": (_parse_nat, ("nats",)),
    "system": (_parse_system, ("systems",)),
    "localization": (_parse_adjoint, ("localizations", "colocalizations")),
    "colocalization": (_parse_adjoint, ("colocalizations", "localizations")),
    "task": (_parse_task, ("tasks",)),
}


def load_workspace(text: str) -> Workspace:
    ws = Workspace()
    for block in _split_blocks(text):
        parse, tables = _KINDS[block.kind]
        name, value = parse(block, ws)
        if any(name in getattr(ws, table) for table in tables):
            raise ParseError(block.line_no, f"duplicate {block.kind} {name!r}")
        if block.kind == "category":
            # systems, functors and (co)localizations build on the
            # composition table, so it must be complete before they parse
            rep = validate_category(value)
            if not rep.ok:
                rep.subject = f"category {name}"
                raise InvalidWorkspace(rep)
        getattr(ws, tables[0])[name] = value
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
