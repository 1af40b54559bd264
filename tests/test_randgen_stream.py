"""A seed draws the same instances, whatever the library caches.

``tests/golden/randgen_stream.txt`` holds one line per instance drawn for
the first five cases of each law at seed 1, in the order the law draws them:
its shape and a digest of its category tables, the value invariants, action
matrices and factorization pairs of its systems, and the object and
morphism maps of its functors and transformations.  Regenerate it with

    PYTHONPATH=src python tests/test_randgen_stream.py > tests/golden/randgen_stream.txt

only when the instance families themselves change on purpose.
"""

import hashlib
from pathlib import Path

from bwcoh.laws import LAW_NAMES, case_seed
from bwcoh.randgen import InstanceGen

GOLDEN = Path(__file__).resolve().parent / "golden" / "randgen_stream.txt"
SEED = 1
CASES = 5
MAX_MORPHISMS = 6


def _category(c) -> str:
    # the dense table, -1 where a pair does not compose, keeps the digests
    # of the golden file independent of how the table is stored
    dense = tuple(tuple(row.get(g, -1) for g in range(c.n_morphisms))
                  for row in c.table)
    return repr((c.n_objects, c.mor_source, c.mor_target, c.identity,
                 dense, c.object_names, c.morphism_names))


def _system(d) -> str:
    f = d.functor
    return repr((_category(d.base),
                 tuple((p.src, p.dst, p.h, p.k) for p in d.fc.pairs),
                 tuple(g.invariants.machine() for g in f.values),
                 tuple((h.matrix.rows, h.matrix.cols, h.matrix.entries)
                       for h in f.homs)))


def _functor(f) -> str:
    return repr((_category(f.source), _category(f.target),
                 f.obj_map, f.mor_map))


def _nat(n) -> str:
    return repr((_functor(n.source_functor), _functor(n.target_functor),
                 n.components))


def _natsys_morphism(t) -> str:
    return repr((_nat(t.alpha), _system(t.source_system),
                 _system(t.target_system),
                 tuple(h.matrix.entries for h in t.nat.components)))


def _two(two) -> str:
    return repr((_natsys_morphism(two.src), _natsys_morphism(two.dst),
                 _nat(two.eps), _nat(two.gam)))


def _chain(chain) -> str:
    return repr((_category(chain.target),
                 tuple(_functor(f) for f in chain.functors),
                 tuple(_nat(n) for n in chain.nats)))


def _draw(law: str, gen: InstanceGen) -> list[tuple[str, str, str]]:
    """(kind, shape, text) of each instance the law draws, in order."""
    out = []

    def cat(kind, c):
        out.append((kind, f"{c.n_objects}o{c.n_morphisms}m", _category(c)))

    def sys_(kind, d):
        out.append((kind, f"{len(d.fc.pairs)}p", _system(d)))

    def two_(kind, two):
        out.append((kind, f"{two.src.alpha.domain.n_morphisms}m", _two(two)))

    if law == "dd":
        c = gen.category(MAX_MORPHISMS)
        cat("category", c)
        sys_("system", gen.system(c))
    elif law == "dh+hd":
        two, d, e = gen.h_instance()
        two_("two", two)
        sys_("source", d)
        sys_("target", e)
    elif law == "dr-rd":
        two_a, two_b, d, e = gen.vertical_instance()
        two_("two_a", two_a)
        two_("two_b", two_b)
        sys_("source", d)
        sys_("target", e)
    elif law == "interchange":
        two_a, two_b, d, e, g = gen.horizontal_instance()
        two_("two_a", two_a)
        two_("two_b", two_b)
        sys_("source", d)
        sys_("middle", e)
        sys_("target", g)
    else:
        dom = gen.chain_domain()
        cat("domain", dom)
        chain = gen.nat_chain(dom, 4)
        out.append(("chain", f"{len(chain.functors)}f", _chain(chain)))
        dom2 = gen.chain_domain()
        cat("domain2", dom2)
        outer = gen.nat_chain(dom2, 4)
        out.append(("outer", f"{len(outer.functors)}f", _chain(outer)))
        inner = gen.nat_chain(outer.target, 2)
        out.append(("inner", f"{len(inner.functors)}f", _chain(inner)))
        sys_("system", gen.system(inner.target))
    return out


def stream_lines() -> list[str]:
    lines = []
    for law in LAW_NAMES:
        for i in range(CASES):
            s = case_seed(SEED, law, i)
            for kind, shape, text in _draw(law, InstanceGen(s)):
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
                lines.append(f"{law} {i} {s} {kind} {shape} {digest}")
    return lines


def test_instance_stream_matches_golden():
    assert stream_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    print("\n".join(stream_lines()))
