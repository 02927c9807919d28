"""The surface node kinds, ``micromizar.surface``.

Every concrete kind is a leaf, so the resolver's ``type(s) is K`` tests
what a class pattern ``K()`` tested, and the resolver's term and
formula walks name every term and formula kind.  Every node is
slotted: no kind gives its instances a ``__dict__``, which an abstract
base without ``__slots__ = ()`` would bring back.
"""

import ast
import dataclasses
import inspect
import textwrap

import micromizar.surface as surface
from micromizar.parser import parse_article
from micromizar.resolver import Resolver
from micromizar.surface import Node, SFormula, SJust, SStep, STerm
from test_parser import FUZZ_ARTICLES

ABSTRACT = {Node, STerm, SFormula, SJust, SStep}


def surface_classes() -> list[type]:
    return [v for v in vars(surface).values() if isinstance(v, type) and v.__module__ == surface.__name__]


def leaves(base: type) -> set[str]:
    return {c.__name__ for c in surface_classes() if issubclass(c, base) and c not in ABSTRACT}


def below(node: Node):
    """Every surface node under `node`, in pre-order, not `node` itself."""
    for f in dataclasses.fields(node):
        yield from _nodes(getattr(node, f.name))


def _nodes(value):
    if isinstance(value, Node):
        yield value
        yield from below(value)
    elif isinstance(value, tuple):
        for v in value:
            yield from _nodes(v)


def test_every_concrete_surface_kind_is_a_leaf():
    concrete = [c for c in surface_classes() if c not in ABSTRACT]
    assert len(concrete) > 40
    assert [c.__name__ for c in concrete if c.__subclasses__()] == []
    assert [c.__name__ for c in concrete if not dataclasses.is_dataclass(c)] == []


def test_no_surface_node_has_a_dict():
    assert [c.__name__ for c in surface_classes() if c.__dictoffset__] == []
    seen = set()
    for text in FUZZ_ARTICLES:
        art, errs = parse_article(text)
        assert errs == []
        for item in art.items:
            for node in (item, *below(item)):
                assert not hasattr(node, "__dict__"), node
                seen.add(type(node).__name__)
    assert len(seen) > 40


def kinds_tested(method) -> set[str]:
    """K, for each test ``k is K`` in `method`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    return {
        c.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "k"
        for op, c in zip(node.ops, node.comparators)
        if isinstance(op, ast.Is) and isinstance(c, ast.Name)
    }


def test_the_resolver_walks_name_every_term_and_formula_kind():
    assert kinds_tested(Resolver.term) == leaves(STerm)
    assert kinds_tested(Resolver.formula) == leaves(SFormula)
