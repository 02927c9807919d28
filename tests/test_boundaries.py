"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from a sibling module, what the
builtin arithmetic functors mean is written only in ``arith.OPS``, and
what the boolean ones equal only in ``requirements.REDUCTIONS``,
only ``arith`` decides how numbers are represented,
``Analyzer._step`` is the only place that dispatches on a proof step,
the hottest kernel walks and the resolver's term and formula walks
dispatch on exact node type, no module mutates a surface node, the
unifier's search evaluates instances without building them, save a
flexible conjunction's,
only ``logic`` walks two trees at once, one table there holds the
shape of every kernel node kind, ``EqGraph._put`` is the only
writer of the congruence graph's fact tables, only the upkeep of
its polynomial table computes a normal form, only ``subtyping`` and
the resolver's contradiction check round a type up, no module
outside ``subtyping`` shrinks or reorders a definition registry, and
only ``Trail.write`` changes the analyzer's block-scoped state, and
only ``logic`` calls ``Var``.  ``parse_article`` looks
``tokenize`` up in the parser module's namespace at each call, which is
where a tracer wraps it, and the parser never rewinds its tokens."""

import ast
import pathlib

from micromizar import logic, surface
from micromizar.arith import OPS
from micromizar.records import is_record
from micromizar.requirements import GROUPS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "micromizar"


def private_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("micromizar"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return out


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_checker_modules_do_not_name_arithmetic_requirements():
    # they read ``req.arith`` or call ``req.term_value`` instead, and the
    # requirement table alone decides what an enabled group does
    hits = []
    for name in ("equalizer.py", "unifier.py", "flex.py", "prechecker.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and (node.value in OPS or node.value in GROUPS):
                hits.append(f"{name}:{node.lineno} names {node.value}")
    assert hits == []


def test_the_equalizer_names_no_functor_that_only_the_boolean_rows_read():
    # the boolean equalities are rows of ``RequirementTable.reductions``;
    # the equalizer still reads the intersection, for ``Meets``
    path = PACKAGE / "equalizer.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in ("Union", "Difference", "SymDiff"):
            hits.append(f"equalizer.py:{node.lineno} names {name}")
    assert hits == []


def test_only_arith_imports_fractions():
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names and path.name != "arith.py":
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


# `walk_now` records what a ``now`` exports, and rejects steps that need a thesis
NOW_OWN_STEPS = {"StLet", "StAssume", "StThus", "StTake", "StTakeEq", "StGiven", "StPerCases"}


def step_patterns(path: pathlib.Path) -> list[tuple[str, str]]:
    """(method, class) for each class pattern naming a surface step in a
    method of ``Analyzer``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (analyzer,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Analyzer"]
    out = []
    for method in analyzer.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.MatchClass) and isinstance(node.cls, ast.Name):
                if node.cls.id.startswith(("St", "It")):
                    out.append((method.name, node.cls.id))
    return out


def test_step_kinds_are_dispatched_in_one_place():
    found = step_patterns(PACKAGE / "analyzer.py")
    assert {name for method, name in found if method == "_step"} >= {"StProp", "ItScheme"}
    stray = [
        f"{method} matches {name}"
        for method, name in found
        if method != "_step" and not (method == "walk_now" and name in NOW_OWN_STEPS)
    ]
    assert stray == []


def var_calls(source: str) -> list[int]:
    """The line of each call of ``Var`` or ``x.Var`` in `source`; a class
    pattern ``case Var(...)`` is no call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == "Var"
    )


def test_only_logic_makes_a_variable():
    # ``bound``, ``const``, ``locus``, ``eqclass`` and ``var`` hand out the
    # one shared node of each variable
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "logic.py"
        for line in var_calls(path.read_text())
    ]
    assert hits == []
    src = "def f(t):\n    match t:\n        case Var(k, 0):\n            return Var(k, 1)\n    return logic.Var(k, 2)\n"
    assert var_calls(src) == [4, 5]


# the replay rebuilds the refuting instance, and `_instance` builds a
# flexible conjunction's, which is compared as a term; the graph reads
# every other leaf and type over the classes of the environment, so
# nothing else in the search may build a term
REWRITERS = {"subst_bound", "map_terms"}
MAY_REWRITE = {"_replay", "_instance"}


def test_the_unifier_search_builds_no_terms():
    path = PACKAGE / "unifier.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [n for n in node.body if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions.append(node)
    assert {"_replay", "_instance", "_refute_univ", "_eval"} <= {f.name for f in functions}
    hits = [
        f"{fn.name}:{node.lineno} uses {node.id}"
        for fn in functions
        if fn.name not in MAY_REWRITE
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in REWRITERS
    ]
    assert hits == []


KINDS = {name for name, v in vars(logic).items() if isinstance(v, type) and is_record(v)}


def kind_tested(test) -> str | None:
    """K, for a test ``type(x) is K`` or ``k is K`` naming a kernel node kind."""
    if isinstance(test, ast.Compare) and [type(op) for op in test.ops] == [ast.Is]:
        (k,) = test.comparators
        if isinstance(k, ast.Name) and k.id in KINDS:
            return k.id
    return None


def call_sites(source: str, name: str) -> list[tuple[str | None, str | None]]:
    """(function, node kind of the innermost ``case`` class pattern or
    ``if`` branch that tests one) around each call of the bare name `name`."""
    out = []

    def visit(node, fn, case):
        if isinstance(node, ast.FunctionDef):
            fn = node.name
        elif isinstance(node, ast.match_case) and isinstance(node.pattern, ast.MatchClass):
            case = node.pattern.cls.id
        elif isinstance(node, ast.If) and (kind := kind_tested(node.test)) is not None:
            visit(node.test, fn, case)
            for child in node.body:
                visit(child, fn, kind)
            for child in node.orelse:  # an ``elif`` tests its own kind
                visit(child, fn, case)
            return
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name:
            out.append((fn, case))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, case)

    visit(ast.parse(source), None, None)
    return out


def test_only_a_flexible_conjunction_is_instantiated():
    assert call_sites((PACKAGE / "unifier.py").read_text(), "_instance") == [("_eval", "FlexAnd")]


def test_call_sites_reads_kind_tests():
    # a call in the ``else`` of a kind test is not under that kind
    src = "def f(x):\n    k = type(x)\n    if k is Neg:\n        g()\n    elif type(x) is And:\n        g()\n    else:\n        g()\n"
    assert call_sites(src, "g") == [("f", "Neg"), ("f", "And"), ("f", None)]
    assert kind_tested(ast.parse("k is _BOUND").body[0].value) is None


# The hottest kernel walks, and the resolver's, test ``type(node) is K``,
# most frequent kind first: a class pattern that fails costs an
# ``isinstance`` and reads of ``__match_args__``, and no node kind, kernel
# or surface, has a subclass (``test_surface_kinds``), so the exact type
# is the same test.
TYPE_DISPATCHED = {
    "equalizer.py": {"EqGraph._node", "EqGraph.assume", "EqGraph._seed"},
    "prechecker.py": {
        "Prechecker._unfold",
        "Prechecker._augment",
        "Prechecker._skolemize_top",
        "Prechecker._count",
        "Prechecker._to_dnf",
    },
    "unifier.py": {"Unifier._eval", "_must", "Unifier._match", "_open"},
    "logic.py": {"uses_bound", "uses_const"},
    "resolver.py": {"Resolver.term", "Resolver.formula"},
}


def test_the_hot_walks_dispatch_on_exact_type():
    hits = []
    for name, wanted in TYPE_DISPATCHED.items():
        path = PACKAGE / name
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                functions.update({f"{cls.name}.{n.name}": n for n in cls.body if isinstance(n, ast.FunctionDef)})
        assert wanted <= set(functions), name
        hits += [
            f"{name}:{node.lineno} in {fn}"
            for fn in sorted(wanted)
            for node in ast.walk(functions[fn])
            if isinstance(node, ast.Match)
        ]
    assert hits == []


SURFACE_FIELDS = {
    f
    for kind in vars(surface).values()
    if isinstance(kind, type) and is_record(kind)
    for f in kind.__match_args__
}


def node_mutations(path: pathlib.Path) -> list[str]:
    """Each store to, or deletion of, ``x.f`` where ``f`` names a field of
    a surface kind and ``x`` is not ``self``; each ``setattr`` or
    ``object.__setattr__`` on anything but ``self``; each use of
    ``dataclasses.replace``.  ``self`` is never a surface node: the
    surface kinds define no methods."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr in SURFACE_FIELDS and not is_self:
                hits.append(f"{path.name}:{node.lineno} stores .{node.attr}")
            elif node.attr == "replace" and isinstance(node.value, ast.Name) and node.value.id == "dataclasses":
                hits.append(f"{path.name}:{node.lineno} uses dataclasses.replace")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            if any(alias.name == "replace" for alias in node.names):
                hits.append(f"{path.name}:{node.lineno} imports dataclasses.replace")
        elif isinstance(node, ast.Call) and node.args:
            f = node.func
            setter = (isinstance(f, ast.Name) and f.id == "setattr") or (
                isinstance(f, ast.Attribute) and f.attr == "__setattr__"
            )
            first = node.args[0]
            if setter and not (isinstance(first, ast.Name) and first.id == "self"):
                hits.append(f"{path.name}:{node.lineno} sets an attribute of {ast.unparse(first)}")
    return hits


def test_no_module_mutates_a_surface_node():
    # the nodes are not frozen, so their value semantics rest on this
    assert {"pos", "args", "steps", "end_pos"} <= SURFACE_FIELDS
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in node_mutations(path)] == []


def test_node_mutations_finds_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import dataclasses\nfrom dataclasses import replace\n"
        "def f(node, self):\n"
        "    node.pos = 1\n    node.args += ()\n    del node.steps\n    self.pos = 1\n"
        "    object.__setattr__(node, 'pos', 1)\n    object.__setattr__(self, 'pos', 1)\n"
        "    setattr(node, 'pos', 1)\n    dataclasses.replace(node, pos=1)\n    node.scope = 1\n"
    )
    assert [hit.split(" ", 1)[0] for hit in node_mutations(path)] == [
        f"m.py:{n}" for n in (2, 4, 5, 6, 8, 10, 11)
    ]


def test_only_logic_walks_two_trees_by_hand():
    # a ``match`` on a tuple subject pairs two trees; ``zip_nodes`` does that
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Match) and isinstance(node.subject, ast.Tuple):
                hits.append(f"{path.name}:{node.lineno}")
    assert [h for h in hits if not h.startswith("logic.py:")] == []


def test_one_table_is_keyed_by_node_kinds():
    # the map, the occurrence test and the pair walk all read ``_SHAPE``;
    # a second table per kind would have to learn every new field too
    kinds = KINDS
    tables = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {
            id(node.value): node.targets[0].id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Name) and k.id in kinds for k in node.keys
            ):
                tables.append(f"{path.name}:{names.get(id(node), node.lineno)}")
    assert tables == ["logic.py:_SHAPE"]


FACT_TABLES = {"value", "attrs", "types", "atoms", "neg_eq", "poly", "node_of_key"}
STORES = {"setdefault", "update", "append", "extend", "insert", "add", "__setitem__", "__ior__"}


def _fact_table(node) -> str | None:
    """The fact table `node` reaches: ``self.T``, or a class's table ``self.T[rep]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in FACT_TABLES
    ):
        return node.attr
    return None


def fact_stores(path: pathlib.Path) -> list[str]:
    """Each place in an ``EqGraph`` method, other than ``_put``, that stores
    into a fact table, or rebinds one outside ``__init__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    (graph,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "EqGraph"]
    hits = []
    for method in graph.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "_put":
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    name = _fact_table(t)
                    if name and not (method.name == "__init__" and isinstance(t, ast.Attribute)):
                        hits.append(f"{method.name}:{node.lineno} writes {name}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = _fact_table(node.func.value)
                if name and node.func.attr in STORES:
                    hits.append(f"{method.name}:{node.lineno} calls {name}.{node.func.attr}")
    return hits


def test_only_put_writes_a_fact_table():
    # a second writer would need its own clash check, and would be one
    # more place for a fact to bypass the contradiction
    assert fact_stores(PACKAGE / "equalizer.py") == []


# the polynomial rules run only where the table is brought up to date,
# so no second pass computes normal forms beside it.  This pins the call
# site only: that the upkeep applies a rule once per node, not once per
# round, is test_equalizer's test_a_node_s_normal_form_is_computed_once.
# `_poly_pass` reads classes and nodes through a `_PolyReader`.
POLY_UPKEEP = {"_PolyReader.node_poly"}


def test_only_the_table_upkeep_computes_normal_forms():
    path = PACKAGE / "equalizer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [
        (f"{cls.name}.{method.name}", method)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
    ] + [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    calls = [
        (name, node.lineno)
        for name, function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "poly"
    ]
    assert {name for name, _ in calls} == POLY_UPKEEP


# A type is what was written, and its rounded-up cluster is a fact of the
# definition database, which grows as the article registers clusters: a
# caller reads it through ``subtype`` or ``adjectives``, and only the
# resolver asks for it, to reject a written type that contradicts itself.
MAY_ROUND = "resolver.py:Resolver._checked"


def round_up_calls(path: pathlib.Path) -> list[str]:
    """``file:Class.function`` around each call of ``round_up`` in `path`."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "round_up":
                out.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def test_only_subtyping_and_the_contradiction_check_round_a_type():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in round_up_calls(path)]
    assert MAY_ROUND in hits
    assert [hit for hit in hits if hit != MAY_ROUND and not hit.startswith("subtyping.py:")] == []


def test_parse_article_calls_the_parser_modules_tokenize(monkeypatch):
    from micromizar import parser

    texts = []
    tokenize = parser.tokenize

    def recording_tokenize(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", recording_tokenize)
    art, errs = parser.parse_article("environ begin theorem 1 = 1;")
    assert texts == ["environ begin theorem 1 = 1;"]
    assert errs == [] and len(art.items) == 1


def test_the_parser_never_rewinds():
    # the current token moves only forward, one at a time, and a parse
    # error is caught only to resume at the next item
    path = PACKAGE / "parser.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    moves = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and sub.attr in ("i", "tok")
    }
    assert moves == {"__init__", "next"}
    catches = {
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(isinstance(sub, ast.Name) and sub.id == "MizarError" for sub in ast.walk(node.type))
    }
    assert catches == {"article"}


# The definition database only grows, so the sizes of its registries
# (``DefinitionDb.version()``) change whenever what it says changes: the
# prechecker's verdict memo and its cited universals rest on that.  A
# registry is reached as ``db.R`` or ``<anything>.db.R``.
REGISTRIES = {"attrs", "modes", "funcs", "preds", "existential", "conditional", "functor_clusters"}
SHRINKS = {"pop", "popitem", "remove", "clear", "insert", "sort", "reverse", "__delitem__"}


def _registry(node) -> str | None:
    """R, if `node` is ``db.R`` or ``x.db.R`` for a registry R."""
    if isinstance(node, ast.Attribute) and node.attr in REGISTRIES:
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == "db") or (
            isinstance(owner, ast.Attribute) and owner.attr == "db"
        ):
            return node.attr
    return None


def registry_shrinks(path: pathlib.Path) -> list[str]:
    """Each ``del``, slice store, rebinding or shrinking or reordering
    method call on a definition registry in `path`."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t for t in targets if not isinstance(t, ast.Subscript) or isinstance(t.slice, ast.Slice)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in SHRINKS:
            if (name := _registry(node.func.value)) is not None:
                hits.append(f"{path.name}:{node.lineno} calls {name}.{node.func.attr}")
            continue
        else:
            continue
        for t in targets:
            name = _registry(t.value if isinstance(t, ast.Subscript) else t)
            if name is not None:
                hits.append(f"{path.name}:{node.lineno} {type(node).__name__.lower()} {name}")
    return hits


def test_only_subtyping_may_shrink_a_definition_registry():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "subtyping.py" for hit in registry_shrinks(path)]
    assert hits == []


def test_registry_shrinks_finds_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(self, db, graph):\n"
        "    del self.db.attrs[1]\n    db.modes.pop(2)\n    self.db.conditional.remove(3)\n"
        "    db.existential.clear()\n    self.db.functor_clusters.insert(0, 4)\n"
        "    db.conditional[1:] = []\n    self.db.preds = {}\n    db.existential.sort()\n"
        "    self.db.funcs[5] = 6\n    db.conditional.append(7)\n    graph.attrs.pop(8)\n"
        "    del self.attrs[9]\n    x = db.attrs\n"
    )
    lines = sorted(int(hit.split(" ", 1)[0].split(":")[1]) for hit in registry_shrinks(path))
    assert lines == list(range(2, 10))


# the analyzer's block-scoped state: only `Trail.write` changes it, so
# that the block unwinds it.  ``links`` holds one slot per open block;
# a step's store into the current block's own slot, ``links[-1]``, dies
# with the slot, so it is no write to be unwound.
BLOCK_SCOPED = {
    "labels", "defined", "loci_types", "scheme_results", "scheme_premises", "links", "consts", "const_types",
    "loci", "priv_funcs", "priv_preds", "scheme_funcs", "scheme_preds", "bound_names", "context",
}
MUTATORS = SHRINKS | {"append", "extend", "update", "setdefault", "__setitem__"}


def _own_link(node) -> bool:
    """Whether `node` is ``x.links[-1]``."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "links"
        and isinstance(node.slice, ast.UnaryOp)
        and isinstance(node.slice.op, ast.USub)
        and isinstance(node.slice.operand, ast.Constant)
        and node.slice.operand.value == 1
    )


def _scoped(node) -> str | None:
    """T, if `node` is ``x.T`` or ``x.T[...]`` for a block-scoped T."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in BLOCK_SCOPED:
        return node.attr
    return None


def block_state_writes(path: pathlib.Path) -> list[str]:
    """Each assignment to, deletion from or mutating call on a block-scoped
    table in `path`, and each ``setattr`` of one or store into a
    ``vars()``, outside an ``__init__``, which creates them, and save a
    store into ``links[-1]``.  A table reached through a local alias is
    not seen."""
    tree = ast.parse(path.read_text(), filename=str(path))
    init_lines = {
        line
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "__init__"
        for line in range(f.lineno, f.end_lineno + 1)
    }
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
            targets = [node.func.value]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr":
            name = node.args[1] if len(node.args) > 1 else None
            targets = [ast.Attribute(node.args[0], name.value)] if isinstance(name, ast.Constant) else []
        else:
            continue
        for t in targets:
            if _own_link(t) and isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            into_vars = (
                isinstance(t, ast.Subscript)
                and isinstance(t.value, ast.Call)
                and isinstance(t.value.func, ast.Name)
                and t.value.func.id == "vars"
            )
            name = "vars()" if into_vars else _scoped(t)
            if name is not None and node.lineno not in init_lines:
                hits.append(f"{path.name}:{node.lineno} writes {name}")
    return hits


def test_only_the_trail_writes_block_scoped_state():
    assert block_state_writes(PACKAGE / "analyzer.py") == []


def test_block_state_writes_finds_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class A:\n"
        "    def __init__(self):\n        self.labels = {}\n        self.defined = []\n"
        "    def f(self, table, k):\n"
        "        self.labels[k] = 1\n        del self.scope.consts[k]\n        self.defined.append(k)\n"
        "        self.loci_types = []\n        self.scope.context = {}\n        self.scheme_premises += [k]\n"
        "        self.scope.priv_funcs.update({})\n        del self.scope.const_types[k:]\n"
        "        self.scope.bound_names.pop()\n        setattr(self.scope, 'context', k)\n"
        "        vars(self.scope)['consts'] = k\n        self.scheme_results: dict = {}\n"
        "        self.scope.context['it_term'] = k\n        self.links.append(k)\n        self.links[0] = k\n"
        "        del self.links[-1]\n        self.links[-1] += k\n"
        "        self.trail.write(self.labels, k, 1)\n        self.schemes[k] = 1\n        self.links[-1] = k\n"
        "        table[k] = 1\n        x = self.labels[k]\n        self.scope.attr_names[k] = 1\n"
    )
    lines = sorted(int(hit.split(" ", 1)[0].split(":")[1]) for hit in block_state_writes(path))
    assert lines == list(range(6, 23))

