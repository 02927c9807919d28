"""Congruence closure over one clause, with requirement-driven rules.

Ground terms are hashconsed into nodes; classes are union-find sets of
nodes whose canonical representative is always the *smallest* node id,
so merge order cannot change the final labeling.  Each class carries
the facts the rules work from: an exact numeric value, polynomials,
adjectives over class-id arguments (the supercluster), mode-level
types, and negated type claims waiting to be contradicted.

Every table is a dict from a key to what is known, and a key is a head
and a tuple of class ids.  ``node_of_key`` maps ``(head, child classes)``
to a node, the head being ``("num", n)``, ``("var", kind, i)``,
``("app", functor)`` or, for a choice, comprehension or scheme functor,
``("opaque", shape)``, whose children are the term's closed parts
(``logic.split_closed``).  ``atoms`` maps ``((ns, pid), argument
classes)`` to a sign, each class's ``attrs`` and ``types`` tables map
``(attribute id or mode, argument classes)`` to a sign or ``True``, and
``neg_eq`` holds each disequality both ways round as ``(None, (a, b))``.
``value`` maps a class to its number.  ``_put(table, key, v)`` is the
only writer; a different value already at the key is a clash, which for
a fact is the contradiction.  A number's adjectives follow from its
value, so they are set with it: ``_put`` gives a class that gets a
value the adjectives ``req.value_attrs`` reads off it, and
``_add_attr`` gives a class that becomes ``zero`` the value 0.  Keys
are canonical when put, so only a merge makes one stale: ``union``
counts merges, and ``_rekey(table, clash)``, the only thing that makes
keys canonical again, runs only if one happened since the last
re-keying: ``_rehash`` re-keys the nodes, whose clash is ``union``, and
``_normalize`` the facts.  ``union`` itself only moves the merged-away
class's value and tables onto the survivor.  Merging two classes with a recorded disequality closes the
graph in that round, recording a disequality of a class with itself
closes it at once, and ``_normalize`` catches a key a merge left stale.

``poly`` maps a polynomial normal form (``arith``, over class ids) to
its class; its clash is ``union``.  It is the graph's only arithmetic: a
class's value is its constant polynomial, so classes of one value merge
through ``poly``, and a node's polynomial comes from the rule
``req.arith`` holds for its functor.  A class's polynomials are its
value, its nodes' and ``canon``, the least (a class in progress read as
its atom).  A class is due when an arithmetic node is made in it, it
gets a value (a numeral's node gets one when it is made), it merges
while any arithmetic functor is present, its ``canon`` was read through
a class in progress, or a class it reads (``users``) is due; each
round's pass recomputes only the due classes' entries, and compares
each pair of a class's polynomials once.  A class that was never due
has no arithmetic node, and an arithmetic node reading it reads its
atom.

The rule families are gated on the constructors the requirements make
present, never on a group by name: a numeral has a value only with the
naturals, an arithmetic functor does what ``req.arith`` says (normalize
polynomials with the full arithmetic, otherwise only fold constants:
``RequirementTable.arith``), order reasoning needs the ordering
predicate, and so on; with the boolean group the node of ``{}`` is
made as the first round starts, so every pass sees it, and the boolean
functors' equalities, such as ``a \\/ {} = a``, are the rows
``req.reductions`` holds for them.  The cluster rules come sorted from
the database's memo (``DefinitionDb.cluster_rules``) and a seeded
type's rounded adjectives too (``adjectives``); a graph interns the
rules' arguments at its first supercluster pass.  Everything runs in
interleaved rounds to a fixpoint with a hard round budget; hitting the
budget abandons the clause as undecided rather than wrong.

``_node``, ``assume`` and ``_seed``, the hottest walks, dispatch on the
exact node type, as the prechecker's do, and read ``VarKind`` members
from module names.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .arith import ZERO, ComplexRational, Polynomial, p_atom, p_const, p_is_atom, p_is_const, p_sort_key, p_sub
from .logic import (
    And,
    Attr,
    FTrue,
    FlexAnd,
    FlexConj,
    ForAll,
    Formula,
    Fraenkel,
    FunctorApp,
    Is,
    Neg,
    Numeral,
    Pred,
    PrivFunc,
    PrivPred,
    Qual,
    Choice,
    SchemeFunctorApp,
    SchemePred,
    Term,
    TypeExpr,
    Var,
    VarKind,
    const,
    eqclass,
    mk_neg,
    sorted_attrs,
    split_closed,
    subst_loci,
    var,
)
from .subtyping import DefinitionDb

_BOUND, _EQCLASS = VarKind.BOUND, VarKind.EQCLASS


class EqGraph:
    def __init__(self, db: DefinitionDb):
        self.db = db
        self.req = db.req
        self.parent: list[int] = []
        self.nodes: list[tuple] = []  # node id -> (head, child class ids at creation)
        self.node_of_key: dict[tuple, int] = {}
        self.class_nodes: dict[int, list[int]] = {}
        self.value: dict[int, ComplexRational] = {}
        self.attrs: dict[int, dict[tuple[int, tuple[int, ...]], bool]] = {}
        self.types: dict[int, dict[tuple[int, tuple[int, ...]], bool]] = {}
        self.neg_quals: dict[int, list[tuple[int, tuple[int, ...], list]]] = {}
        self.atoms: dict[tuple[tuple[str, int], tuple[int, ...]], bool] = {}
        self.neg_eq: dict[tuple[None, tuple[int, int]], bool] = {}
        self.poly: dict[Polynomial, int] = {}
        self.canon: dict[int, Polynomial] = {}
        self.polys: dict[int, list[set[Polynomial]]] = {}  # class -> its polynomials, compared pairwise by group
        self.users: dict[int, list[int]] = {}  # class -> arithmetic nodes with a child in it
        self._due: set[int] = set()  # classes whose polynomials are to be recomputed
        self._merges = 0
        self._rehashed = self._normalized = 0  # merge count when each last re-keyed
        self._rules: list[tuple[list, list, TypeExpr | None]] | None = None
        self.foralls: list[ForAll] = []
        self.flexes: list[tuple[bool, FlexConj]] = []
        self.contradiction = False
        self.shared_refuted = False  # see refute_clause
        self.limited = False
        self._empty_class: int | None = None

    # -- union-find -----------------------------------------------------

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if (None, (ra, rb)) in self.neg_eq:
            self.contradiction = True
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo
        self._merges += 1
        if hi in self.value:
            self._put(self.value, lo, self.value.pop(hi))
        for tables in (self.attrs, self.types):
            into = tables[lo]
            for key, v in tables.pop(hi).items():
                self._put(into, key, v)
        self.neg_quals.setdefault(lo, []).extend(self.neg_quals.pop(hi, []))
        self.class_nodes[lo].extend(self.class_nodes.pop(hi))
        if self.req.arith:
            self.users.setdefault(lo, []).extend(self.users.pop(hi, ()))
            self.polys.setdefault(lo, []).extend(self.polys.pop(hi, ()))
            self._due.add(lo)
        return True

    # -- tables -------------------------------------------------------------

    def _put(self, table: dict, key, v, clash: Callable | None = None) -> bool:
        """Store `v` at `key` unless the key is taken, and say whether it
        was new.  A different value already there is a clash: `clash`
        gets the kept value and `v`; without one, the clause is
        contradictory.  No table stores None."""
        kept = table.get(key)
        if kept is None:
            table[key] = v
            if table is self.value:  # keyed by representatives
                self._due.add(key)
                attrs = self.attrs[key]
                for s, aid in self.req.value_attrs(v):
                    self._put(attrs, (aid, ()), s)
            return True
        if kept != v:
            if clash is None:
                self.contradiction = True
            else:
                clash(kept, v)
        return False

    def _rekey(self, table: dict, clash: Callable | None = None) -> bool:
        """Put every entry of `table` back under its key with the class ids
        made canonical; entries that now share a key clash as in `_put`.
        True if any key changed."""
        if all(self._ids(ids) == ids for _, ids in table):
            return False
        entries = list(table.items())
        table.clear()
        for (head, ids), v in entries:
            # canonical as it is put back: a merge by an earlier clash counts
            self._put(table, (head, self._ids(ids)), v, clash)
        return True

    def _ids(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(self.find, ids)) if ids else ids

    def _interned(self, terms: tuple[Term, ...], env: Sequence[int] = ()) -> tuple[int, ...]:
        return tuple([self._node(t, True, env) for t in terms]) if terms else ()

    # -- interning --------------------------------------------------------
    # A node is keyed by its head and its children's classes at creation.
    # ``intern`` and ``lookup`` are one walk over the term, ``_node``:
    # interning makes a missing node and seeds its facts, a lookup only
    # finds one and never changes the graph.  Bound level i < len(env) is
    # read as the class ``env[i]``, so no caller builds an instance.

    def intern(self, t: Term) -> int:
        return self._node(t, True)

    def lookup(self, t: Term, env: Sequence[int] = ()) -> int | None:
        return self._node(t, False, env)

    def _node(self, t: Term, create: bool, env: Sequence[int] = ()) -> int | None:
        k = type(t)
        if k is Var:
            kind, i = t.kind, t.index
            if kind is _EQCLASS:
                return self.find(i)
            if kind is _BOUND and i < len(env):
                return self.find(env[i])
            head, parts = ("var", kind.value, i), ()
        elif k is FunctorApp:
            head, parts = ("app", t.func), t.args
        elif k is Numeral:
            head, parts = ("num", t.value), ()
        elif k is PrivFunc:
            return self._node(t.expansion, create, env)
        elif k is Choice or k is Fraenkel or k is SchemeFunctorApp:
            shape, parts = split_closed(t, len(env))
            head = ("opaque", shape)
        else:
            raise TypeError(t)
        ch = []
        for a in parts:
            r = self._node(a, create, env)
            if r is None:
                return None
            ch.append(r)
        key = (head, tuple(ch))
        n = self.node_of_key.get(key)
        if n is None:
            if not create:
                return None
            n = len(self.nodes)
            self.nodes.append(key)
            self.parent.append(n)
            self.class_nodes[n] = [n]
            self._put(self.node_of_key, key, n)
            self._put(self.attrs, n, {})
            self._put(self.types, n, {})
            self._seed(n, *key)
        return self.find(n)

    def _seed(self, n: int, head: tuple, children: tuple[int, ...]) -> None:
        tag = head[0]
        if tag == "app" and head[1] in self.req.arith:  # a numeral is due when it gets its value
            self._due.add(n)
            for c in children:
                self.users.setdefault(c, []).append(n)
        if tag == "app":
            self._assume_type_expr(n, self.db.result_type(head[1], _class_args(children)))
        elif tag == "num":
            if self.req.present("Natural"):
                self._put(self.value, n, ComplexRational.from_int(head[1]))
            self._assume_type_expr(n, self.req.numeral_type())
        elif tag == "opaque":
            shape = head[1]
            ty = subst_loci(shape.ty, _class_args(children)) if type(shape) is Choice else self.req.set_type()
            self._assume_type_expr(n, ty)

    def term_of_class(self, rep: int) -> Term:
        n = min(self.class_nodes[self.find(rep)])
        head, children = self.nodes[n]
        match head:
            case ("num", v):
                return Numeral(v)
            case ("var", kindval, i):
                return var(VarKind(kindval), i)
            case ("opaque", shape):
                return subst_loci(shape, tuple(self.term_of_class(c) for c in children))
            case ("app", f):
                return FunctorApp(f, tuple(self.term_of_class(c) for c in children))
        raise AssertionError(head)

    def classes(self) -> list[int]:
        # ascending: nodes come in id order, and a union drops the larger id
        return list(self.class_nodes)

    # -- fact insertion -----------------------------------------------------

    def _add_attr(self, rep: int, sign: bool, aid: int, args: tuple[int, ...]) -> bool:
        rep = self.find(rep)
        new = self._put(self.attrs[rep], (aid, self._ids(args)), sign)
        if new and sign and not args and aid == self.req.ids.ZeroAttr:
            self._put(self.value, rep, ZERO)
        return new

    def _add_type(self, rep: int, mode: int, args: tuple[int, ...]) -> bool:
        return self._put(self.types[self.find(rep)], (mode, self._ids(args)), True)

    def _add_atom(self, ns: str, pid: int, args: tuple[int, ...], sign: bool) -> bool:
        return self._put(self.atoms, ((ns, pid), self._ids(args)), sign)

    def _add_neg_eq(self, a: int, b: int) -> bool:
        # stored both ways round, so a re-keyed pair needs no order
        a, b = self.find(a), self.find(b)
        if a == b:
            self.contradiction = True
        new = self._put(self.neg_eq, (None, (a, b)), True)
        return self._put(self.neg_eq, (None, (b, a)), True) or new

    def _assume_type_expr(self, rep: int, ty: TypeExpr) -> None:
        self._add_type(rep, ty.mode, self._interned(ty.args))
        for s, aid, args in self.db.adjectives(ty):
            self._add_attr(rep, s, aid, self._interned(args))

    # -- literal intake ------------------------------------------------------

    def assume(self, lit: Formula) -> None:
        sign = True
        f = lit
        k = type(f)
        if k is Neg:
            sign, f = False, f.body
            k = type(f)
        if k is Pred:
            p, reps = f.pred, self._interned(f.args)
            if p == self.req.ids.Equality and len(reps) == 2:
                if sign:
                    self.union(reps[0], reps[1])
                else:
                    self._add_neg_eq(reps[0], reps[1])
            else:
                self._add_atom("pred", p, reps, sign)
        elif k is Is:
            rep = self.intern(f.term)
            attr = f.attr
            self._add_attr(rep, attr.positive == sign, attr.attr_id, self._interned(attr.args))
        elif k is Qual:
            rep, ty = self.intern(f.term), f.ty
            if sign:
                self._assume_type_expr(rep, ty)
            else:
                args = self._interned(ty.args)
                lower = self._attr_entries(ty.lower)
                self.neg_quals.setdefault(self.find(rep), []).append((ty.mode, args, lower))
        elif k is ForAll:
            if sign:
                self.foralls.append(f)
        elif k is And:
            if not sign:
                raise TypeError("clause literals must be negation-atomic")
            for c in f.conjuncts:
                self.assume(c)
        elif k is SchemePred:
            self._add_atom("scheme", f.pred, self._interned(f.args), sign)
        elif k is PrivPred:
            exp = f.expansion
            self.assume(exp if sign else mk_neg(exp))
        elif k is FlexAnd:
            self.flexes.append((sign, f.flex))
        elif k is FTrue:
            if not sign:
                self.contradiction = True
        else:
            raise TypeError(f)

    def assume_const_type(self, index: int, ty: TypeExpr) -> None:
        self._assume_type_expr(self.intern(const(index)), ty)

    # -- rule passes -----------------------------------------------------------

    def _rehash(self) -> bool:
        """Re-key the nodes; two that now share a key are congruent."""
        if self._rehashed == self._merges:
            return False
        self._rehashed = self._merges
        classes = len(self.class_nodes)
        self._rekey(self.node_of_key, self.union)
        return len(self.class_nodes) < classes

    def _normalize(self) -> bool:
        """Re-key the facts; two that now share a key must agree."""
        if self._normalized == self._merges:
            return False
        self._normalized = self._merges
        changed = self._rekey(self.atoms)
        for tables in (self.attrs, self.types):
            for table in tables.values():
                changed |= self._rekey(table)
        # no rule pass reads disequalities: re-keying them is no progress
        if self._rekey(self.neg_eq) and any(a == b for _, (a, b) in self.neg_eq):
            self.contradiction = True
        return changed

    def _poly_pass(self) -> bool:
        if not self._due:
            return False
        find, canon = self.find, self.canon
        due: dict[int, list[set[Polynomial]]] = {}  # class -> its polynomials compared pairwise, in groups
        todo, self._due = list(self._due), set()
        while todo:
            rep = find(todo.pop())
            if rep not in due:
                old = due[rep] = self.polys.pop(rep, [])
                canon.pop(rep, None)
                for p in set().union(*old) if old else ():
                    if p in self.poly and find(self.poly[p]) == rep:
                        del self.poly[p]
                todo.extend(self.users.get(rep, ()))

        reader = _PolyReader(self)
        changed = False
        for rep in sorted(due):
            if rep not in self.class_nodes:
                continue
            cands = {reader.class_poly(rep)}
            for n in self.class_nodes[rep]:
                p = reader.node_poly(n)
                if p is not None:
                    cands.add(p)
            v = self.value.get(rep)
            if v is not None:
                cands.add(p_const(v))
            elif rep in reader.looped:
                # only a class read as its atom can have a polynomial
                # whose gap to that atom pins a value
                cands.add(p_atom(rep))
            ordered = sorted(cands, key=p_sort_key) if len(cands) > 1 else list(cands)
            grew = False
            for p in ordered:
                c = p_is_const(p)
                if c is not None:
                    grew |= self._put(self.value, find(rep), c)
                a = p_is_atom(p)
                if a is not None:  # a bare atom names its class
                    grew |= self.union(a, rep)
                else:
                    classes = len(self.class_nodes)
                    self._put(self.poly, p, rep, self.union)
                    grew |= len(self.class_nodes) < classes
            for i, p in enumerate(ordered[:-1]):
                for q in ordered[i + 1 :]:
                    if not any(p in g and q in g for g in due[rep]):
                        grew |= self._poly_gap(p_sub(p, q))
            self.polys.setdefault(find(rep), []).append(cands)
            if grew:
                reader.node_memo.clear()
                changed = True
        return changed

    def _poly_gap(self, d: Polynomial) -> bool:
        """A nonzero constant difference between two polynomials of one
        class is a contradiction; a linear one-variable difference pins
        that variable's value."""
        c = p_is_const(d)
        if c is not None:
            if not c.is_zero():
                self.contradiction = True
            return False
        monos = dict(d)
        consts = monos.pop((), ZERO)
        if len(monos) == 1:
            (mono, coeff), = monos.items()
            if len(mono) == 1 and mono[0][1] == 1:
                cid = mono[0][0]
                return self._put(self.value, self.find(cid), (-consts) / coeff)
        return False

    def _supercluster_pass(self) -> bool:
        if self._rules is None:
            # no cluster is registered while a graph lives
            self._rules = [(self._with_classes(g), self._with_classes(t), ty) for g, t, ty in self.db.cluster_rules()]
        # the guards' keys, their argument classes found again
        rules = [([((aid, self._ids(args)), s) for s, aid, args in g], t, ty) for g, t, ty in self._rules]
        changed = False
        for rep in self.classes():
            amap = self.attrs[rep]
            for guard, target, subject in rules:
                for key, s in guard:
                    if amap.get(key) != s:
                        break
                else:
                    if subject is None or self.class_satisfies(rep, subject):
                        for s, aid, args in target:
                            changed |= self._add_attr(rep, s, aid, args)
        return changed

    def _attr_entries(
        self, attrs: frozenset[Attr], env: Sequence[int] = ()
    ) -> list[tuple[bool, int, tuple[int, ...]]]:
        """The adjectives as (sign, attribute id, argument classes), in
        ``sorted_attrs`` order; their arguments are interned."""
        return [(a.positive, a.attr_id, self._interned(a.args, env)) for a in sorted_attrs(attrs)]

    def _with_classes(self, entries) -> list[tuple[bool, int, tuple[int, ...]]]:
        """Adjectives given as (sign, attribute id, arguments), their arguments interned."""
        return [(s, aid, self._interned(args)) for s, aid, args in entries]

    def _functor_cluster_pass(self) -> bool:
        changed = False
        for fc in self.db.functor_clusters:
            rep = self.lookup(fc.term)
            if rep is None:
                continue
            for s, aid, args in self._attr_entries(fc.attrs):
                changed |= self._add_attr(rep, s, aid, args)
        return changed

    def _order_pass(self) -> bool:
        req = self.req
        le = req.ids.LessOrEqual
        if le is None:
            return False
        changed = False
        for ((ns, pid), args), sign in list(self.atoms.items()):
            if ns != "pred" or pid != le or len(args) != 2:
                continue
            a, b = self.find(args[0]), self.find(args[1])
            va, vb = self.value.get(a), self.value.get(b)
            if sign:
                if va is not None and vb is not None and not va.lex_le(vb):
                    self.contradiction = True
                if a != b and self.atoms.get((("pred", le), (b, a))) is True:
                    changed |= self.union(a, b)
            else:
                if a == b:
                    self.contradiction = True
                elif va is not None and vb is not None and va.lex_le(vb):
                    self.contradiction = True
                changed |= self._add_atom("pred", le, (b, a), True)
                changed |= self._add_neg_eq(a, b)
        return changed

    def _boole_pass(self) -> bool:
        req = self.req
        empty = req.ids.Empty
        if empty is None:
            return False
        changed = False
        e0 = self.find(self._empty_class)
        for rep in self.classes():
            rep = self.find(rep)  # this loop may have merged it into e0
            if rep != e0 and self.attrs[rep].get((empty, ())) is True:
                changed |= self.union(rep, e0)
                e0 = self.find(self._empty_class)
        reductions = req.reductions
        for n, (head, children) in enumerate(self.nodes):
            if head[0] != "app" or len(children) != 2 or head[1] not in reductions:
                continue
            # every row reads a, b and {} as they were when the loop reached the node
            a, b = self.find(children[0]), self.find(children[1])
            rep = self.find(n)
            at = {"a": a, "b": b, "{}": e0}
            for first, second, result in reductions[head[1]]:
                if at[first] == a and at[second] == b:
                    changed |= self.union(rep, at[result])
            e0 = self.find(self._empty_class)
        meets = req.ids.Meets
        member = req.ids.Membership
        inter_f = req.ids.Intersection
        for ((ns, pid), args), sign in list(self.atoms.items()):
            if ns != "pred":
                continue
            if pid == meets and len(args) == 2 and inter_f is not None:
                m = self.intern(
                    FunctorApp(inter_f, (eqclass(args[0]), eqclass(args[1])))
                )
                if sign:
                    changed |= self._add_attr(m, False, empty, ())
                else:
                    changed |= self.union(m, self.find(self._empty_class))
            if pid == member and sign and len(args) == 2:
                if self.find(args[1]) == self.find(self._empty_class):
                    self.contradiction = True
        return changed

    def _subset_pass(self) -> bool:
        req = self.req
        subset_p = req.ids.Subset
        if subset_p is None:
            return False
        changed = False
        elem = req.ids.Element
        powerset = req.ids.PowerSet
        member = req.ids.Membership
        empty = req.ids.Empty
        for ((ns, pid), args), sign in list(self.atoms.items()):
            if ns != "pred" or len(args) != 2:
                continue
            if pid == member and sign:
                x, a = self.find(args[0]), self.find(args[1])
                changed |= self._add_type(x, elem, (a,))
                for mode, targs in list(self.types[a]):
                    if mode != elem or len(targs) != 1:
                        continue
                    for n in self.class_nodes.get(self.find(targs[0]), []):
                        head, children = self.nodes[n]
                        if head == ("app", powerset):
                            b = self.find(children[0])
                            changed |= self._add_type(x, elem, (b,))
                            if empty is not None:
                                changed |= self._add_attr(b, False, empty, ())
            elif pid == subset_p:
                a, b = self.find(args[0]), self.find(args[1])
                if sign:
                    if a != b and self.atoms.get((("pred", subset_p), (b, a))) is True:
                        changed |= self.union(a, b)
                elif a == b:
                    self.contradiction = True
        if member is not None:
            for rep in self.classes():
                for mode, targs in self.types[rep]:
                    if mode != elem or len(targs) != 1:
                        continue
                    a = self.find(targs[0])
                    if self.attrs[a].get((empty, ())) is False:
                        changed |= self._add_atom("pred", member, (rep, a), True)
        return changed

    def class_satisfies(self, rep: int, ty: TypeExpr, env: Sequence[int] = ()) -> bool:
        """Does everything we know about the class place it in ty (level i read as ``env[i]``)?"""
        req = self.req
        amap = self.attrs[self.find(rep)]
        for s, aid, args in self._attr_entries(ty.lower, env):
            if amap.get((aid, args)) != s:
                return False
        if ty.mode in (req.ids.Object, req.ids.Set):
            return True
        want_args = self._interned(ty.args, env)
        for mode, targs in self.types[self.find(rep)]:
            start = TypeExpr(frozenset(), mode, _class_args(targs))
            for anc in self.db.ancestry(start):
                if anc.mode == ty.mode and self._interned(anc.args) == want_args:
                    return True
        return False

    def _neg_qual_pass(self) -> bool:
        for rep in self.classes():
            amap = self.attrs[rep]
            for mode, args, lower in self.neg_quals.get(rep, []):
                ok_attrs = all(amap.get((aid, self._ids(aargs))) == s for s, aid, aargs in lower)
                if not ok_attrs:
                    continue
                bare = TypeExpr(frozenset(), mode, _class_args(args))
                if self.class_satisfies(rep, bare):
                    self.contradiction = True
        return False

    # -- driver ------------------------------------------------------------

    def run(self, max_rounds: int | None = None) -> None:
        budget = 10 * (len(self.nodes) + 10) if max_rounds is None else max_rounds
        rounds = 0
        while not self.contradiction:
            rounds += 1
            if rounds > budget:
                self.limited = True
                break
            if not self.round():
                break

    def round(self) -> bool:
        """Every rule pass once; says whether any made progress."""
        if self._empty_class is None and self.req.present("Empty"):
            self._empty_class = self.intern(FunctorApp(self.req.require("EmptySet"), ()))
        changed = self._rehash()
        changed |= self._normalize()
        changed |= self._poly_pass()
        changed |= self._supercluster_pass()
        changed |= self._functor_cluster_pass()
        changed |= self._order_pass()
        changed |= self._boole_pass()
        changed |= self._subset_pass()
        self._neg_qual_pass()
        return changed

    # -- read access for the instantiation search ---------------------------

    def atom_sign(self, ns: str, pid: int, args: tuple[int, ...]) -> bool | None:
        return self.atoms.get(((ns, pid), self._ids(args)))

    def attr_sign(self, rep: int, aid: int, args: tuple[int, ...]) -> bool | None:
        return self.attrs[self.find(rep)].get((aid, self._ids(args)))

    def are_unequal(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        va, vb = self.value.get(a), self.value.get(b)
        if va is not None and vb is not None and va != vb:
            return True
        return (None, (a, b)) in self.neg_eq


def _class_args(ids: tuple[int, ...]) -> tuple[Term, ...]:
    return tuple(map(eqclass, ids))


def refute_clause(
    db: DefinitionDb,
    literals: list[Formula],
    const_types: dict[int, TypeExpr],
    shared: tuple[dict[int, TypeExpr], list[Formula]] | None = None,
) -> EqGraph:
    """Assume every literal and saturate; the caller inspects the flags.
    `shared` holds the types and literals that every clause of the
    obligation has: they go in first for one round, and a contradiction
    there refutes every clause (``shared_refuted``)."""
    g = EqGraph(db)
    types, lits = shared or ({}, [])
    for idx in sorted(types):
        g.assume_const_type(idx, types[idx])
    for lit in lits:
        g.assume(lit)
    if shared is not None:
        if not g.contradiction:
            g.round()
        if g.contradiction:
            g.shared_refuted = True
            return g
    for idx in sorted(const_types):
        if idx not in types:
            g.assume_const_type(idx, const_types[idx])
    for lit in literals:
        if lit not in lits:
            g.assume(lit)
    g.run()
    return g


class _PolyReader:
    """One `EqGraph._poly_pass`'s reading of classes and nodes as
    polynomials.  It holds the graph, never the other way round, so the
    reader and its memo are freed when the pass returns.  ``node_poly``
    is the only caller of the arithmetic rules; a class of one node, the
    common case, reads as that node's polynomial with nothing to sort."""

    def __init__(self, g: EqGraph):
        self.g = g
        self.in_progress: set[int] = set()
        # A node's polynomial is kept until the pass merges classes or
        # sets a value, and only if no class it read was cut off as in
        # progress: such a class reads differently once it is finished.
        self.node_memo: dict[int, Polynomial | None] = {}
        self.cuts = 0
        self.looped: set[int] = set()

    def class_poly(self, rep: int) -> Polynomial:
        g = self.g
        rep = g.find(rep)
        canon = g.canon
        if rep in canon:
            return canon[rep]
        if rep in self.in_progress:
            self.cuts += 1
            self.looped.add(rep)
            return p_atom(rep)
        v = g.value.get(rep)
        if v is not None:
            canon[rep] = p_const(v)
            return canon[rep]
        self.in_progress.add(rep)
        before = self.cuts
        nodes = g.class_nodes[rep]
        if len(nodes) == 1:
            best = self.node_poly(nodes[0])
        else:
            best = None
            for n in sorted(nodes):
                p = self.node_poly(n)
                if p is not None and (best is None or p_sort_key(p) < p_sort_key(best)):
                    best = p
        self.in_progress.discard(rep)
        if self.cuts != before:
            # read through a cut, it depends on where the walk came
            # in, so the next pass recomputes it rather than trust canon
            g._due.add(rep)
        if best is None:
            best = p_atom(rep)
        canon[rep] = best
        return best

    def node_poly(self, n: int) -> Polynomial | None:
        node_memo = self.node_memo
        if n in node_memo:
            return node_memo[n]
        head, children = self.g.nodes[n]
        arith = self.g.req.arith
        if head[0] == "num":
            p = p_const(ComplexRational.from_int(head[1]))
        elif head[0] != "app" or head[1] not in arith:
            p = None
        else:
            before = self.cuts
            p = arith[head[1]].poly(*[self.class_poly(c) for c in children])
            if self.cuts != before:
                return p
        node_memo[n] = p
        return p
