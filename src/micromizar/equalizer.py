"""Congruence closure over one clause, with requirement-driven rules.

Ground terms are hashconsed into nodes; classes are union-find sets of
nodes whose canonical representative is always the *smallest* node id,
so merge order cannot change the final labeling.  Each class carries
the facts the rules work from: an exact numeric value, polynomials,
adjectives over class-id arguments (the supercluster), mode-level
types, and negated type claims waiting to be contradicted.

The rule families are gated on the requirement groups that supply
their constructors: numeral evaluation needs the naturals, polynomial
normalization the full arithmetic, order reasoning the ordering
predicate, and so on.  Everything runs in interleaved rounds to a
fixpoint with a hard round budget; hitting the budget abandons the
clause as undecided rather than wrong.
"""

from __future__ import annotations

from .arith import ZERO, ComplexRational, Polynomial, p_atom, p_const, p_is_const, p_sort_key, p_sub
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
    mk_neg,
    sorted_attrs,
)
from .subtyping import DefinitionDb


class EqGraph:
    def __init__(self, db: DefinitionDb):
        self.db = db
        self.req = db.req
        self.parent: list[int] = []
        self.nodes: list[tuple] = []  # node id -> (head, child class ids at creation)
        self.node_of_key: dict = {}
        self.class_nodes: dict[int, list[int]] = {}
        self.value: dict[int, ComplexRational] = {}
        self.attrs: dict[int, dict[tuple[int, tuple[int, ...]], bool]] = {}
        self.types: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self.neg_quals: dict[int, list[tuple[int, tuple[int, ...], tuple]]] = {}
        self.atoms: dict[tuple[str, int, tuple[int, ...]], bool] = {}
        self.neg_eq: list[tuple[int, int]] = []
        self.foralls: list[ForAll] = []
        self.flexes: list[tuple[bool, FlexConj]] = []
        self.contradiction = False
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
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo
        vhi = self.value.pop(hi, None)
        if vhi is not None:
            vlo = self.value.get(lo)
            if vlo is None:
                self.value[lo] = vhi
            elif vlo != vhi:
                self.contradiction = True
        amap = self.attrs.setdefault(lo, {})
        for k, s in self.attrs.pop(hi, {}).items():
            if amap.setdefault(k, s) != s:
                self.contradiction = True
        self.types.setdefault(lo, []).extend(self.types.pop(hi, []))
        self.neg_quals.setdefault(lo, []).extend(self.neg_quals.pop(hi, []))
        self.class_nodes.setdefault(lo, []).extend(self.class_nodes.pop(hi, []))
        return True

    # -- interning --------------------------------------------------------
    # A node is keyed by its head and its children's classes at creation.
    # ``intern`` and ``lookup`` are one walk over the term, ``_node``:
    # interning makes a missing node and seeds its facts, a lookup only
    # finds one and never changes the graph.

    def intern(self, t: Term) -> int:
        return self._node(t, True)

    def lookup(self, t: Term) -> int | None:
        return self._node(t, False)

    def _node(self, t: Term, create: bool) -> int | None:
        match t:
            case Var(VarKind.EQCLASS, i):
                return self.find(i)
            case PrivFunc(_, _, exp):
                return self._node(exp, create)
            case Numeral(v):
                key = (("num", v), ())
            case Var(kind, i):
                key = (("var", kind.value, i), ())
            case FunctorApp(f, args):
                ch = []
                for a in args:
                    r = self._node(a, create)
                    if r is None:
                        return None
                    ch.append(r)
                key = (("app", f), tuple(ch))
            case Choice() | Fraenkel() | SchemeFunctorApp():
                key = (("opaque", t), ())
            case _:
                raise TypeError(t)
        n = self.node_of_key.get(key)
        if n is None:
            if not create:
                return None
            n = len(self.nodes)
            self.nodes.append(key)
            self.parent.append(n)
            self.class_nodes[n] = [n]
            self.node_of_key[key] = n
            self._seed(n, *key)
        return self.find(n)

    def lookup_app(self, f: int, reps: tuple[int, ...]) -> int | None:
        """Class of the application of functor `f` to the classes `reps`."""
        n = self.node_of_key.get((("app", f), reps))
        return None if n is None else self.find(n)

    def _seed(self, n: int, head: tuple, children: tuple[int, ...]) -> None:
        match head:
            case ("num", v):
                if self.req.present("Natural"):
                    self.value[n] = ComplexRational.from_int(v)
                self._assume_type_expr(n, self.req.numeral_type())
            case ("app", f):
                self._assume_type_expr(n, self.db.result_type(f, _class_args(children)))
            case ("opaque", t):
                if isinstance(t, Choice):
                    self._assume_type_expr(n, t.ty)
                else:
                    self._assume_type_expr(n, self.req.set_type())

    def term_of_class(self, rep: int) -> Term:
        n = min(self.class_nodes[self.find(rep)])
        head, children = self.nodes[n]
        match head:
            case ("num", v):
                return Numeral(v)
            case ("var", kindval, i):
                return Var(VarKind(kindval), i)
            case ("opaque", t):
                return t
            case ("app", f):
                return FunctorApp(f, tuple(self.term_of_class(c) for c in children))
        raise AssertionError(head)

    def classes(self) -> list[int]:
        return sorted({self.find(n) for n in range(len(self.nodes))})

    # -- fact insertion -----------------------------------------------------

    def _add_attr(self, rep: int, sign: bool, aid: int, args: tuple[int, ...]) -> bool:
        rep = self.find(rep)
        amap = self.attrs.setdefault(rep, {})
        key = (aid, tuple(self.find(a) for a in args))
        if key in amap:
            if amap[key] != sign:
                self.contradiction = True
            return False
        amap[key] = sign
        return True

    def _add_type(self, rep: int, ct: tuple[int, tuple[int, ...]]) -> bool:
        rep = self.find(rep)
        ct = (ct[0], tuple(self.find(a) for a in ct[1]))
        tl = self.types.setdefault(rep, [])
        if ct in tl:
            return False
        tl.append(ct)
        return True

    def _add_atom(self, ns: str, pid: int, args: tuple[int, ...], sign: bool) -> bool:
        key = (ns, pid, tuple(self.find(a) for a in args))
        if key in self.atoms:
            if self.atoms[key] != sign:
                self.contradiction = True
            return False
        self.atoms[key] = sign
        return True

    def _add_neg_eq(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        pair = (min(a, b), max(a, b))
        if pair in self.neg_eq:
            return False
        self.neg_eq.append(pair)
        return True

    def _set_value(self, rep: int, v: ComplexRational) -> bool:
        rep = self.find(rep)
        old = self.value.get(rep)
        if old is None:
            self.value[rep] = v
            return True
        if old != v:
            self.contradiction = True
        return False

    def _assume_type_expr(self, rep: int, ty: TypeExpr) -> bool:
        rep = self.find(rep)
        r = self.db.round_up(ty)
        args = tuple(self.find(self.intern(a)) for a in ty.args)
        changed = self._add_type(rep, (ty.mode, args))
        for at in sorted_attrs(r.upper):
            aargs = tuple(self.find(self.intern(x)) for x in at.args)
            changed |= self._add_attr(rep, at.positive, at.attr_id, aargs)
        return changed

    # -- literal intake ------------------------------------------------------

    def assume(self, lit: Formula) -> None:
        sign = True
        f = lit
        if isinstance(f, Neg):
            sign, f = False, f.body
        match f:
            case FTrue():
                if not sign:
                    self.contradiction = True
            case And(cs):
                if not sign:
                    raise TypeError("clause literals must be negation-atomic")
                for c in cs:
                    self.assume(c)
            case Pred(p, args):
                reps = tuple(self.find(self.intern(a)) for a in args)
                if p == self.req.cid("Equality") and len(reps) == 2:
                    if sign:
                        self.union(reps[0], reps[1])
                    else:
                        self._add_neg_eq(reps[0], reps[1])
                else:
                    self._add_atom("pred", p, reps, sign)
            case SchemePred(p, args):
                reps = tuple(self.find(self.intern(a)) for a in args)
                self._add_atom("scheme", p, reps, sign)
            case PrivPred(_, _, exp):
                self.assume(exp if sign else mk_neg(exp))
            case Is(t, attr):
                rep = self.intern(t)
                aargs = tuple(self.find(self.intern(x)) for x in attr.args)
                self._add_attr(rep, attr.positive == sign, attr.attr_id, aargs)
            case Qual(t, ty):
                rep = self.intern(t)
                if sign:
                    self._assume_type_expr(rep, ty)
                else:
                    args = tuple(self.find(self.intern(a)) for a in ty.args)
                    lower = tuple(
                        (a.positive, a.attr_id, tuple(self.find(self.intern(x)) for x in a.args))
                        for a in sorted_attrs(ty.lower)
                    )
                    self.neg_quals.setdefault(self.find(rep), []).append(
                        (ty.mode, args, lower)
                    )
            case ForAll():
                if sign:
                    self.foralls.append(f)
            case FlexAnd(fx):
                self.flexes.append((sign, fx))
            case _:
                raise TypeError(f)

    def assume_const_type(self, index: int, ty: TypeExpr) -> None:
        self._assume_type_expr(self.intern(Var(VarKind.CONST, index)), ty)

    # -- rule passes -----------------------------------------------------------

    def _rehash(self) -> bool:
        changed = False
        new_map: dict = {}
        for n, (head, children) in enumerate(self.nodes):
            key = (head, tuple(self.find(c) for c in children))
            other = new_map.get(key)
            if other is None:
                new_map[key] = n
            elif self.find(other) != self.find(n):
                self.union(other, n)
                changed = True
        self.node_of_key = new_map
        return changed

    def _normalize(self) -> bool:
        changed = False
        new_atoms: dict = {}
        for (ns, pid, args), sign in self.atoms.items():
            key = (ns, pid, tuple(self.find(a) for a in args))
            if key in new_atoms:
                if new_atoms[key] != sign:
                    self.contradiction = True
                continue
            new_atoms[key] = sign
        if new_atoms != self.atoms:
            changed = True
        self.atoms = new_atoms
        for rep in list(self.attrs):
            if self.find(rep) != rep:
                continue  # merged away already folded by union
            amap = self.attrs[rep]
            new_amap: dict = {}
            for (aid, args), sign in amap.items():
                key = (aid, tuple(self.find(a) for a in args))
                if key in new_amap:
                    if new_amap[key] != sign:
                        self.contradiction = True
                    continue
                new_amap[key] = sign
            if new_amap != amap:
                changed = True
            self.attrs[rep] = new_amap
        for rep in list(self.types):
            tl = self.types[rep]
            seen: list = []
            for mode, args in tl:
                ct = (mode, tuple(self.find(a) for a in args))
                if ct not in seen:
                    seen.append(ct)
            if seen != tl:
                changed = True
            self.types[rep] = seen
        pairs = []
        for a, b in self.neg_eq:
            a, b = self.find(a), self.find(b)
            if a == b:
                self.contradiction = True
            pairs.append((min(a, b), max(a, b)))
        self.neg_eq = list(dict.fromkeys(pairs))
        return changed

    def _value_pass(self) -> bool:
        req = self.req
        changed = False
        for n, (head, children) in enumerate(self.nodes):
            rep = self.find(n)
            v: ComplexRational | None = None
            match head:
                case ("num", k):
                    if req.present("Natural"):
                        v = ComplexRational.from_int(k)
                case ("app", f) if f in req.arith:
                    cv = [self.value.get(self.find(c)) for c in children]
                    if all(x is not None for x in cv):
                        v = req.arith[f].value(*cv)
            if v is not None:
                changed |= self._set_value(rep, v)
        byval: dict[ComplexRational, int] = {}
        for rep in sorted(self.value):
            r = self.find(rep)
            v = self.value.get(r)
            if v is None:
                continue
            prev = byval.get(v)
            if prev is None:
                byval[v] = r
            elif self.find(prev) != r:
                changed |= self.union(prev, r)
        return changed

    def _poly_pass(self) -> bool:
        if "ARITHM" not in self.req.enabled:
            return False
        arith = self.req.arith
        memo: dict[int, Polynomial] = {}
        in_progress: set[int] = set()
        # A node's polynomial is kept until the pass merges classes or
        # sets a value, and only if no class it read was cut off as in
        # progress: such a class reads differently once it is finished.
        node_memo: dict[int, Polynomial | None] = {}
        cuts = 0

        def class_poly(rep: int) -> Polynomial:
            nonlocal cuts
            rep = self.find(rep)
            if rep in memo:
                return memo[rep]
            if rep in in_progress:
                cuts += 1
                return p_atom(rep)
            v = self.value.get(rep)
            if v is not None:
                memo[rep] = p_const(v)
                return memo[rep]
            in_progress.add(rep)
            best: Polynomial | None = None
            for n in sorted(self.class_nodes[rep]):
                p = node_poly(n)
                if p is not None and (best is None or p_sort_key(p) < p_sort_key(best)):
                    best = p
            in_progress.discard(rep)
            if best is None:
                best = p_atom(rep)
            memo[rep] = best
            return best

        def node_poly(n: int) -> Polynomial | None:
            if n in node_memo:
                return node_memo[n]
            head, children = self.nodes[n]
            if head[0] == "num":
                p = p_const(ComplexRational.from_int(head[1]))
            elif head[0] != "app" or head[1] not in arith:
                p = None
            else:
                before = cuts
                p = arith[head[1]].poly(*[class_poly(c) for c in children])
                if cuts != before:
                    return p
            node_memo[n] = p
            return p

        changed = False
        seen: dict[Polynomial, int] = {}
        for rep in self.classes():
            cands = {class_poly(rep)}
            for n in self.class_nodes[rep]:
                p = node_poly(n)
                if p is not None:
                    cands.add(p)
            v = self.value.get(rep)
            cands.add(p_const(v) if v is not None else p_atom(rep))
            ordered = sorted(cands, key=p_sort_key)
            grew = False
            for p in ordered:
                c = p_is_const(p)
                if c is not None:
                    grew |= self._set_value(rep, c)
                prev = seen.get(p)
                if prev is None:
                    seen[p] = rep
                elif self.find(prev) != self.find(rep):
                    grew |= self.union(prev, rep)
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    grew |= self._poly_gap(p_sub(ordered[i], ordered[j]))
            if grew:
                node_memo.clear()
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
                return self._set_value(self.find(cid), (-consts) / coeff)
        return False

    def _attr_value_pass(self) -> bool:
        req = self.req
        changed = False
        zero_a = req.cid("ZeroAttr")
        natural = req.cid("Natural")
        pos = req.cid("Positive")
        neg = req.cid("Negative")
        for rep in self.classes():
            v = self.value.get(rep)
            amap = self.attrs.get(rep, {})
            if v is None:
                if zero_a is not None and amap.get((zero_a, ())) is True:
                    changed |= self._set_value(rep, ZERO)
                continue
            facts: list[tuple[bool, int]] = []
            if zero_a is not None:
                facts.append((v.is_zero(), zero_a))
            if natural is not None:
                facts.append((v.is_natural(), natural))
            if pos is not None:
                facts.append((not v.lex_le(ZERO), pos))
            if neg is not None:
                facts.append((not ZERO.lex_le(v), neg))
            for s, aid in facts:
                changed |= self._add_attr(rep, s, aid, ())
        return changed

    def _supercluster_pass(self) -> bool:
        changed = False
        rules: list[tuple[list, list, TypeExpr | None]] = []
        for guard, target in self.req.builtin_conditional_clusters():
            rules.append((self._attr_entries(guard), self._attr_entries(target), None))
        for c in self.db.conditional:
            rules.append((self._attr_entries(c.guard), self._attr_entries(c.target), c.ty))
        for rep in self.classes():
            amap = self.attrs.get(rep, {})
            for guard, target, subject in rules:
                if not all(amap.get((aid, args)) == s for s, aid, args in guard):
                    continue
                if subject is not None and not self.class_satisfies(rep, subject):
                    continue
                for s, aid, args in target:
                    changed |= self._add_attr(rep, s, aid, args)
        return changed

    def _attr_entries(self, attrs: frozenset[Attr]) -> list[tuple[bool, int, tuple[int, ...]]]:
        return [
            (a.positive, a.attr_id, tuple(self.find(self.intern(x)) for x in a.args))
            for a in sorted_attrs(attrs)
        ]

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
        le = req.cid("LessOrEqual")
        if le is None:
            return False
        changed = False
        for (ns, pid, args), sign in list(self.atoms.items()):
            if ns != "pred" or pid != le or len(args) != 2:
                continue
            a, b = self.find(args[0]), self.find(args[1])
            va, vb = self.value.get(a), self.value.get(b)
            if sign:
                if va is not None and vb is not None and not va.lex_le(vb):
                    self.contradiction = True
                if a != b and self.atoms.get(("pred", le, (b, a))) is True:
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
        if not req.present("Empty"):
            return False
        changed = False
        empty = req.require("Empty")
        if self._empty_class is None:
            self._empty_class = self.intern(FunctorApp(req.require("EmptySet"), ()))
            changed = True
        e0 = self.find(self._empty_class)
        for rep in self.classes():
            if self.attrs.get(rep, {}).get((empty, ())) is True and rep != e0:
                changed |= self.union(rep, e0)
                e0 = self.find(self._empty_class)
        union_f = req.cid("Union")
        inter_f = req.cid("Intersection")
        diff_f = req.cid("Difference")
        sym_f = req.cid("SymDiff")
        for n, (head, children) in enumerate(self.nodes):
            if head[0] != "app" or len(children) != 2:
                continue
            f = head[1]
            a, b = self.find(children[0]), self.find(children[1])
            rep = self.find(n)
            if f == union_f:
                if a == e0:
                    changed |= self.union(rep, b)
                if b == e0:
                    changed |= self.union(rep, a)
                if a == b:
                    changed |= self.union(rep, a)
            elif f == inter_f:
                if a == e0 or b == e0:
                    changed |= self.union(rep, e0)
                if a == b:
                    changed |= self.union(rep, a)
            elif f == diff_f:
                if b == e0:
                    changed |= self.union(rep, a)
                if a == e0 or a == b:
                    changed |= self.union(rep, e0)
            elif f == sym_f:
                if b == e0:
                    changed |= self.union(rep, a)
                if a == e0:
                    changed |= self.union(rep, b)
                if a == b:
                    changed |= self.union(rep, e0)
            e0 = self.find(self._empty_class)
        meets = req.cid("Meets")
        member = req.cid("Membership")
        for (ns, pid, args), sign in list(self.atoms.items()):
            if ns != "pred":
                continue
            if pid == meets and len(args) == 2 and inter_f is not None:
                m = self.intern(
                    FunctorApp(inter_f, (Var(VarKind.EQCLASS, args[0]), Var(VarKind.EQCLASS, args[1])))
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
        if not req.present("Subset"):
            return False
        changed = False
        elem = req.require("Element")
        powerset = req.require("PowerSet")
        subset_p = req.require("Subset")
        member = req.cid("Membership")
        empty = req.cid("Empty")
        for (ns, pid, args), sign in list(self.atoms.items()):
            if ns != "pred" or len(args) != 2:
                continue
            if pid == member and sign:
                x, a = self.find(args[0]), self.find(args[1])
                changed |= self._add_type(x, (elem, (a,)))
                for mode, targs in list(self.types.get(a, [])):
                    if mode != elem or len(targs) != 1:
                        continue
                    for n in self.class_nodes.get(self.find(targs[0]), []):
                        head, children = self.nodes[n]
                        if head == ("app", powerset):
                            b = self.find(children[0])
                            changed |= self._add_type(x, (elem, (b,)))
                            if empty is not None:
                                changed |= self._add_attr(b, False, empty, ())
            elif pid == subset_p:
                a, b = self.find(args[0]), self.find(args[1])
                if sign:
                    if a != b and self.atoms.get(("pred", subset_p, (b, a))) is True:
                        changed |= self.union(a, b)
                elif a == b:
                    self.contradiction = True
        if member is not None:
            for rep in self.classes():
                for mode, targs in list(self.types.get(rep, [])):
                    if mode != elem or len(targs) != 1:
                        continue
                    a = self.find(targs[0])
                    if self.attrs.get(a, {}).get((empty, ())) is False:
                        changed |= self._add_atom("pred", member, (rep, a), True)
        return changed

    def class_satisfies(self, rep: int, ty: TypeExpr) -> bool:
        """Does everything we know about the class place it in ty?"""
        req = self.req
        amap = self.attrs.get(self.find(rep), {})
        for s, aid, args in self._attr_entries(ty.lower):
            if amap.get((aid, args)) != s:
                return False
        if ty.mode in (req.cid("Object"), req.cid("Set")):
            return True
        want_args = tuple(self.find(self.intern(a)) for a in ty.args)
        for mode, targs in self.types.get(self.find(rep), []):
            start = TypeExpr(
                frozenset(), frozenset(), mode, _class_args(targs)
            )
            for anc in self.db.ancestry(start):
                aargs = tuple(self.find(self.intern(x)) for x in anc.args)
                if anc.mode == ty.mode and aargs == want_args:
                    return True
        return False

    def _neg_qual_pass(self) -> bool:
        for rep in self.classes():
            amap = self.attrs.get(rep, {})
            for mode, args, lower in self.neg_quals.get(rep, []):
                ok_attrs = all(
                    amap.get((aid, tuple(self.find(x) for x in aargs))) == s
                    for s, aid, aargs in lower
                )
                if not ok_attrs:
                    continue
                bare = TypeExpr(frozenset(), frozenset(), mode, _class_args(args))
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
            changed = self._rehash()
            changed |= self._normalize()
            changed |= self._value_pass()
            changed |= self._poly_pass()
            changed |= self._attr_value_pass()
            changed |= self._supercluster_pass()
            changed |= self._functor_cluster_pass()
            changed |= self._order_pass()
            changed |= self._boole_pass()
            changed |= self._subset_pass()
            self._neg_qual_pass()
            if not changed:
                break

    # -- read access for the instantiation search ---------------------------

    def atom_sign(self, ns: str, pid: int, args: tuple[int, ...]) -> bool | None:
        return self.atoms.get((ns, pid, tuple(self.find(a) for a in args)))

    def attr_sign(self, rep: int, aid: int, args: tuple[int, ...]) -> bool | None:
        return self.attrs.get(self.find(rep), {}).get(
            (aid, tuple(self.find(a) for a in args))
        )

    def are_unequal(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        va, vb = self.value.get(a), self.value.get(b)
        if va is not None and vb is not None and va != vb:
            return True
        return (min(a, b), max(a, b)) in self.neg_eq


def _class_args(ids: tuple[int, ...]) -> tuple[Term, ...]:
    return tuple(Var(VarKind.EQCLASS, i) for i in ids)


def refute_clause(
    db: DefinitionDb,
    literals: list[Formula],
    const_types: dict[int, TypeExpr],
) -> EqGraph:
    """Assume every literal and saturate; the caller inspects the flags."""
    g = EqGraph(db)
    for idx in sorted(const_types):
        g.assume_const_type(idx, const_types[idx])
    for lit in literals:
        g.assume(lit)
    g.run()
    return g
