"""Records: classes whose instances are a fixed list of named fields.

``@record`` builds a class again with ``type()``, once.  Its fields are
those of the record it extends, then its own annotations; its own are
its ``__slots__``, and all of them, in order, are ``__match_args__`` and
the parameters of ``__init__``, with the class body's values as
defaults.  What the class does not define it gets: ``__init__``, a
``repr`` ``Name(field=value, ...)``, and ``==`` and ``hash`` over the
fields, as ``dataclasses`` made them (a record that may change sets
``__hash__ = None``).  ``__init__`` is the template for its number of
fields, its names set through ``code.replace``: the straight-line
stores a generated one has, and nothing compiled at import.
"""


# one ``__init__`` per number of fields, its names ``a``, ``b``, ... replaced
def _init0(self): pass
def _init1(self, a): self.a = a
def _init2(self, a, b): self.a = a; self.b = b
def _init3(self, a, b, c): self.a = a; self.b = b; self.c = c
def _init4(self, a, b, c, d): self.a = a; self.b = b; self.c = c; self.d = d
def _init5(self, a, b, c, d, e): self.a = a; self.b = b; self.c = c; self.d = d; self.e = e
def _init6(self, a, b, c, d, e, f): self.a = a; self.b = b; self.c = c; self.d = d; self.e = e; self.f = f
def _init7(self, a, b, c, d, e, f, g): self.a = a; self.b = b; self.c = c; self.d = d; self.e = e; self.f = f; self.g = g


_TEMPLATES = (_init0, _init1, _init2, _init3, _init4, _init5, _init6, _init7)
_function = type(_init0)


def _values(self) -> tuple:
    return tuple(map(self.__getattribute__, self.__match_args__))


def _repr(self) -> str:
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def record(cls):
    """`cls` rebuilt as a record (see the module docstring)."""
    ns = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    own = tuple(ns.get("__annotations__", ()))
    defaults = tuple(ns.pop(f) for f in own if f in ns)
    assert all(f in vars(cls) for f in own[len(own) - len(defaults) :]), "a field without a default follows one"
    names = (*getattr(cls, "__match_args__", ()), *own)
    ns.update(__slots__=own, __match_args__=names, __qualname__=cls.__qualname__)
    if "__init__" not in ns:
        template = _TEMPLATES[len(names)].__code__
        code = template.replace(co_names=names, co_varnames=("self", *names))
        ns["__init__"] = init = _function(code, globals(), "__init__", defaults or None)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
    if cls.__repr__ is object.__repr__:
        ns["__repr__"] = _repr
    if cls.__eq__ is object.__eq__:
        ns.update(__eq__=_eq, __hash__=ns.get("__hash__", _hash))
    return type(cls.__name__, cls.__bases__, ns)


def is_record(cls: type) -> bool:
    """Whether `cls` was made by ``record`` and prints its fields."""
    return "__match_args__" in vars(cls) and cls.__repr__ is _repr
