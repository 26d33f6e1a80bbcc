"""Immutable value records: the base of every node and result record.

A record's fields are its class's annotations, in order, with defaults as
class attributes.  The class keyword ``compare`` names the fields that
equality and hashing use, over the exact type (default: every field);
``compare=None`` keeps identity.  A changed record is built through its
constructor, which validates it again.
"""

from operator import attrgetter


class Frozen:
    def __init_subclass__(cls, compare=()):
        cls._fields = names = tuple(cls.__annotations__)
        scope = {"_d": {n: cls.__dict__[n] for n in names if n in cls.__dict__},
                 "_set": object.__setattr__}
        # generated, as a generic (*args, **kwargs) one takes 0.4 us more a call;
        # object.__setattr__ keeps values inline (reads via __dict__ are 4x slower)
        params = "".join(f", {n}=_d[{n!r}]" if n in scope["_d"] else f", {n}" for n in names)
        body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
        hook = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self{params}):\n pass{body}{hook}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        if compare is None:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        else:  # attrgetter: a C-level key, 5x faster than a Python loop over the fields
            cls._key = attrgetter(*compare or names) if names else staticmethod(lambda _: ())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._key(self)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
