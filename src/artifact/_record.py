"""Frozen value records without ``dataclasses`` (whose import and exec-built methods cost
each process about 30 ms).  ``@record`` adds what a class does not define: ``__init__`` by
position or keyword with class-level defaults, then ``__post_init__``; ``__eq__`` and
``__hash__`` over the fields, within one class; the dataclass ``repr``; ``__match_args__``;
and a ``__setattr__`` and ``__delattr__`` that raise.  Instances keep a ``__dict__``."""

from operator import attrgetter

set_field = object.__setattr__  # past a record's frozen __setattr__, for hand-written __init__s


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Make ``cls`` a frozen value record over its annotated fields (see above)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = set(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)  # a tuple, as a dataclass hashes

    def __init__(self, *args, **kwargs):
        values = {**defaults, **kwargs, **dict(zip(names, args))}
        if len(args) > len(names) or values.keys() != fields or not kwargs.keys().isdisjoint(names[: len(args)]):
            raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(names)} once, unless it has a default")
        for n in names:  # in order, one at a time: the instance keeps the type's compact layout
            set_field(self, n, values[n])
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, attr, *value):  # also the __delattr__, which gets no value
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {attr!r}")

    for method in (__init__, __eq__, __hash__, __repr__):
        if cls.__dict__.get(method.__name__) is None:  # a class __eq__ sets __hash__ = None
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__setattr__ = cls.__delattr__ = __setattr__
    cls.__match_args__ = names
    return cls
