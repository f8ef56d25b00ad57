"""Frozen value classes, built without generated code.

frozen(cls) turns a class body of annotated fields into an immutable
value class: the annotation names, in order, are its fields (only the
names are read, so string annotations work), and a field's class-level
value is its default.  The class gets

  * __init__(*fields), taking positional or keyword arguments and
    raising TypeError for a missing, repeated or unknown one, then
    calling __post_init__ when the class has one;
  * __eq__, true only between instances of the same class whose
    compared fields are equal (NotImplemented for any other class);
  * __hash__, the hash of the tuple of compared fields;
  * __repr__, Name(field=value, ...);
  * __setattr__ and __delattr__ that raise AttributeError, so
    __post_init__ sets a normalised field with object.__setattr__;
  * __match_args__, the field names.

A method the class body defines itself is kept (IntPoly's __init__,
Character's cached __hash__).  uncompared names fields that stay out of
equality and hashing but are still set, defaulted and shown.

The methods are shared closures over the field names, not source text
compiled per class, which is what makes these classes cheap to import.
"""

from operator import attrgetter

# sets a field past the class's own __setattr__; unlike writing to
# self.__dict__, it does not give each instance a dict of its own
_store = object.__setattr__


def frozen(cls=None, *, uncompared=()):
    """Class decorator; use as @frozen or @frozen(uncompared=(...))."""
    if cls is None:
        return lambda c: _build(c, frozenset(uncompared))
    return _build(cls, frozenset(uncompared))


def _build(cls, uncompared):
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    key = _tuple_getter(tuple(n for n in names if n not in uncompared))
    has_post_init = hasattr(cls, "__post_init__")
    count = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(type(self).__name__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _store(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({body})"

    methods = {
        "__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
        "__repr__": __repr__, "__setattr__": _setattr,
        "__delattr__": _delattr, "__match_args__": names,
    }
    for name, value in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)
    return cls


def _tuple_getter(names):
    """self -> the tuple of those attributes (attrgetter of one is bare)."""
    if len(names) == 1:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    if not names:
        return lambda self: ()
    return attrgetter(*names)


def _bind(cls_name, names, defaults, args, kwargs):
    """Field values, in order, of a call that is not all positional."""
    if len(args) > len(names):
        raise TypeError(f"{cls_name}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(
                f"{cls_name}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(
                f"{cls_name}() got multiple values for argument {name!r}")
        given[name] = value
    missing = [n for n in names if n not in given and n not in defaults]
    if missing:
        raise TypeError(f"{cls_name}() missing required arguments: "
                        + ", ".join(map(repr, missing)))
    return [given[n] if n in given else defaults[n] for n in names]


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
