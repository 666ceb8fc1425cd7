"""Exact-width linear algebra kernel: 2-vectors and 2x2 matrices.

Frozen value types of named entries rather than 2-vector and 2x2 numpy
arrays: every quantity in this package is exactly two-dimensional, and
bit-reproducible simulation traces require full control over evaluation
order.  An entry is a float, or a float64 array holding one lane per trial
of a verify ensemble.  The operations are elementwise ``+ - * /``, which
numpy rounds lane by lane as Python rounds floats; ``lane_max`` and
``mat_inv``'s cutoff keep the per-lane meaning of ``max`` and of the scalar
check.

Only ``verify`` (the lane suites) imports numpy at module level, and only
this module imports it elsewhere, inside its lane branches.  The modules
``verify`` runs through tell lanes from floats with ``_is_lanes`` and take
a lane-wise ``math`` function from ``lane_map``, so ``simulate`` and
``free-response`` never load numpy.

``fold_worst`` is the one fold of errors into their worst case: it keeps
a NaN, so a check whose error is NaN fails, in ``verify`` and in
``free-response`` alike.

``check_fields`` is the one check of the parameter types' numeric rules
(finite, > 0, >= 0); each type's ``__post_init__`` names its fields' rules.

``frozen`` is the one class decorator of the package's value types, the
vector-like ones here and in ``frames`` and ``dynamics`` and the validated
parameter types.  It stands in for ``dataclasses.dataclass(frozen=True)``
to shorten every command's start: it makes a class in about a third of the
time, and imports neither ``dataclasses`` nor the ``inspect`` module that
``dataclasses`` imports.
"""

from __future__ import annotations

import math
import sys


class SingularMatrix(ValueError):
    """Raised when a matrix determinant falls below the invertibility cutoff."""


def _is_lanes(x) -> bool:
    """Whether x is a numpy array of lanes rather than a float.

    numpy is looked up in ``sys.modules`` at call time: if it was never
    imported, no array can exist, and this costs no numpy import.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def lane_map(f, x):
    """``f(x)`` for a float; for a float64 array, ``f`` of each lane.

    Takes a ``math`` function, so each lane gets the bits of its float
    evaluation: numpy's transcendentals need not round as libm does.  The
    lanes go to ``f`` as the floats a ``memoryview`` of ``x`` yields, which
    hold the same doubles as the array and cost less to make than
    ``x.tolist()``'s list or iterating the array, which boxes each lane as
    an ``np.float64``.
    """
    if _is_lanes(x):
        import numpy as np

        return np.fromiter(map(f, memoryview(x)), float, x.size)
    return f(x)


def check_fields(params, rule: str, *names: str) -> None:
    """Raise ValueError for the first of ``names`` whose value on ``params``
    breaks ``rule``: "finite", "> 0" or ">= 0", the last two also requiring
    a finite value.  The message starts with the field name
    (``"dx must be > 0"``), so a caller can put the field's path in front.
    """
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if rule == "> 0" and not value > 0.0 or rule == ">= 0" and not value >= 0.0:
            raise ValueError(f"{name} must be {rule}")


def lane_max(first, *rest):
    """``max(first, *rest)``, lane by lane for float64 arrays.

    A later value replaces the running one only where it is greater, as
    ``max`` does, so a NaN after the first value is dropped and a NaN first
    value is kept.  On floats this is ``max``; an array among the values
    folds as ``np.where(value > acc, value, acc)``.
    """
    acc = first
    for value in rest:
        greater = value > acc
        if _is_lanes(greater):
            import numpy as np

            acc = np.where(greater, value, acc)
        elif greater:
            acc = value
    return acc


def fold_worst(acc: float, *values: float, lowest: bool = False) -> float:
    """The largest of ``acc`` and ``values`` (the smallest with ``lowest``),
    except that a NaN among them is the result.

    ``max`` and ``min`` keep their first argument when a later one is NaN,
    so a NaN error folded with them would vanish and its check pass.
    """
    for v in values:
        if v != v or (v < acc if lowest else v > acc):
            acc = v
    return acc


def _frozen_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _replace(self, **changes):
    """A new instance with ``changes`` to its fields, built, and so checked,
    as any other: a cached value such as ``FrameParams.rotation`` is not
    carried over."""
    return self.__class__(
        **{**{name: getattr(self, name) for name in self._fields}, **changes})


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable value type of the fields it annotates.

    The fields are the names in the class body's own annotations, in order;
    a class attribute of the same name is that field's default.  The
    ``__init__`` (positional or keyword arguments; it calls the class's
    ``__post_init__``, if any, once the fields are set), ``==`` (same class
    only, field by field), ``hash`` (of the field tuple) and ``repr``
    (``Name(field=value, ...)``) are generated from one ``exec``ed source,
    as ``collections.namedtuple`` builds its ``__new__``, so they cost no
    more than the ``dataclasses`` ones.  Assigning or deleting an attribute raises
    ``AttributeError``.  ``_fields`` (also ``__match_args__``) names the
    fields, and ``_replace(**changes)`` gives a new, checked, instance, as
    on a ``NamedTuple``.  An instance keeps its ``__dict__``, so a
    ``functools.cached_property`` works on it.
    """
    own = vars(cls)
    names = tuple(own.get("__annotations__", {}))
    # a field with a default takes it from the namespace, as "end=_end"
    params = ", ".join(f"{name}=_{name}" if name in own else name
                       for name in names)
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = [f"def __init__(self, {params}):"]
    source += [f"    _setattr(self, {name!r}, {name})" for name in names]
    if "__post_init__" in own:
        source.append("    self.__post_init__()")
    source += [
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return self.__class__.__qualname__ + f'({shown})'",
    ]
    namespace = {f"_{name}": own[name] for name in names if name in own}
    namespace.update(__name__=cls.__module__, _setattr=object.__setattr__)
    exec("\n".join(source), namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls._replace = _replace
    cls._fields = cls.__match_args__ = names
    return cls


@frozen
class Vec2:
    """A 2-vector with components (a0, a1); units depend on context."""

    a0: float
    a1: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.a0 + other.a0, self.a1 + other.a1)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.a0 - other.a0, self.a1 - other.a1)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.a0, -self.a1)

    def scale(self, s: float) -> "Vec2":
        return Vec2(s * self.a0, s * self.a1)

    def max_abs(self) -> float:
        return max(abs(self.a0), abs(self.a1))

    def is_finite(self) -> bool:
        return math.isfinite(self.a0) and math.isfinite(self.a1)


@frozen
class Mat2:
    """A 2x2 matrix in row-major entry order (m00, m01, m10, m11)."""

    m00: float
    m01: float
    m10: float
    m11: float

    def max_abs(self) -> float:
        return lane_max(abs(self.m00), abs(self.m01), abs(self.m10), abs(self.m11))


def identity() -> Mat2:
    return Mat2(1.0, 0.0, 0.0, 1.0)


def diag(d0: float, d1: float) -> Mat2:
    return Mat2(d0, 0.0, 0.0, d1)


def transpose(m: Mat2) -> Mat2:
    return Mat2(m.m00, m.m10, m.m01, m.m11)


def det(m: Mat2) -> float:
    return m.m00 * m.m11 - m.m01 * m.m10


def mat_vec_mul(m: Mat2, v: Vec2) -> Vec2:
    """Matrix-vector product m @ v."""
    return Vec2(m.m00 * v.a0 + m.m01 * v.a1, m.m10 * v.a0 + m.m11 * v.a1)


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    """Matrix product a @ b."""
    return Mat2(
        a.m00 * b.m00 + a.m01 * b.m10,
        a.m00 * b.m01 + a.m01 * b.m11,
        a.m10 * b.m00 + a.m11 * b.m10,
        a.m10 * b.m01 + a.m11 * b.m11,
    )


def singularity_threshold(m: Mat2) -> float:
    """Scale-relative determinant cutoff below which inversion is refused.

    Relative to the squared max-entry norm so that well-conditioned matrices
    with large entries are not misclassified as singular.  The square is a
    product, which gives inf where it overflows, on floats as on lanes (a
    float ``**`` would raise ``OverflowError``), so every inversion of such
    a matrix is refused.
    """
    scale = m.max_abs()
    return 1e-12 * lane_max(1.0, scale * scale)


def mat_inv(m: Mat2) -> Mat2:
    """Inverse via adjugate over determinant.

    Raises SingularMatrix when |det| does not exceed the scale-relative
    cutoff, for lanes when any lane fails it (naming the first); callers
    must treat the corresponding transformation as non-invertible.
    """
    d = det(m)
    invertible = abs(d) > singularity_threshold(m)
    if _is_lanes(invertible):
        if not invertible.all():
            lane = int(invertible.argmin())
            raise SingularMatrix(
                f"matrix is singular within tolerance in lane {lane} "
                f"(|det|={abs(d[lane]):.3e})"
            )
    elif not invertible:
        raise SingularMatrix(
            f"matrix is singular within tolerance (|det|={abs(d):.3e})"
        )
    return Mat2(m.m11 / d, -m.m01 / d, -m.m10 / d, m.m00 / d)
