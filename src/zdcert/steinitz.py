"""Isomorphism classes of finite-rank projective modules over a quadratic order.

Over a Dedekind domain a finite-rank projective module is a direct sum of
fractional ideals, and its isomorphism class is exactly the pair
(rank, product of the ideal classes).  The tensor functor into abelian
varieties with endomorphism ring O is kept symbolic: it acts on these
class pairs and is injective on them, which is all the zero-divisor
argument consumes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import MismatchError
from .orders import IdealClass, QuadOrder, trivial_class
from .quadratic import _Value


class ModuleClass(_Value):
    __slots__ = ("rank", "steinitz")

    def __init__(self, rank: int, steinitz: IdealClass):
        if rank < 0:
            raise ValueError("module rank cannot be negative")
        if rank == 0 and not steinitz.is_trivial:
            raise ValueError("the zero module has trivial Steinitz class")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "steinitz", steinitz)

    @property
    def order(self) -> QuadOrder:
        return self.steinitz.order

    def __str__(self) -> str:
        return f"(rank {self.rank}, {self.steinitz})"


def zero_module(order: QuadOrder) -> ModuleClass:
    return ModuleClass(0, trivial_class(order))


def free_module(order: QuadOrder, rank: int) -> ModuleClass:
    return ModuleClass(rank, trivial_class(order))


def class_of_ideal_sum(classes: Sequence[IdealClass]) -> ModuleClass:
    """Class of I_1 + ... + I_n: (n, product of the classes)."""
    if not classes:
        raise ValueError("need at least one ideal class (the order is otherwise unknown)")
    order = classes[0].order
    product = trivial_class(order)
    for c in classes:
        if c.order != order:
            raise MismatchError("ideal classes live over different orders")
        product = product * c
    return ModuleClass(len(classes), product)


def direct_sum(m1: ModuleClass, m2: ModuleClass) -> ModuleClass:
    if m1.order != m2.order:
        raise MismatchError("module classes live over different orders")
    if m1.rank == 0:
        return m2
    if m2.rank == 0:
        return m1
    return ModuleClass(m1.rank + m2.rank, m1.steinitz * m2.steinitz)


class AVClass(_Value):
    """Iso class of an abelian variety M (x)_O A over a fixed base variety A.

    The functor M -> M (x)_O A is fully faithful, so equality of AVClass
    values is equality of base tag and module class.
    """

    __slots__ = ("base_tag", "module")

    def __init__(self, base_tag: str, module: ModuleClass):
        object.__setattr__(self, "base_tag", base_tag)
        object.__setattr__(self, "module", module)

    def __str__(self) -> str:
        return f"{self.module} (x) {self.base_tag}"


def tensor_av(module: ModuleClass, base_tag: str) -> AVClass:
    return AVClass(base_tag, module)
