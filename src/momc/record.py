"""The shared base of momc's record classes (AST nodes, IR and loop ops,
types, modules and reports), and the compile stages' collector pause.

A record spells out its `__slots__` and an `__init__` of plain assignments,
so it has no `__dict__`, and no method is generated and `exec`ed when its
module loads, as `dataclasses` would do for each class at every start.
`Record` gives equality and `repr` from `__slots__`: two records are equal
when they are of one class and their slots are equal, except the slots a
class names in `_uncompared` (a source location, say). A record is mutable
and unhashable unless its class says otherwise.
"""

from __future__ import annotations

import functools
import gc


class Record:
    __slots__ = ()
    # Slots that equality skips.
    _uncompared: tuple[str, ...] = ()

    def _compared(self) -> tuple:
        skip = self._uncompared
        return tuple(getattr(self, s) for s in self.__slots__ if s not in skip)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__) + ")")


def pauses_collector(stage):
    """`stage` with the cyclic collector off for each call: no stage makes a
    reference cycle (the no-cyclic-garbage tests hold them to it), so a
    collection inside one frees nothing. A collector on at entry is on again
    on return or raise, after one generation-0 collection if the call left
    more young objects than its threshold; one off at entry stays off. The
    pause is process-wide: a thread that turns it off may find it on again."""
    @functools.wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:  # collect before enabling, so no automatic gen-1/2 run fires
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)
            gc.enable()
    return paused
