"""Categories and 2-categories that the tests build beyond the catalog.

Each is built in full, every unit-law entry listed, so that it does not
lean on the catalog builders of ``complicial.twocat`` that the tests pin.
"""

from complicial.twocat import (FiniteCategory, FiniteTwoCategory, OneCell,
                               TwoCell)


def cyclic_group(n):
    """Z/n as a category on one object."""
    arrows = tuple(OneCell(f"g{a}", "*", "*", a == 0) for a in range(n))
    comp = {(f"g{b}", f"g{a}"): f"g{(a + b) % n}"
            for a in range(n) for b in range(n)}
    return FiniteCategory(("*",), arrows, tuple(sorted(comp.items())))


def codiscrete(n):
    """The groupoid on n objects with exactly one arrow between any two."""
    arrows = tuple(OneCell(f"a{i}{j}", str(i), str(j), i == j)
                   for i in range(n) for j in range(n))
    comp = {(f"a{j}{k}", f"a{i}{j}"): f"a{i}{k}"
            for i in range(n) for j in range(n) for k in range(n)}
    return FiniteCategory(tuple(str(i) for i in range(n)), arrows,
                          tuple(sorted(comp.items())))


def strict_two_group():
    """A strict 2-group on one object ``*``: 1-cells ``e`` (the identity)
    and ``m`` with ``m.m = e``; on each 1-cell ``c`` the identity 2-cell
    ``i_c`` and ``s_c`` with ``s_c . s_c = i_c``.  Whiskering keeps the
    letter and composes the 1-cells: ``c * s_d = s_{c.d}`` and
    ``s_d * c = s_{d.c}``.

    ``m`` is an equivalence that is no identity, with two adjoint
    completions (unit and counit both ``i_e`` or both ``s_e``), and the
    parallel 2-cells under ``m.m`` reach the iterated-whiskering and
    whisker-order checks of ``validate``.
    """
    mul = {("e", "e"): "e", ("e", "m"): "m", ("m", "e"): "m",
           ("m", "m"): "e"}
    one = [OneCell("e", "*", "*", True), OneCell("m", "*", "*")]
    two = [TwoCell(f"{k}_{c}", c, c, k == "i") for c in "em" for k in "is"]
    vcomp = {(f"{k}_{c}", f"{l}_{c}"): f"{'i' if k == l else 's'}_{c}"
             for c in "em" for k in "is" for l in "is"}
    wl = {(c, f"{k}_{d}"): f"{k}_{mul[(c, d)]}"
          for c in "em" for d in "em" for k in "is"}
    wr = {(f"{k}_{d}", c): f"{k}_{mul[(d, c)]}"
          for c in "em" for d in "em" for k in "is"}
    return FiniteTwoCategory(("*",), one, mul, two, vcomp, wl, wr,
                             name="2-group")
