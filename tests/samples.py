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


def fan(n, k):
    """Objects x, z and y1..yn; 1-cells a_i: x -> y_i and b_i: y_i -> z
    whose composites b_i.a_i are all one f: x -> z, and g_1..g_k: x -> z
    with one 2-cell c_j: g_j => f each.  Nothing else composes, so every
    whiskering of a c_j is by an identity, and every vertical composite has
    an identity factor."""
    ys = [f"y{i}" for i in range(1, n + 1)]
    one = [OneCell(f"e{o}", o, o, True) for o in ["x", "z", *ys]]
    one += [OneCell(f"a{y[1:]}", "x", y) for y in ys]
    one += [OneCell(f"b{y[1:]}", y, "z") for y in ys]
    one += [OneCell(g, "x", "z") for g in ["f"] + [f"g{j}" for j in range(k)]]
    comp = {(f"b{y[1:]}", f"a{y[1:]}"): "f" for y in ys}
    for c in one:
        comp[(c.id, f"e{c.src}")] = comp[(f"e{c.tgt}", c.id)] = c.id
    two = [TwoCell(f"i_{c.id}", c.id, c.id, True) for c in one]
    two += [TwoCell(f"c{j}", f"g{j}", "f") for j in range(k)]
    vcomp = {(f"i_{c.id}", f"i_{c.id}"): f"i_{c.id}" for c in one}
    wl = {(g, f"i_{f}"): f"i_{r}" for (g, f), r in comp.items()}
    wr = {(f"i_{g}", f): f"i_{r}" for (g, f), r in comp.items()}
    for j in range(k):
        vcomp[(f"c{j}", f"i_g{j}")] = vcomp[("i_f", f"c{j}")] = f"c{j}"
        wl[("ez", f"c{j}")] = wr[(f"c{j}", "ex")] = f"c{j}"
    return FiniteTwoCategory(["x", "z", *ys], one, comp, two, vcomp, wl, wr,
                             name=f"fan({n},{k})")
