"""Compiled lift plans and library shapes, pinned by digest.

``plan_digests.json`` holds, for every extension of
``anodyne_library(2, 5)`` and ``anodyne_library(2, 6)``, the SHA-256 of
every field of its compiled ``_Plan`` and of the index rows of its two
shapes.  The library is checked twice in one process: as built, and again
after a replay and a fibrancy check have read its shapes and the nerves
they touch, so a write into rows that the shapes share shows up.
"""

import hashlib
import json
import pathlib

from complicial import factorization, lifting, nerves, twocat

PLAN_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "plan_digests.json").read_text())


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def fk_faces(ext, plan):
    """For a horn, the chains of the faces of its missing face: a field
    that plans carried when the lift test chased them, kept in the digest
    so that the pinned digests stay as they were."""
    m, k = plan.m, plan.k
    if plan.kind != "horn" or m < 2:
        return None
    A, B = ext.A, ext.B
    fk = B._face[m][k][B._idx[m][B.nondegenerate_ids(m)[0]]]
    return [plan.chains[(m - 2, A._idx[m - 2][B._ids[m - 2][
        B._face[m - 1][i][fk]]])] for i in range(m)]


def plan_digest(ext, plan):
    """SHA-256 of every field of a plan; ``chains`` in insertion order."""
    return _sha([plan.kind, plan.m, plan.k, plan.slots,
                 [[list(key), [pos, list(drops)]]
                  for key, (pos, drops) in plan.chains.items()],
                 plan.domain_marks, plan.lift_marks, fk_faces(ext, plan)])


def rows_digest(X):
    """SHA-256 of the name and the index rows of a tDelta-set."""
    return _sha([X.name, X.dim, X._ids, X._face, X._deg, X._tok_ids,
                 X._tok_under, X._zeta])


def pinned_plans():
    out = {}
    for N in (5, 6):
        for ext in lifting.anodyne_library(2, N):
            key = f"{N}/{ext.label()}"
            out[f"{key}/plan"] = plan_digest(ext, lifting._compile_plan(ext))
            out[f"{key}/rows"] = _sha([rows_digest(ext.A),
                                       rows_digest(ext.B)])
    return out


def test_plans_are_pinned():
    assert len(PLAN_DIGESTS) == 2 * (44 + 60)
    assert pinned_plans() == PLAN_DIGESTS
    C = twocat.standard_examples()["sigma-iso"]
    factorization.verify_factorization(C, 4)
    X = nerves.natural_nerve(C, 5)
    assert lifting.is_precomplicial(X, 2, 5).passed
    assert pinned_plans() == PLAN_DIGESTS
