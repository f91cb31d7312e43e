"""The shapes of the dim-6 anodyne library against the string reference.

``tests/test_shapes.py`` compares every shape of ``anodyne_library(2, 5)``
with the string-keyed reference builder.  This compares the shapes of
``anodyne_library(2, 6)`` that the dim-5 library lacks, whose reference
takes most of the time, so tier-1 leaves them out; run them with

    PYTHONPATH=src python3 -m pytest -q stretch
"""

from complicial import lifting
from test_shapes import assert_library_matches_reference


def test_dim6_library_shapes_match_reference():
    checked = {(X.name, X.dim) for e in lifting.anodyne_library(2, 5)
               for X in (e.A, e.B)}
    assert_library_matches_reference(6, checked)
