"""The nerve of the oriental O(4) at dim 6, built under a larger level cap.

Level 6 has 517,517 simplices, but the first step of the walk that builds
it draws 1,738,749 pairs (y_0, y_1), past ``tdelta.MAX_LEVEL`` = 2^20, so
the default cap refuses it (``tests/test_nerves.py``).  Under a cap of 2^21
it builds in about 5 s of CPU and 330 MB (2 vCPUs, Python 3.11), so tier-1
leaves it out; run it with

    PYTHONPATH=src python3 -m pytest -q stretch
"""

from complicial import tdelta, twocat
from complicial.nerves import duskin_nerve, nerve_with_info


def test_oriental4_nerve_at_dim6(monkeypatch):
    monkeypatch.setattr(tdelta, "MAX_LEVEL", 1 << 21)
    X, info = nerve_with_info(twocat.oriental2(4), 6)
    assert [len(X.simplex_ids(m)) for m in range(7)] == \
        [5, 31, 205, 1411, 9947, 71303, 517517]
    assert [len(info.by_faces[m]) for m in (3, 4, 5, 6)] == \
        [1411, 9947, 71303, 517517]
    # the levels below 6 are those of the dim-5 nerve
    Y = duskin_nerve(twocat.oriental2(4), 5)
    assert X._ids[:6] == Y._ids and X._face[:6] == Y._face
    assert X._deg[:5] == Y._deg[:5]
