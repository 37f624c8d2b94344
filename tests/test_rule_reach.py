"""How far CE1/CE2 reach inside the M-equivalence classes.

Over every ternary necklace of length 2-10, one `rewrite_closure` is taken
from each necklace that no earlier closure reached.  Each closure must be
complete and lie inside one `partition_by_matrix` class: the rules' side
conditions and the rotation-sum partition are computed independently.
The counts pin how much of each class the rules connect.
"""

import pytest

from circparikh import Alphabet, enumerate_necklaces, partition_by_matrix, rewrite_closure

ABC = Alphabet("abc")

# n: (matrix classes, closures, classes with more than one necklace, those
# of them that are one closure).
REACH = {
    2: (6, 6, 0, 0),
    3: (11, 11, 0, 0),
    4: (21, 24, 3, 0),
    5: (44, 44, 7, 7),
    6: (100, 116, 17, 5),
    7: (246, 259, 43, 30),
    8: (617, 695, 123, 57),
    9: (1527, 1809, 374, 144),
    10: (3706, 4830, 1220, 365),
}


@pytest.mark.parametrize("n", sorted(REACH))
def test_closures_lie_inside_matrix_classes(n):
    report = partition_by_matrix(ABC, n)
    class_of = {w: key for key, members in report.classes.items() for w in members}
    closure_of = {}
    for cw in enumerate_necklaces(ABC, n):
        if cw.canonical in closure_of:
            continue
        graph = rewrite_closure(cw)
        assert graph.complete, cw
        nodes = [node.canonical for node in graph.nodes]
        # The moves are symmetric, so closures are disjoint.
        assert not closure_of.keys() & set(nodes), cw
        assert len({class_of[w] for w in nodes}) == 1, cw
        closure_of.update(dict.fromkeys(nodes, cw.canonical))
    shared = [members for members in report.classes.values() if len(members) > 1]
    whole = sum(len({closure_of[w] for w in members}) == 1 for members in shared)
    closures = len(set(closure_of.values()))
    assert (report.class_count, closures, len(shared), whole) == REACH[n]
