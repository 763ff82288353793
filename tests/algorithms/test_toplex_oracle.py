"""Toplexes against a brute-force ``frozenset`` oracle (hypothesis).

The oracle shares no code with the library's counting machinery: it
compares Python sets pairwise, with the dominance rule written out —
``e`` loses to any proper superset, and to an equal duplicate with a
lower ID.  Every implementation (vectorized, Algorithm 3, runtime
chunked, adjoin input) must agree with it on shapes that stress the
containment test's shortcuts: duplicates, nested chains, empty
hyperedges, degree-1 members and hubs every candidate shares.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.toplex import toplexes, toplexes_algorithm3
from repro.parallel.runtime import ParallelRuntime
from repro.structures.adjoin import AdjoinGraph
from repro.structures.biadjacency import BiAdjacency

from ..conftest import make_biedgelist

NUM_NODES = 10


def oracle(members: list[list[int]]) -> list[int]:
    sets = [frozenset(m) for m in members]
    return [
        i for i, e in enumerate(sets)
        if not any(
            e < f or (e == f and j < i)
            for j, f in enumerate(sets) if j != i
        )
    ]


def check(members: list[list[int]]) -> None:
    el = make_biedgelist(members, num_nodes=NUM_NODES + len(members))
    h = BiAdjacency.from_biedgelist(el)
    want = oracle(members)
    assert toplexes(h).tolist() == want
    assert toplexes_algorithm3(h).tolist() == want
    assert toplexes(AdjoinGraph.from_biedgelist(el)).tolist() == want
    for threads in (1, 3):
        rt = ParallelRuntime(num_threads=threads, grain=2)
        assert toplexes(h, runtime=rt).tolist() == want


node_sets = st.lists(
    st.integers(0, NUM_NODES - 1), max_size=6, unique=True
)


@st.composite
def with_duplicates_and_chains(draw):
    """Random sets, plus copies and nested prefixes of some of them."""
    members = draw(st.lists(node_sets, min_size=1, max_size=8))
    for m in list(members):
        if draw(st.booleans()):
            members.append(list(m))
        if draw(st.booleans()):
            members.extend(m[:k] for k in range(len(m)))
    order = draw(st.permutations(range(len(members))))
    return [members[i] for i in order]


@st.composite
def with_private_members(draw):
    """Some hyperedges get a member no other hyperedge has (degree 1)."""
    members = draw(with_duplicates_and_chains())
    out = []
    for k, m in enumerate(members):
        if draw(st.booleans()):
            m = [*m, NUM_NODES + k]
        out.append(m)
    return out


@st.composite
def around_a_shared_core(draw):
    """Every hyperedge holds the same core, so the rarest member of the
    core's copies is shared by every candidate superset."""
    core = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                         unique=True))
    extras = draw(st.lists(
        st.lists(st.integers(3, NUM_NODES - 1), max_size=3, unique=True),
        min_size=1, max_size=8,
    ))
    members = [core + x for x in extras]
    members += [list(core)] * draw(st.integers(1, 3))
    order = draw(st.permutations(range(len(members))))
    return [members[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(st.lists(node_sets, max_size=10))
def test_random_hypergraphs(members):
    check(members)


@settings(max_examples=150, deadline=None)
@given(with_duplicates_and_chains())
def test_duplicates_and_nested_chains(members):
    check(members)


@settings(max_examples=100, deadline=None)
@given(with_private_members())
def test_degree_one_members(members):
    check(members)


@settings(max_examples=100, deadline=None)
@given(around_a_shared_core())
def test_rarest_member_shared_by_every_candidate(members):
    check(members)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6))
def test_all_empty(n):
    check([[] for _ in range(n)])


def test_no_hyperedges():
    check([])
