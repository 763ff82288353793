"""The real thread pool: ``ThreadedBackend.map`` and the threaded preset."""

import numpy as np
import pytest

from repro.parallel import ThreadedBackend


class TestThreadedMap:
    """``ThreadedBackend.map`` runs pure bodies concurrently, in order."""

    def test_results_in_order(self):
        chunks = [np.arange(i, i + 3) for i in range(10)]
        with ThreadedBackend(4) as be:
            out = be.map(lambda c: int(c.sum()), chunks)
        assert out == [int(c.sum()) for c in chunks]

    def test_single_chunk_no_pool(self):
        be = ThreadedBackend(4)
        assert be.map(lambda c: c * 2, [21]) == [42]
        assert be._pool is None  # one chunk runs on the calling thread

    def test_single_worker(self):
        be = ThreadedBackend(1)
        assert be.map(lambda c: c + 1, [1, 2, 3]) == [2, 3, 4]
        assert be._pool is None

    def test_empty(self):
        with ThreadedBackend(2) as be:
            assert be.map(lambda c: c, []) == []

    def test_exception_propagates(self):
        settled = []

        def bad(c):
            if c == 3:
                raise RuntimeError("boom")
            settled.append(c)
            return c

        with ThreadedBackend(2) as be:
            with pytest.raises(RuntimeError, match="boom"):
                be.map(bad, list(range(8)))
        # every other chunk ran to completion before the error surfaced
        assert sorted(settled) == [0, 1, 2, 4, 5, 6, 7]

    def test_validation(self, paper_h):
        from repro.linegraph import to_two_graph

        with pytest.raises(ValueError, match="workers must be positive"):
            to_two_graph(paper_h, 1, backend="threaded", workers=0)


class TestThreadedConstruction:
    def test_matches_serial_constructions(self):
        from repro.linegraph import slinegraph_matrix, slinegraph_threaded
        from repro.structures.biadjacency import BiAdjacency

        from ..conftest import random_biedgelist

        for seed in range(3):
            h = BiAdjacency.from_biedgelist(random_biedgelist(seed=seed))
            for s in (1, 2, 3):
                assert slinegraph_threaded(h, s, num_workers=4) == (
                    slinegraph_matrix(h, s)
                )

    def test_adjoin_input(self, paper_el, paper_h):
        from repro.linegraph import slinegraph_matrix, slinegraph_threaded
        from repro.structures.adjoin import AdjoinGraph

        g = AdjoinGraph.from_biedgelist(paper_el)
        assert slinegraph_threaded(g, 2) == slinegraph_matrix(paper_h, 2)

    def test_empty_eligible(self, paper_h):
        from repro.linegraph import slinegraph_threaded

        el = slinegraph_threaded(paper_h, 100)
        assert el.num_edges() == 0

    def test_invalid_s(self, paper_h):
        from repro.linegraph import slinegraph_threaded

        with pytest.raises(ValueError, match="s must be"):
            slinegraph_threaded(paper_h, 0)

    def test_auto_dispatch(self, paper_el, paper_h):
        from repro.linegraph import slinegraph_matrix, to_two_graph
        from repro.structures.adjoin import AdjoinGraph

        ref = slinegraph_matrix(paper_h, 2)
        assert to_two_graph(paper_h, 2, "auto") == ref
        assert to_two_graph(
            AdjoinGraph.from_biedgelist(paper_el), 2, "auto"
        ) == ref
        assert to_two_graph(paper_h, 2, "threaded") == ref
