"""Bucket elimination as an oracle of the block search.

helpers.eliminate solves a priced block by a route the package never
takes: tables in a min-fill order, the tie-break folded into one integer
objective, and nothing recursing. On every block that a fixed corpus
searches it must return the search's cost, masks and selected cuts; in
the search's place it must prove the crowded chains that the search
cannot.
"""

from corpora import runs
from helpers import eliminate
from test_ilp import watch_searches

from trimdecomp import ilp
from trimdecomp.cli import decompose_document
from trimdecomp.ilp import BlockAnswer, SolveStatus


def test_elimination_returns_the_searchs_answer_on_every_searched_block(monkeypatch):
    searches = watch_searches(monkeypatch)
    for _, doc, metric in runs("elimination blocks"):
        assert decompose_document(doc, metric=metric).stats.status is SolveStatus.OPTIMAL
    for block, answer in searches:
        assert eliminate(block) == (answer.cost, answer.colors, answer.selected), block
    # the corpus reaches blocks whose cuts exclude each other, blocks that
    # select cuts and blocks left with a positive cost
    assert len(searches) > 500
    assert sum(bool(block[3]) for block, _ in searches) > 300
    assert sum(bool(answer.selected) for _, answer in searches) > 300
    assert sum(answer.cost > 0 for _, answer in searches) > 50


def test_elimination_in_the_searchs_place_proves_crowded_chains(monkeypatch):
    monkeypatch.setattr(ilp, "_search", lambda block, deadline: BlockAnswer(*eliminate(block), 0, False))
    for label, doc, _ in runs("elimination chains"):
        # solve's own recount and spacing checks run on every answer
        stats = decompose_document(doc, time_limit=1.0).stats
        assert (stats.status, stats.cost) == (SolveStatus.OPTIMAL, 0), label
