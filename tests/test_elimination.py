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

from trimdecomp.cli import decompose_document
from trimdecomp.ilp import SolveStatus, _CompSolver


def searched_block(comp: _CompSolver):
    """The priced block a search was given, its spacing edges read back
    from the cuts' neighbour masks."""
    adj = comp.cut_adj
    spacing = tuple((ka, kb) for ka in range(len(adj)) for kb in range(ka + 1, len(adj)) if adj[ka] >> kb & 1)
    return comp.m, comp.pairs, comp.cuts, spacing


def test_elimination_returns_the_searchs_answer_on_every_searched_block(monkeypatch):
    answers = []
    run = _CompSolver.run

    def spy(self):
        run(self)
        answers.append((searched_block(self), self.best, self.best_colors, self.best_sel))

    monkeypatch.setattr(_CompSolver, "run", spy)
    for _, doc, metric in runs("elimination blocks"):
        assert decompose_document(doc, metric=metric).stats.status is SolveStatus.OPTIMAL
    for block, best, colors, selected in answers:
        assert eliminate(block) == (best, colors, selected), block
    # the corpus reaches blocks whose cuts exclude each other, blocks that
    # select cuts and blocks left with a positive cost
    assert len(answers) > 500
    assert sum(bool(block[3]) for block, *_ in answers) > 300
    assert sum(bool(selected) for *_, selected in answers) > 300
    assert sum(best > 0 for _, best, _, _ in answers) > 50


def test_elimination_in_the_searchs_place_proves_crowded_chains(monkeypatch):
    def run(self):
        self.best, self.best_colors, self.best_sel = eliminate(searched_block(self))

    monkeypatch.setattr(_CompSolver, "run", run)
    for label, doc, _ in runs("elimination chains"):
        # solve's own recount and spacing checks run on every answer
        stats = decompose_document(doc, time_limit=1.0).stats
        assert (stats.status, stats.cost) == (SolveStatus.OPTIMAL, 0), label
