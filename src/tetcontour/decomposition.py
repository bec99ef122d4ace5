"""Branch decomposition of the contour tree by swept measure.

Every supernode picks its heaviest upward and heaviest downward superarc;
pairing those choices at interior supernodes chains superarcs into
monotone branches, each built in one pass. A branch that lost the pairing
at neither end spans from a minimum leaf to a maximum leaf, and the
heaviest such is the master; every other branch attaches to its parent at
the saddle where its terminal arc lost the pairing, at its top if both did.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contourtree import ContourTree
from .hypersweep import ArcWeights


@dataclass
class Branch:
    """A monotone path of superarcs in the contour tree.

    superarcs run from the branch's lower end upward; weight is the swept
    measure of the region the branch represents (for the master branch the
    whole mesh, otherwise the measure hanging off its attachment saddle);
    rank orders branches by descending weight, master first.
    """

    superarcs: list
    lower_supernode: int
    upper_supernode: int
    weight: float
    rank: int = -1
    parent: int = -1
    attachment_supernode: int = -1


def _heaviest(ends, weights, k, tie):
    """Per supernode s < k, as a list, the arc a with ends[a] == s picked as
    heaviest: the largest id among those whose weight is within tie of the
    heaviest weight there, or -1 where no arc ends at s."""
    heaviest = np.full(k, -np.inf)
    np.maximum.at(heaviest, ends, weights)
    within = np.flatnonzero(weights >= heaviest[ends] - tie)
    best = np.full(k, -1, dtype=np.int64)
    np.maximum.at(best, ends[within], within)
    return best.tolist()


def decompose(tree: ContourTree, weights: ArcWeights) -> list:
    """Branches of the contour tree, heaviest-measure pairing.

    weights.down_weight[a] measures what a drags below its top supernode,
    weights.up_weight[a] what it holds above its bottom one. Weights
    within weights.tie of the heaviest are tied, and ties break toward the
    larger superarc id, that is the larger (lower, upper) supernode pair;
    branch ranks tie the same way, over runs of weights each within
    weights.tie of the next. So the decomposition is deterministic, and
    rounding does not break a tie of exact weights.

    A branch attaches, with the up_weight of its bottom arc, at its lower
    end when only that end lost the pairing, else at its upper end with
    the down_weight of its top arc. One that lost at neither end is a
    master candidate, keyed by the larger of the two; one always exists.
    """
    k = tree.supernode_count
    if tree.superarc_count == 0:
        raise ValueError("cannot decompose a tree with no superarcs")
    tie = weights.tie
    lows, highs = tree.superarcs.T.tolist()
    down, up = weights.down_weight.tolist(), weights.up_weight.tolist()
    best_up = _heaviest(tree.superarcs[:, 0], weights.up_weight, k, tie)
    best_down = _heaviest(tree.superarcs[:, 1], weights.down_weight, k, tie)

    # an arc starts a branch unless its bottom supernode pairs it with a
    # downward choice; the branch climbs while its top supernode pairs the
    # last arc with an upward choice.
    #
    # A candidate always exists. Let P be the supernodes with both up and
    # down arcs: each pairs two arcs into one branch, so there are
    # B = (k - 1) - P branches, and the k - P branch ends that lost no
    # pairing are one per extremum (best_up and best_down pick one arc per
    # supernode, ties or not). With x0, x1, x2 branches losing at 0, 1, 2
    # ends, 2 x0 + x1 = k - P and x0 + x1 + x2 = B, so x0 = 1 + x2 >= 1.
    branches, candidates = [], []
    for a, lo in enumerate(lows):
        if best_up[lo] == a and best_down[lo] >= 0:
            continue
        arcs = [a]
        hi = highs[a]
        while best_down[hi] == arcs[-1] and best_up[hi] >= 0:
            arcs.append(best_up[hi])
            hi = highs[arcs[-1]]
        top_kept = best_down[hi] == arcs[-1]
        if top_kept and best_up[lo] != arcs[0]:
            attachment, weight = lo, float(up[arcs[0]])
        else:
            attachment, weight = hi, float(down[arcs[-1]])
            if top_kept:
                candidates.append(
                    (len(branches), max(weight, float(up[arcs[0]]))))
        branches.append(Branch(superarcs=arcs, lower_supernode=lo,
                               upper_supernode=hi, weight=weight,
                               attachment_supernode=attachment))

    heaviest = max(key for _, key in candidates)
    master = max((i for i, key in candidates if key >= heaviest - tie),
                 key=lambda i: max(branches[i].superarcs))
    branches[master].weight = weights.total
    branches[master].attachment_supernode = -1

    # by descending weight, then descending last arc; a run of weights
    # each within tie of the next ranks by descending last arc alone
    rest = np.array([i for i in range(len(branches)) if i != master],
                    dtype=np.int64)
    weight = np.array([branches[i].weight for i in rest])
    last = np.array([max(branches[i].superarcs) for i in rest],
                    dtype=np.int64)
    rest, weight, last = (x[np.lexsort((-last, -weight))]
                          for x in (rest, weight, last))
    run = np.cumsum(-np.diff(weight, prepend=weight[:1]) > tie)
    order = [master] + rest[np.lexsort((-last, run))].tolist()
    ranked = [branches[i] for i in order]
    for rank, b in enumerate(ranked):
        b.rank = rank

    # parent: the branch owning the arc chosen at the attachment saddle
    owner = {a: b.rank for b in ranked for a in b.superarcs}
    for b in ranked:
        s = b.attachment_supernode
        if s >= 0:
            pair = (best_up[s], best_down[s])
            first, other = pair if s == b.upper_supernode else pair[::-1]
            b.parent = owner[first if first >= 0 else other]
    return ranked

