"""Branch decomposition of the contour tree by swept measure.

Every supernode picks its heaviest upward and heaviest downward superarc;
pairing those choices at interior supernodes chains superarcs into
monotone branches. The branch spanning from a minimum leaf to a maximum
leaf is the master; every other branch attaches to its parent at the
saddle where its terminal arc lost the pairing.
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


def decompose(tree: ContourTree, weights: ArcWeights) -> list:
    """Branches of the contour tree, heaviest-measure pairing.

    weights.down_weight[a] measures what a drags below its top supernode,
    weights.up_weight[a] what it holds above its bottom one. Weights
    within weights.tie of the heaviest are tied, and ties break toward the
    larger superarc id; branch ranks tie the same way, over runs of
    weights each within weights.tie of the next. So the decomposition is
    deterministic, and rounding does not break a tie of exact weights.
    """
    k = tree.supernode_count
    n_arcs = tree.superarc_count
    if n_arcs == 0:
        raise ValueError("cannot decompose a tree with no superarcs")
    up_arcs, down_arcs = tree.up_arcs, tree.down_arcs
    tie = weights.tie

    def best(arcs, w):
        heaviest = max(w[a] for a in arcs)
        return max(a for a in arcs if w[a] >= heaviest - tie)

    best_up = np.full(k, -1, dtype=np.int64)
    best_down = np.full(k, -1, dtype=np.int64)
    for s in range(k):
        if up_arcs[s]:
            best_up[s] = best(up_arcs[s], weights.up_weight)
        if down_arcs[s]:
            best_down[s] = best(down_arcs[s], weights.down_weight)

    # an arc starts a branch unless its bottom supernode pairs it with a
    # downward choice; the branch climbs while its top supernode pairs the
    # last arc with an upward choice
    branches = []
    for a in range(n_arcs):
        lo = tree.superarcs[a, 0]
        if best_up[lo] == a and best_down[lo] >= 0:
            continue
        arcs = [a]
        hi = tree.superarcs[a, 1]
        while best_down[hi] == arcs[-1] and best_up[hi] >= 0:
            arcs.append(int(best_up[hi]))
            hi = tree.superarcs[arcs[-1], 1]
        branches.append(Branch(superarcs=arcs, lower_supernode=int(lo),
                               upper_supernode=int(hi), weight=0.0))

    # provisional attachment and pruned-side weight for every branch: the
    # branch attaches at the end where its terminal arc lost the pairing
    # (at the top when it lost at both ends)
    for b in branches:
        bottom_arc = b.superarcs[0]
        top_arc = b.superarcs[-1]
        low_rejected = best_up[b.lower_supernode] != bottom_arc
        high_rejected = best_down[b.upper_supernode] != top_arc
        if not low_rejected and not high_rejected:
            # survived the pairing end to end: master candidate, weigh by
            # the larger of its two one-sided measures
            b.attachment_supernode = -1
            b.weight = float(max(weights.down_weight[top_arc],
                                 weights.up_weight[bottom_arc]))
        elif high_rejected:
            b.attachment_supernode = b.upper_supernode
            b.weight = float(weights.down_weight[top_arc])
        else:
            b.attachment_supernode = b.lower_supernode
            b.weight = float(weights.up_weight[bottom_arc])

    candidates = [i for i, b in enumerate(branches)
                  if b.attachment_supernode < 0]
    pool = candidates if candidates else range(len(branches))
    heaviest = max(branches[i].weight for i in pool)
    master = max((i for i in pool if branches[i].weight >= heaviest - tie),
                 key=lambda i: max(branches[i].superarcs))
    branches[master].weight = weights.total
    branches[master].attachment_supernode = -1
    # a non-master survivor still hangs somewhere: off its top saddle
    for i, b in enumerate(branches):
        if i != master and b.attachment_supernode < 0:
            b.attachment_supernode = b.upper_supernode
            b.weight = float(weights.down_weight[b.superarcs[-1]])

    def last_arc(i):
        return -max(branches[i].superarcs)

    rest = sorted((i for i in range(len(branches)) if i != master),
                  key=lambda i: (-branches[i].weight, last_arc(i)))
    order, run = [master], []
    for i in rest:
        if run and branches[run[-1]].weight - branches[i].weight > tie:
            order += sorted(run, key=last_arc)
            run = []
        run.append(i)
    order += sorted(run, key=last_arc)
    ranked = []
    for rank, i in enumerate(order):
        branches[i].rank = rank
        ranked.append(branches[i])

    # parent: the branch owning the arc chosen at the attachment saddle
    owner = np.empty(n_arcs, dtype=np.int64)
    for b in ranked:
        for a in b.superarcs:
            owner[a] = b.rank
    for b in ranked:
        if b.attachment_supernode < 0:
            continue
        s = b.attachment_supernode
        if s == b.upper_supernode:
            parent_arc = best_up[s] if best_up[s] >= 0 else best_down[s]
        else:
            parent_arc = best_down[s] if best_down[s] >= 0 else best_up[s]
        b.parent = int(owner[parent_arc])
    return ranked

