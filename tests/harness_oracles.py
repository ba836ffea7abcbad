"""Set-based reference for the harness's per-day evaluation slices.

This is the node-at-a-time version of ``build_eval_slices``: it filters the
unqueried pool nodes through a set of the chosen ones and drops
missing-label nodes one at a time. The library filters both with index
arrays; the tests require the same slices, label for label and
probability for probability, in the same node order. Slow on purpose.
"""

from galstream.gcn import MISSING_LABEL
from galstream.metrics import EvalSlice


def oracle_build_eval_slices(split, chosen, labels_now, labels_next, probs_now, probs_next):
    chosen_set = set(chosen)
    unqueried = tuple(v for v in split.pool if v not in chosen_set)
    plan = [
        ("test_set_same_day", split.holdout, labels_now, probs_now),
        ("unqueried_same_day", unqueried, labels_now, probs_now),
        ("unqueried_next_day", unqueried, labels_next, probs_next),
    ]
    if chosen:
        plan.append(("train_next_day", chosen, labels_next, probs_next))
    slices = {}
    for category, nodes, labels, probs in plan:
        keep = [v for v in nodes if labels[v] != MISSING_LABEL]
        if not keep:
            slices[category] = None
            continue
        slices[category] = EvalSlice(labels[keep], probs[keep])
    return slices
