"""One day of node selection under all thirteen query strategies.

Builds a single selection context (graph, embeddings, model probabilities,
query history) and shows which nodes each strategy would query.
"""

import numpy as np

from galstream import (
    STRATEGY_NAMES,
    SelectionContext,
    SyntheticConfig,
    TrainConfig,
    build_normalized_adjacency,
    forward,
    generate_synthetic,
    make_split,
    modularity_partition,
    select,
    train,
)

dataset = generate_synthetic(SyntheticConfig(node_count=30, days=12), seed=4)
split = make_split(dataset, holdout_fraction=0.2, seed=0)
adj = build_normalized_adjacency(dataset.graph)

# warm up a model on the first four days of pool data
examples = [(f.features, f.labels, list(split.pool)) for f in dataset.days[:4]]
params = train(0, adj, examples, TrainConfig(epochs=150))

today = dataset.days[5]
out = forward(params, adj, today.features)
part = modularity_partition(dataset.graph)

# pretend nodes 3 and 11 were queried on earlier days
history = {split.pool[3]: (3, 4), split.pool[11]: (4,)}

ctx = SelectionContext(
    graph=dataset.graph,
    adj=adj,
    features=today.features,
    embeddings=out.hidden,
    probabilities=out.probabilities,
    pool=split.pool,
    history=history,
    k=4,
    rng_seed=7,
)

print(f"pool: {len(split.pool)} nodes, querying k={ctx.k}, history: {sorted(history)}")
print(f"graph communities: {part.community_count}\n")
print(f"{'strategy':32s} chosen nodes")
for name in STRATEGY_NAMES:
    chosen = select(name, ctx).chosen
    annotated = [f"{v}(c{part.community_of[v]})" for v in chosen]
    print(f"{name:32s} {', '.join(annotated) if annotated else '(none - baseline keeps its model)'}")
