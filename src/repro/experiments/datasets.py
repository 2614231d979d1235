"""Dataset analogues of the paper's five real networks (Table III).

The paper's datasets are proprietary-scale crawls (64 K – 3.2 M nodes).
This container is offline, so each dataset is replaced by a deterministic
synthetic analogue at ~1/100–1/1000 node scale that preserves the
properties the algorithms are sensitive to (DESIGN.md §3):

* number of candidates ``r`` (2, 10, 4, 2, 2 as in Table III);
* average degree (DBLP dense ≈ 44.5, Yelp ≈ 9.1, Twitter sparse ≈ 1.3–1.9);
* in/out-degree power-law skew (retweet / friendship graphs);
* opinion construction (latent-topic cosine ≈ embedding/rating/sentiment);
* stubbornness recipe (1 − opinion variance for DBLP/Yelp; uniform [0,1]
  for Twitter, §VIII-A).

``load(name, scale=...)`` returns the ``OpinionGraph``; ``TARGETS`` maps
each dataset to its default target-candidate index (the paper's "Joseph
A. Konstan" / "Chinese" / "Democratic" / "For Mask" / "For Distancing").
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.generators import random_instance
from repro.graphs.graph import OpinionGraph


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    paper_nodes: int
    paper_edges: int
    r: int
    avg_deg: float
    stubbornness: str
    lite_nodes: int  # our default scaled size
    target: int  # default target-candidate index
    seed: int


SPECS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("dblp-lite", 63_910, 2_847_120, 2, 44.5, "variance", 640, 0, 11),
        DatasetSpec("yelp-lite", 966_240, 8_815_788, 10, 9.1, "variance", 966, 2, 12),
        DatasetSpec(
            "twitter-election-lite", 2_246_604, 4_270_918, 4, 1.9, "uniform", 2247, 0, 13
        ),
        DatasetSpec(
            "twitter-sd-lite", 3_244_762, 4_202_083, 2, 1.3, "uniform", 3245, 0, 14
        ),
        DatasetSpec(
            "twitter-mask-lite", 2_341_769, 3_241_153, 2, 1.4, "uniform", 2342, 0, 15
        ),
    ]
}

TARGETS = {name: spec.target for name, spec in SPECS.items()}


def load(name: str, *, nodes: int | None = None) -> OpinionGraph:
    """Build a dataset analogue (deterministic in the registry seed).

    ``nodes`` overrides the default lite size (used by scalability
    experiments and by tests, which run at a fraction of the lite size).
    """
    spec = SPECS[name]
    n = nodes or spec.lite_nodes
    return random_instance(
        n,
        r=spec.r,
        avg_deg=spec.avg_deg,
        seed=spec.seed,
        stubbornness=spec.stubbornness,
    )


def table3_rows() -> list[dict]:
    """Table III: paper characteristics next to the lite analogues'."""
    rows = []
    for name, spec in SPECS.items():
        g = load(name)
        rows.append(
            {
                "dataset": name,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "paper_candidates": spec.r,
                "lite_nodes": g.n,
                "lite_edges": int((g.src != g.dst).sum()),
                "lite_candidates": g.r,
            }
        )
    return rows
