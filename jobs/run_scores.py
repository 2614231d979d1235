"""Accuracy/efficiency comparison (Figures 6–8 rendered as tables)."""
import argparse

from repro.experiments.datasets import TARGETS, load
from repro.experiments.tables import scores_comparison, trailing_candidate


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="dblp-lite")
    ap.add_argument("--nodes", type=int, default=None)
    ap.add_argument("--t", type=int, default=20)
    ap.add_argument("--ks", type=int, nargs="+", default=[5, 10, 20])
    ap.add_argument(
        "--scores", nargs="+", default=["cumulative", "plurality", "copeland"]
    )
    ap.add_argument(
        "--theta", type=int, default=None,
        help="RS sketch budget (default max(1024, n/2)); Thm 13 needs "
        "θ ≈ λ·n at lite scale, so accuracy studies should raise this",
    )
    ap.add_argument(
        "--target",
        default="paper",
        help="'paper' (registry default), 'worst' (trailing candidate at the "
        "horizon — useful when the default target already dominates), or an index",
    )
    args = ap.parse_args()
    g = load(args.dataset, nodes=args.nodes)
    if args.target == "paper":
        target = TARGETS[args.dataset]
    elif args.target == "worst":
        target = trailing_candidate(g, args.t, args.scores[0])
    else:
        target = int(args.target)
    df = scores_comparison(g, target, args.t, args.ks, args.scores, theta=args.theta)
    print(f"Score comparison — {args.dataset}, t={args.t}, target=c{target}")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
