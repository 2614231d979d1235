"""Table VI: minimum #seeds for the target to win (DM / RW / RS)."""
import argparse

from repro.experiments.datasets import TARGETS, load
from repro.experiments.tables import table6, trailing_candidate


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="dblp-lite")
    ap.add_argument("--nodes", type=int, default=None)
    ap.add_argument("--t", type=int, default=20)
    ap.add_argument("--score", default="plurality")
    ap.add_argument("--k-max", type=int, default=200)
    ap.add_argument(
        "--target",
        default="worst",
        help="candidate index, or 'worst' (default) for the trailing one — "
        "Table VI's premise is a target that is losing without seeds",
    )
    args = ap.parse_args()
    g = load(args.dataset, nodes=args.nodes)
    if args.target == "worst":
        target = trailing_candidate(g, args.t, args.score)
    elif args.target == "paper":
        target = TARGETS[args.dataset]
    else:
        target = int(args.target)
    df = table6(g, target, args.t, args.score, k_max=args.k_max)
    print(
        f"Table VI — min seeds to win ({args.dataset}, {args.score}, "
        f"t={args.t}, target=c{target})"
    )
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
