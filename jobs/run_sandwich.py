"""Sandwich-approximation ratio study (paper §IV-D / Fig. 2, as a table)."""
import argparse

from repro.core.sandwich import sandwich_select
from repro.experiments.datasets import TARGETS, load


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="twitter-sd-lite")
    ap.add_argument("--nodes", type=int, default=400)
    ap.add_argument("--t", type=int, default=5)
    ap.add_argument("--score", default="plurality")
    ap.add_argument("--ks", type=int, nargs="+", default=[5, 10, 20, 30, 40])
    args = ap.parse_args()
    g = load(args.dataset, nodes=args.nodes)
    target = TARGETS[args.dataset]
    print(f"Sandwich ratios — {args.dataset} (n={g.n}), {args.score}, t={args.t}")
    for k in args.ks:
        res = sandwich_select(None, g, target, args.t, k, args.score)
        print(
            f"k={k:4d}  ratio F(S_U)/UB(S_U)={res.ratio:.3f}  "
            f"F(S_F)={res.f_sf:.1f}  F(S_U)={res.f_su:.1f}  "
            f"F(S_L)={res.f_sl if res.f_sl is not None else float('nan'):.1f}  "
            f"winner={res.source}"
        )


if __name__ == "__main__":
    main()
