"""Table IV: ACM-election case study analogue (paper §VIII-B)."""
import argparse

from repro.experiments.tables import table4


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=640)
    ap.add_argument("--k", type=int, default=50)
    ap.add_argument("--t", type=int, default=20)
    args = ap.parse_args()
    df, res = table4(n=args.n, k=args.k, t=args.t)
    print(f"Table IV — case study (n={res['n']}, k={args.k}, t={args.t})")
    print(df.to_string(index=False))
    print(
        f"overall: {res['overall_without']} → {res['overall_with']} of {res['n']} "
        f"({100*res['overall_without']/res['n']:.1f}% → {100*res['overall_with']/res['n']:.1f}%)"
    )
    print("top-10 seed domains:", res["top10_domains"])


if __name__ == "__main__":
    main()
