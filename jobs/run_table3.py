"""Table III: dataset characteristics — paper vs lite analogues."""
from repro.experiments.tables import table3


def main() -> None:
    print("Table III — datasets (paper vs synthetic lite analogues)")
    print(table3().to_string(index=False))


if __name__ == "__main__":
    main()
