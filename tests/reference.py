"""Plain-Python references shared by several test modules."""


def truncated_estimate_np(path: list[int], op: float, seeds: set[int]) -> float:
    """Post-Generation Truncation (§V-B, Thm 9) of one walk: the first seed
    on its path makes the estimate 1, otherwise it keeps ``op``."""
    for v in path:
        if v in seeds:
            return 1.0
    return op
