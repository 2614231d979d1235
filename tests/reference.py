"""Plain-Python references shared by several test modules."""


def truncated_estimate_np(path: list[int], op: float, seeds: set[int]) -> float:
    """Post-Generation Truncation (§V-B, Thm 9) of one walk: the first seed
    on its path makes the estimate 1, otherwise it keeps ``op``."""
    for v in path:
        if v in seeds:
            return 1.0
    return op


def walk_frame(walks, b0_target):
    """A ``(walk_id, path)`` walks DataFrame as pandas in ``walk_id`` order,
    with each walk's ``start`` (``path[0]``) and ``op`` (the target's
    initial opinion ``b0_target`` of ``path[-1]``) derived from its path."""
    pdf = walks.toPandas().sort_values("walk_id")
    pdf["start"] = pdf["path"].map(lambda p: p[0])
    pdf["op"] = b0_target[pdf["path"].map(lambda p: p[-1]).to_numpy()]
    return pdf
