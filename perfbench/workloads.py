"""The benchmark's workloads: a partition of the campaign registry.

Each workload is a list of registered targets run as one campaign at the
default trial counts and ``grid_size = 1024``.  Together the three cover
every target exactly once, so their sum is the ``configs/full.cfg``
campaign; ``test_workloads.py`` fails when that stops being true.
"""

GRID_SIZE = 1024

WORKLOADS = {
    # Wave-packet analysis and synthesis: many short FFTs, packet caches.
    "packets": (
        "size-energy",
        "vv-paraproduct",
        "shifted-growth",
        "bht-local-l2",
        "trilinear-size-energy",
        "localized-trilinear",
        "local-l1",
        "localized-operator",
        "vv-localized",
        "bht-localized",
        "depth2-vv",
    ),
    # Littlewood-Paley projections and multipliers on 1d and 2d grids plus
    # BHT quadrature: few, large, batched FFTs and no packets.
    "spectral": (
        "telescope-1d",
        "telescope-2d",
        "alpha-coefficients",
        "bht-multiplier",
        "leibniz-mixed",
        "tensor-mixed-norm",
    ),
    # Exact rationals and combinatorics: weak-norm dualization, the stopping
    # sweep and the exhaustive exponent-range grid; almost no FFT.
    "exact": (
        "weak-dualization",
        "stopping-invariants",
        "range-consistency",
    ),
}
