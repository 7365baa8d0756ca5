"""The workloads must partition the campaign registry exactly.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from collections import Counter

from wavetile.bench import REGISTRY

from workloads import WORKLOADS


def test_workloads_partition_registry():
    listed = Counter(name for targets in WORKLOADS.values() for name in targets)
    repeated = sorted(name for name, count in listed.items() if count > 1)
    assert not repeated, f"targets in more than one workload: {repeated}"
    assert set(listed) == set(REGISTRY), (
        f"missing from every workload: {sorted(set(REGISTRY) - set(listed))}; "
        f"not registered: {sorted(set(listed) - set(REGISTRY))}"
    )
