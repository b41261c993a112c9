"""Independent reference implementations used only as test oracles.

``performance_pseudocode`` and ``cost_pseudocode`` restate the two selection
procedures line by line as pseudocode-level Python, staying deliberately
naive (membership tests via ``in``, popcount via bin().count) so they share
no structure with the production code they check.
``minimal_cover_size`` brute-forces the smallest client subset whose masks
cover everything coverable; it is exponential and only run on small instances.
``validate_partition`` checks a generated partition against its kind's
bounds, rebuilding each mask and each category's presence label by label.
"""

from itertools import combinations

from catfed.partitions import kind_bounds


def _sorted_decreasing_set_bits(masks_bits: list[int]) -> list[int]:
    # "Sort eta_1 ... eta_M in decreasing order of number of set bits."
    # Stable sort, so equal popcounts keep their original client order.
    return sorted(range(len(masks_bits)), key=lambda j: -bin(masks_bits[j]).count("1"))


def performance_pseudocode(
    masks_bits: list[int], num_categories: int, n_limit: int
) -> list[int]:
    order = _sorted_decreasing_set_bits(masks_bits)
    S: list[int] = []
    K = 0
    for i in range(num_categories):  # for i <- 1 to C
        if K == n_limit:
            break
        for j in order:  # for j <- 1 to M, in sorted order
            # "eta_ji = 1 AND eta_j not already in S"
            if masks_bits[j] >> i & 1 and j not in S:
                S = S + [j]
                K = K + 1
                break
    return S


def cost_pseudocode(masks_bits: list[int], num_categories: int, n_limit: int) -> list[int]:
    order = _sorted_decreasing_set_bits(masks_bits)
    S: list[int] = []
    K = 0
    psi = 0
    for j in order:  # for j <- 1 to M, in sorted order
        if K == n_limit or psi == 2**num_categories - 1:
            break
        if psi & masks_bits[j] < masks_bits[j]:  # "Psi AND eta_j < eta_j"
            S = S + [j]
            K = K + 1
            psi = psi | masks_bits[j]
    return S


def minimal_cover_size(masks_bits: list[int], num_categories: int) -> int:
    """Size of the smallest subset whose union equals the union of all masks."""
    target = 0
    for bits in masks_bits:
        target |= bits
    if target == 0:
        return 0
    for size in range(1, len(masks_bits) + 1):
        for combo in combinations(range(len(masks_bits)), size):
            union = 0
            for j in combo:
                union |= masks_bits[j]
            if union == target:
                return size
    raise AssertionError("the full set always covers its own union")


def validate_partition(partition, labels) -> list[str]:
    """Check the structural constraints of the partition's kind; [] means valid."""
    spec = partition.spec
    num_categories = partition.num_categories
    problems: list[str] = []
    count_bounds, presence_bounds = kind_bounds(
        spec.kind, num_categories, spec.num_clients, spec.samples_per_client
    )

    presence = [0] * num_categories
    for j, (assigned, mask) in enumerate(zip(partition.assignments, partition.masks)):
        if len(assigned) != spec.samples_per_client:
            problems.append(
                f"client {j}: {len(assigned)} samples != {spec.samples_per_client}"
            )
        bits = 0
        for row in assigned:
            bits |= 1 << int(labels[row])
        if bits != mask.bits:
            problems.append(f"client {j}: stored mask disagrees with assigned labels")
        for c in range(num_categories):
            presence[c] += mask.bits >> c & 1
        k = bin(mask.bits).count("1")
        if not count_bounds[0] <= k <= count_bounds[1]:
            problems.append(
                f"client {j}: {k} categories outside [{count_bounds[0]}, {count_bounds[1]}]"
            )

    if spec.kind in ("D1", "D2", "D3", "D4", "D5"):
        lo, hi = presence_bounds
        # Too few category slots relax the presence floor to what they support.
        lo = min(lo, sum(presence) // num_categories)
        for c, held in enumerate(presence):
            if not lo <= held <= hi:
                problems.append(f"category {c}: presence {held} outside [{lo}, {hi}]")
        if spec.kind == "D1" and any(a < b for a, b in zip(presence, presence[1:])):
            problems.append("D1 presence profile is not non-increasing")
    return problems
