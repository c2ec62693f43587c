"""Independent brute-force reference implementations for the tests.

Everything here is deliberately plain Python (no numpy, no imports from the
package under test): direct nested-loop sweeps and literal formula
evaluation, kept simple enough to audit by eye.
"""
import math


def brute_same_state(a, b, delta):
    """Inclusive hyper-rectangle membership, one comparison per variable.

    A nan difference (a nan point, or inf - inf) lies within no delta.
    """
    assert len(a) == len(b) == len(delta)
    for x, y, d in zip(a, b, delta):
        if not abs(x - y) <= d:
            return False
    return True


def brute_bin(points, delta):
    """Greedy center sweep, written as the naive nested loop.

    The center always joins its own state, even when it is a nan point.
    """
    remaining = list(range(len(points)))
    states = []
    while remaining:
        center = remaining[0]
        members = [center]
        for i in remaining[1:]:
            if brute_same_state(points[center], points[i], delta):
                members.append(i)
        states.append(tuple(members))
        remaining = [i for i in remaining if i not in members]
    return tuple(states)


def brute_fi_from_counts(counts, window_length):
    """Literal index formula: zero-padded amplitudes, squared differences."""
    q = [0.0]
    for c in counts:
        q.append(math.sqrt(c / window_length))
    q.append(0.0)
    total = 0.0
    for i in range(len(q) - 1):
        total += (q[i] - q[i + 1]) ** 2
    return 4.0 * total


def brute_fi(points, delta):
    """Bin a window and score it, all by brute force."""
    states = brute_bin(points, delta)
    return brute_fi_from_counts([len(s) for s in states], len(points))


def brute_sample_sd(values):
    """Sample standard deviation with an explicit divisor N-1 sum."""
    n = len(values)
    mean = sum(values) / n
    acc = 0.0
    for v in values:
        acc += (v - mean) ** 2
    return math.sqrt(acc / (n - 1))


def brute_ols_slope(values):
    """Least-squares slope against positions 0..n-1, by the sum formulas."""
    n = len(values)
    xs = list(range(n))
    sx = sum(xs)
    sy = sum(values)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, values))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
