"""Group invariants that only the tests compare: element orders and
their histogram, read from an `IsomGroup`'s own `mul` and `identity`."""

from char2conf.errors import ContractViolationError


def element_order(group, m):
    ident = group.identity()
    k = 1
    acc = m
    while acc != ident:
        acc = group.mul(acc, m)
        k += 1
        if k > group.order + 1:
            raise ContractViolationError("element order exceeds group order")
    return k


def fingerprint(group):
    """(order, sorted histogram of element orders): a cheap group invariant."""
    hist = {}
    for m in group.elements:
        o = element_order(group, m)
        hist[o] = hist.get(o, 0) + 1
    return (group.order, tuple(sorted(hist.items())))
