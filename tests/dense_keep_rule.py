"""The binary searches' keep rule, written out by a point-by-point scan.

:func:`approxcount.stepfunc.apx_set_nonincreasing` and
:func:`approxcount.stepfunc.apx_set_nondecreasing` decide each probe by a
threshold computed once per search. This scan decides every point by the
rule itself, in product form: with k = num/den, a point y fails the kept
point x when num*f(y) < den*f(x). It imports no compressor, so a wrong
threshold cannot be shared by both sides of a comparison.
"""


def dense_keep(table, lo, nondecreasing, num, den):
    """(xs, values) that the search of the direction keeps on the dense
    ``table``, read as f(lo + i) = table[i].

    Nonincreasing: from the kept x, keep the first y > x that fails x, with
    f(y); if none fails up to the end, keep the end with f(x) and stop.
    Nondecreasing: from the kept x, down from the high end, keep the least
    y that does not fail x, with f(y); when that is x itself, keep x - 1.
    """
    hi = lo + len(table) - 1

    def f(x):
        return table[x - lo]

    def fails(y, x):
        return num * f(y) < den * f(x)

    if nondecreasing:
        x = hi
        xs, values = [x], [f(x)]
        while x > lo:
            y = next(y for y in range(lo, x + 1) if not fails(y, x))
            x = x - 1 if y == x else y
            xs.append(x)
            values.append(f(x))
        return xs[::-1], values[::-1]
    x = lo
    xs, values = [x], [f(x)]
    while x < hi:
        y = next((y for y in range(x + 1, hi + 1) if fails(y, x)), None)
        if y is None:
            xs.append(hi)
            values.append(f(x))
            break
        x = y
        xs.append(x)
        values.append(f(x))
    return xs, values
