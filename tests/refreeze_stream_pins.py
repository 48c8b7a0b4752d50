"""Print the stream pins of tests/test_simulate.py as the current engine draws them.

Run it after a stated change of the random stream, before any other edit,
and paste what it prints over the old values:

    PYTHONPATH=src:tests python tests/refreeze_stream_pins.py

The `TestChunkResults` digests are drawn at threads 1 and 2, and the script
stops unless both agree.  The frozen moment field raises every order by `**`
(p = 2 is z*z either way), as the field was first frozen, and not by the
products `TestFrozenMomentField` bounds, so that its ulp bounds keep their
meaning.  Not a test module: pytest collects only ``test_*.py``.
"""
import hashlib

import numpy as np
import pytest

import uclt.simulate
from test_simulate import (ALL_KINDS, TestChunkResults, TestFrozenMomentField,
                           TestOsekowskiJackknife, digest)
from uclt.simulate import (_partial_sums, martingale_difference_check, osekowski_check,
                           simulate_eta, weighted_tail_domination_check)


def power_sums(z, p_grid, pairs=None):
    """|z|**p by `**` for every order, summed over axis 0 in row order."""
    a = np.abs(z if pairs is None else z[..., pairs[0]] - z[..., pairs[1]])
    return np.stack([(a ** p).sum(axis=0) for p in p_grid])


def chunk_results():
    R = TestChunkResults.R
    weighted = []

    def tail_rows(bounds, n, sums):
        weighted.append(sums.copy())
        return []

    def md(model, threads):
        rows = martingale_difference_check(model, [1, 2, 16], x_index=1, R=R, threads=threads)
        return digest([[r["mean"], r["se"], r["p_value"]] for r in rows])

    def weighted_sums(model, threads):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(uclt.simulate, "_tail_rows", tail_rows)
            weighted_tail_domination_check(model, None, [1.5], np.arange(1.0, 17.0), R,
                                           x_index=1, threads=threads)
        return digest(weighted.pop())

    def partial_sums(model, threads):
        return digest(_partial_sums(model, [4, 16], R, threads, cols=(0, 2)))

    for name, pin in (("MD_DIGESTS", md), ("WEIGHTED_DIGESTS", weighted_sums),
                      ("PARTIAL_SUMS_DIGESTS", partial_sums)):
        print(f"    {name} = {{")
        for model in ALL_KINDS:
            one, two = pin(model, 1), pin(model, 2)
            assert one == two, (name, model.kind, one, two)
            print(f'        "{model.kind}": "{one}",')
        print("    }")


def full_width():
    print("    FULL_WIDTH_DIGESTS = {")
    for model in ALL_KINDS:
        eta = simulate_eta(model, 16, 500)
        print(f'        "{model.kind}": "{hashlib.sha256(np.round(eta, 10).tobytes()).hexdigest()[:16]}",')
    print("    }")


def ratios():
    case = TestOsekowskiJackknife
    print("    RATIO_DIGESTS = {")
    for model in ALL_KINDS:
        for mode in case.MODES:
            rows = osekowski_check(model, case.P, case.N, case.R, mode=mode, **case.MODES[mode])
            print(f'        ("{model.kind}", "{mode}"): "{digest([r["ratio"] for r in rows])}",')
    print("    }")


def frozen_field():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uclt.simulate, "_abs_power_sums", power_sums)
        field = TestFrozenMomentField().field()
    for name, arr in (("POINT_NORMS", field.point_norms), ("POINT_SE", field.point_se),
                      ("PAIR_NORMS", field.pair_norms), ("PAIR_SE", field.pair_se)):
        print(f"{name} = [")
        for block in arr.tolist():
            rows = [f"[{', '.join(repr(v) for v in row)}]" for row in block]
            print("    [" + ",\n     ".join(rows) + "],")
        print("]")
    print("VARIANCES = [")
    for row in field.point_var.tolist():
        print(f"    [{', '.join(repr(v) for v in row)}],")
    print("]")


if __name__ == "__main__":
    chunk_results()
    full_width()
    ratios()
    frozen_field()
