"""Values of the transforms, pinned bit for bit.

The lower transform, the conjugate of p * log psi(p), the tail bound and the
Orlicz functions are exact, piece by piece in t = log p, on orders up to
`psi.DEFAULT_P_CAP`, and `w_operator`'s infimum over split points is exact.
Only `young_fenchel` and the ``method="grid"`` reference of `psi_lower_star`
scan `_gridopt.NODES` log-spaced nodes refined by golden section to
`_gridopt.TOL`.  The values are pinned as `float.hex` strings, so a change of
method, of the scan or of the arithmetic shows as a changed value.  They
compare with ``==``, so +0.0 and -0.0 count as equal.  `orlicz_n_function`
is exp of `log_orlicz_n_function`; below e**2 its pins are the direct
C * u**2 values, which it matches to 1e-13 relative.
"""
import math

import numpy as np
import pytest

from uclt.psi import (
    PsiFunction,
    gls_tail_bound,
    log_orlicz_n_function,
    orlicz_n_function,
    psi_bar_conjugate,
    psi_lower_star,
    rosenthal_transform,
    young_fenchel,
)
from uclt.tails import w_operator

from test_tails import TAILS

TAB = PsiFunction.tabulated([2.0, 2.5, 3.0, 4.0, 6.0, 8.0], [1.0, 1.1, 1.25, 1.4, 1.7, 2.0])

# piecewise shapes, with and without a rescaling term, and points through a wrapper
LOWER_SHAPES = {
    "tabulated": TAB,
    "rosenthal-tabulated": rosenthal_transform(TAB),
    "scaled": PsiFunction.closed_power(2.0).scaled(1.5),
    "scaled-degenerate": PsiFunction.degenerate(4.0).scaled(2.0),
    "rosenthal-degenerate": rosenthal_transform(PsiFunction.degenerate(3.0)),
}
XS = [0.0, 0.3, 1.0, 4.0, 25.0, 300.0]
LOWER = {
    "tabulated": [
        "0x0.0p+0", "0x1.3333333333333p-3", "0x1.fa46c4dde16f3p-2",
        "0x1.306913489a6d6p+0", "0x1.e8b90bfbe8e7cp+1", "0x1.318b90bfbe8e8p+5",
    ],
    "rosenthal-tabulated": [
        "0x1.0f420a40b9069p+0", "0x1.33fc043386f56p+0", "0x1.7fbfeffe7814cp+0",
        "0x1.301096ef38896p+1", "0x1.4a9760a8fb2efp+2", "0x1.3c52ec151f65ep+5",
    ],
    "scaled": [
        "0x1.810b375dce91ep-1", "0x1.cdd8042a9b5ebp-1", "0x1.40859baee748fp+0",
        "0x1.f1f7b3a6b9187p+0", "0x1.6e44dd96e00e1p+1", "0x1.06a6c9bebe810p+2",
    ],
    "scaled-degenerate": [
        "0x1.62e42fefa39efp-1", "0x1.894a96560a055p-1", "0x1.e2e42fefa39efp-1",
        "0x1.b17217f7d1cf8p+0", "0x1.bc5c85fdf473ep+2", "0x1.2ec5c85fdf474p+6",
    ],
    "rosenthal-degenerate": [
        "0x1.012b22f2f08e8p+0", "0x1.1ac4bc8c8a282p+0", "0x1.5680784845e3dp+0",
        "0x1.2b403c2422f1ep+1", "0x1.2ad00f0908bc8p+3", "0x1.9404ac8bcbc24p+6",
    ],
}
# the same shapes under the scan reference, method="grid"
LOWER_SCAN = {
    "tabulated": [
        "0x0.0p+0", "0x1.3333333333333p-3", "0x1.fa46c4dde16f3p-2",
        "0x1.306913489a6d6p+0", "0x1.e8b90bfbe8e7cp+1", "0x1.318b90bfbe8e8p+5",
    ],
    "rosenthal-tabulated": [
        "0x1.0f420a40b9069p+0", "0x1.33fc043386f55p+0", "0x1.7fbfeffe7f510p+0",
        "0x1.301096ef38897p+1", "0x1.4a9760a8fb2efp+2", "0x1.3c52ec151f65ep+5",
    ],
    "scaled": [
        "0x1.810b375f057f4p-1", "0x1.cdd8042b7504dp-1", "0x1.40859baee748ep+0",
        "0x1.f1f7b3a6b9186p+0", "0x1.6e44dd96e00e0p+1", "0x1.06a6c9bebe810p+2",
    ],
    "scaled-degenerate": [
        "0x1.62e42fefa39efp-1", "0x1.894a96560a055p-1", "0x1.e2e42fefa39efp-1",
        "0x1.b17217f7d1cf8p+0", "0x1.bc5c85fdf473ep+2", "0x1.2ec5c85fdf474p+6",
    ],
    "rosenthal-degenerate": [
        "0x1.012b22f2f08e8p+0", "0x1.1ac4bc8c8a282p+0", "0x1.5680784845e3dp+0",
        "0x1.2b403c2422f1ep+1", "0x1.2ad00f0908bc8p+3", "0x1.9404ac8bcbc24p+6",
    ],
}

CONJ_SHAPES = {
    "closed-power": PsiFunction.closed_power(2.0),
    "bounded-power": PsiFunction.closed_power(3.0, (2.0, 50.0)),
    "tabulated": TAB,
    "scaled": PsiFunction.closed_power(2.0).scaled(1.5),
    "degenerate": PsiFunction.degenerate(4.0),
    "scaled-degenerate": PsiFunction.degenerate(4.0).scaled(2.0),
    "degenerate-below-two": PsiFunction.degenerate(1.5),
}
YS = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]
CONJ = {
    "closed-power": [
        "-0x1.58b90bfbe8e7cp+1", "-0x1.62e42fefa39efp-1", "0x1.3a37a020b8c22p-2",
        "0x1.5bf0a8b145769p+0", "0x1.415e5bf6fb106p+3", "0x1.28d389970338fp+6",
    ],
    "bounded-power": [
        "-0x1.3b2607fd45efdp+1", "-0x1.d9303fea2f7e9p-2", "0x1.1367e00ae840cp-1",
        "0x1.3b44325e33e75p+1", "0x1.16659d6020dd4p+5", "0x1.5332ceb0106eap+6",
    ],
    "tabulated": [
        "-0x1.0000000000000p+1", "0x0.0p+0", "0x1.035f3fa2cb778p+0",
        "0x1.688c8dba1fd55p+1", "0x1.4e8de8082e308p+3", "0x1.2746f40417184p+4",
    ],
    "scaled": [
        "-0x1.c0859baee748fp+1", "-0x1.810b375dce91ep+0", "-0x1.02166ebb9d23cp-1",
        "0x1.fbd32288c5b88p-2", "0x1.1da9354d50f22p+2", "0x1.07d87a4d58328p+5",
    ],
    "degenerate": [
        "-0x1.0000000000000p+2", "0x0.0p+0", "0x1.0000000000000p+1",
        "0x1.0000000000000p+2", "0x1.0000000000000p+3", "0x1.8000000000000p+3",
    ],
    "scaled-degenerate": [
        "-0x1.b17217f7d1cf8p+2", "-0x1.62e42fefa39efp+1", "-0x1.8b90bfbe8e7bcp-1",
        "0x1.3a37a020b8c22p+0", "0x1.4e8de8082e308p+2", "0x1.2746f40417184p+3",
    ],
    "degenerate-below-two": [
        "-inf", "-inf", "-inf",
        "-inf", "-inf", "-inf",
    ],
}
US = [2.0, 10.0, 100.0]
TAIL_BOUND = {
    "closed-power": [
        "0x1.0000000000000p+0", "0x1.60e5e7e669a23p-26", "0x0.0p+0",
    ],
    "bounded-power": [
        "0x1.7fee0d638bd30p-1", "0x1.f4b8bf6b4f9bcp-72", "0x1.d45b051c33d2dp-238",
    ],
    "tabulated": [
        "0x1.cb72c5aafa76bp-2", "0x1.5798ee2308c34p-18", "0x1.cd2b297d889a6p-45",
    ],
    "scaled": [
        "0x1.0000000000000p+0", "0x1.2741b2a9354ddp-11", "0x0.0p+0",
    ],
    "degenerate": [
        "0x1.0000000000000p-3", "0x1.a36e2eb1c4326p-13", "0x1.5798ee2308c2fp-26",
    ],
    "scaled-degenerate": [
        "0x1.0000000000000p+0", "0x1.a36e2eb1c4329p-9", "0x1.5798ee2308c31p-22",
    ],
    "degenerate-below-two": [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ],
}

FENCHEL_CASES = {
    "half-square": (lambda x: x * x / 2.0, [0.5, 4.0, 30.0]),
    "capped-power": (lambda x: math.inf if x > 10.0 else x ** 1.5, [1.0, 2.0, 5.0]),
    "linear": (lambda x: 1.7 * x, [1.0, 1.7, 2.5]),
}
FENCHEL = {
    "half-square": [
        "-0x1.0000000000000p+0", "0x1.0000000000000p+3", "0x1.c200000000000p+8",
    ],
    "capped-power": [
        "-0x1.a827999fcef34p-1", "0x1.2bec333018866p+0", "0x1.26091b66c9120p+4",
    ],
    "linear": [
        "-0x1.6666666666666p+0", "-0x0.0p+0", "0x1.999999999999ap+9",
    ],
}

# TAILS of test_tails at x = 1.5, 3 and 10, from the exact infimum: against
# mpmath the closed_weibull rows are within 3.8 ulp and the jump rows within
# 0.2 ulp.
W = [
    ["0x1.ef849d9110afcp-1", "0x1.ad73e33697fccp-1", "0x1.f273393fa2033p-4"],
    ["0x1.fffffe8ea9278p-1", "0x1.fffff8d6ea60fp-1", "0x1.ffff872a5da62p-1"],
    ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"],
    ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"],
    ["0x1.c00f95f46b54ep-2", "0x1.efa9c046a9642p-3", "0x1.6294d5be0a44cp-16"],
    ["0x1.827a561889716p-1", "0x1.4c71b2477ab20p-2", "0x1.f42ed3f68e690p-19"],
    ["0x1.f71421c20d55dp-1", "0x1.dd3c89b26894ep-1", "0x1.d4d244cf4ea9ep-2"],
    ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
]

ORLICZ_US = [0.0, 0.5, 3.0, 7.0, 20.0, math.exp(8.0)]
ORLICZ = {
    "closed-power": [
        "0x0.0p+0", "0x1.a50e9e511b685p+6", "0x1.d9b0721b3ed56p+11",
        "0x1.425f313618fbep+14", "0x1.1b925259356aap+106", "inf",
    ],
    "bounded-power": [
        "0x0.0p+0", "0x1.59f54f4288057p+42", "0x1.8533f92ad9062p+47",
        "0x1.08dfd0aef0243p+50", "0x1.05c424805b2fbp+122", "0x1.02736f797dc51p+483",
    ],
    "tabulated": [
        "0x0.0p+0", "0x1.3de1654d37c97p+7", "0x1.659d91f6dec2ap+12",
        "0x1.e6c1231e3d6c7p+14", "0x1.7d783fffffff4p+26", "0x1.425982cf597c9p+84",
    ],
    "scaled": [
        "0x0.0p+0", "0x1.96ececd2be6e6p-2", "0x1.c9ca8a6d163c3p+3",
        "0x1.378d655159cc8p+6", "0x1.215ae9435672fp+47", "inf",
    ],
    "degenerate": [
        "0x0.0p+0", "0x1.b4c902e273a59p+3", "0x1.eb62233ec21a4p+8",
        "0x1.4e69e635608acp+11", "0x1.387fffffffffdp+17", "0x1.1f43fcc4b662cp+46",
    ],
    "scaled-degenerate": [
        "0x0.0p+0", "0x1.b4c902e273a57p-1", "0x1.eb62233ec21a2p+4",
        "0x1.4e69e635608aap+7", "0x1.387fffffffffbp+13", "0x1.1f43fcc4b662bp+42",
    ],
}
LOG_ORLICZ = {
    "closed-power": [
        "-inf", "0x1.2a03abf20d390p+2", "0x1.07ae05e1af1c9p+3",
        "0x1.3de826afc479cp+3", "0x1.264db5a531ae2p+6", "0x1.2231620a39bcap+12",
    ],
    "bounded-power": [
        "-inf", "0x1.d69cf7c147809p+4", "0x1.07f987dacde05p+5",
        "0x1.1588100e53379p+5", "0x1.52584cbe61a7dp+6", "0x1.4eccb3ac041bbp+8",
    ],
    "tabulated": [
        "-inf", "0x1.4462c41473794p+2", "0x1.14dd91f2e23cbp+3",
        "0x1.4b17b2c0f799ep+3", "0x1.26bb1bbb55515p+4", "0x1.d3a37a020b8c2p+5",
    ],
    "scaled": [
        "-inf", "-0x1.d87eb574bfacep-1", "0x1.549112457214fp+1",
        "0x1.16bccabee3c4ep+2", "0x1.059a6892d6d39p+5", "0x1.083e3e1d7a246p+12",
    ],
    "degenerate": [
        "-inf", "0x1.4e8de8082e308p+1", "0x1.8c9f53d568186p+2",
        "0x1.f913957192d2cp+2", "0x1.7f7427b73e391p+3", "0x1.0000000000000p+5",
    ],
    "scaled-degenerate": [
        "-inf", "-0x1.45647e7756e78p-3", "0x1.b65a77bb2c91bp+1",
        "0x1.47a17d79c1034p+2", "0x1.26bb1bbb55515p+3", "0x1.d3a37a020b8c2p+4",
    ],
}


def unhex(values):
    return [float.fromhex(v) for v in values]


@pytest.mark.parametrize("name", sorted(LOWER))
def test_lower_star(name):
    psi = LOWER_SHAPES[name]
    assert psi_lower_star(psi, np.array(XS)).tolist() == unhex(LOWER[name])
    assert [psi_lower_star(psi, x) for x in XS] == unhex(LOWER[name])


@pytest.mark.parametrize("name", sorted(LOWER_SCAN))
def test_lower_star_scan(name):
    psi = LOWER_SHAPES[name]
    assert psi_lower_star(psi, np.array(XS), method="grid").tolist() == unhex(LOWER_SCAN[name])
    assert [psi_lower_star(psi, x, method="grid") for x in XS] == unhex(LOWER_SCAN[name])


@pytest.mark.parametrize("name", sorted(CONJ))
def test_bar_conjugate_and_tail_bound(name):
    psi = CONJ_SHAPES[name]
    assert [psi_bar_conjugate(psi, y) for y in YS] == unhex(CONJ[name])
    assert [gls_tail_bound(psi, 1.0, u) for u in US] == unhex(TAIL_BOUND[name])


@pytest.mark.parametrize("name", sorted(FENCHEL))
def test_young_fenchel(name):
    g, ys = FENCHEL_CASES[name]
    assert [young_fenchel(g, y) for y in ys] == unhex(FENCHEL[name])


@pytest.mark.parametrize("k", range(len(TAILS)), ids=[T.to_json() for T in TAILS])
def test_w_operator(k):
    assert [w_operator(TAILS[k], x) for x in (1.5, 3.0, 10.0)] == unhex(W[k])


@pytest.mark.parametrize("name", sorted(ORLICZ))
def test_orlicz(name):
    psi = CONJ_SHAPES[name]
    assert [log_orlicz_n_function(psi, u) for u in ORLICZ_US] == unhex(LOG_ORLICZ[name])
    for u, want in zip(ORLICZ_US, unhex(ORLICZ[name])):
        exact = abs(u) > math.exp(2.0) or want == 0.0
        assert orlicz_n_function(psi, u) == (want if exact else
                                             pytest.approx(want, rel=1e-13, abs=0.0))
