"""Local hidden-variable baselines: exact enumeration and Monte Carlo.

Deterministic strategies assign simultaneous +-1 values to every setting,
so the CHSH combination a*b + a'*b + a*b' - a'*b' is +-2 for each hidden
value and no average can exceed 2; the Mermin analog Im prod_j (a_j + i a_j')
is similarly capped (2 for n = 3).  The CHSH maximum is computed by
exhaustive enumeration, the Mermin one by its closed form 2^floor(n/2).

The stochastic side is a seeded Monte Carlo over response-function models;
the stock sign model reproduces the sawtooth correlation
E(a, b) = -1 + 2*d/pi (d = angular distance between the settings folded
to [0, pi]) whose CHSH value at (0, pi/2, pi/4, -pi/4) is exactly -2.
simulate_chsh_stats takes one setting, the (4,) array-like (alpha, alpha',
beta, beta') in radians, and returns the plain pair (estimate, stderr).

numpy is imported in the functions that use it, so importing this module
loads none, and neither does chsh_deterministic_max (`bell-lab lhv --enumerate`)
or mermin_deterministic_max of an int.
"""

from __future__ import annotations  # numpy stays unloaded until a function that builds arrays runs

import math
from itertools import product
from typing import Callable

from .errors import NumericalCheckError
from ._common import _chsh_angles, _Record

# Fixed, documented generator family: numpy's PCG64 behind Generator.
# Recorded in CLI metadata so seeded runs name their algorithm.
RNG_ALGORITHM = "pcg64"

_CHUNK = 1 << 16  # hidden values drawn and scored per Monte Carlo step
_MAX_SAMPLES = 10**9  # hidden values one run may draw: about 20 s on a 2-core Xeon


def make_rng(seed: int) -> np.random.Generator:
    """A PCG64 generator; the seed is checked here, once for every caller."""
    import numpy as np
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


class HiddenVariableModel(_Record):
    """Locality-by-construction response model.

    ``sample(rng, n)`` draws n hidden values; each response maps
    (setting, lambda array) -> +-1 array and may depend only on its own
    party's setting and lambda.
    """

    sample: Callable[[np.random.Generator, int], np.ndarray]
    alice_response: Callable[[float, np.ndarray], np.ndarray]
    bob_response: Callable[[float, np.ndarray], np.ndarray]


def _cos_sign(angle: float, lam) -> np.ndarray:
    # sign(cos(angle - lam)) with the 0 -> +1 convention, so always +-1
    import numpy as np
    return np.where(np.cos(angle - lam) >= 0.0, np.int8(1), np.int8(-1))


def _arc_sign(angle: float, lam) -> np.ndarray:
    """``_cos_sign`` by arc membership: the same int8 array, bitwise.

    cos(angle - lam) >= 0 exactly when e = ||lam - c| - pi|, pi minus the
    circular distance from c = angle mod 2 pi, is >= pi/2 (for |lam - c| <=
    2 pi).  Within w = 1e-9 * max(1, |angle|) of an arc end, where rounding
    (~1e-16 * |angle|) could split the routes, the cosine decides.
    """
    import numpy as np
    angle, lam = float(angle), np.asarray(lam, dtype=float)
    w = 1e-9 * max(1.0, abs(angle))
    e = lam - angle % (2.0 * np.pi)  # in place from here: a fresh buffer costs page faults
    np.abs(e, out=e)
    e -= np.pi
    np.abs(e, out=e)
    if not e.max(initial=0.0) <= np.pi:  # some |lam - c| > 2 pi, or a NaN
        return _cos_sign(angle, lam)
    r = (e >= 0.5 * np.pi - w).view(np.int8) + (e >= 0.5 * np.pi + w).view(np.int8)
    r -= 1  # +1 or -1, and 0 within w of an arc end
    near = r == 0
    if near.any():
        r[near] = _cos_sign(angle, lam[near])
    return r


def sign_model() -> HiddenVariableModel:
    """lambda uniform on the circle; response sign(cos(setting - lambda)).

    Bob's response carries an extra minus sign so the model mimics
    anticorrelated pairs: E(a, a) = -1 exactly.  Responses are int8.
    """
    return HiddenVariableModel(
        sample=lambda rng, n: rng.uniform(0.0, 2.0 * math.pi, size=n),
        alice_response=_arc_sign,
        bob_response=lambda angle, lam: -_arc_sign(angle, lam),
    )


def sawtooth_correlation(a: float, b: float) -> float:
    """Analytic E(a, b) of the sign model: -1 + 2*d/pi, d folded to [0, pi]."""
    d = abs(a - b) % (2.0 * math.pi)
    d = min(d, 2.0 * math.pi - d)
    return -1.0 + 2.0 * d / math.pi


def chsh_deterministic_max() -> int:
    """Max of ab + a'b + ab' - a'b' over all 16 strategies; exactly 2."""
    return max(
        a * b + ap * b + a * bp - ap * bp
        for a, ap, b, bp in product((-1, 1), repeat=4)
    )


def mermin_deterministic_max(n: int) -> int:
    """Max of Im prod_j (a_j + i a_j') over all 2^(2n) strategies, 1 <= n <= 12.

    Closed form 2^floor(n/2) (Mermin, PRL 65, 1838 (1990)): each factor
    a + i a' with a, a' = +-1 is sqrt(2) e^{i pi (2m+1)/4}, so the product
    is 2^(n/2) e^{i pi k/4} with k of the same parity as n, and the
    imaginary part peaks at 2^(n/2) max sin(pi k/4) over those k: 2^(n/2)
    for even n, 2^((n-1)/2) for odd n.
    """
    integer = isinstance(n, int)
    if not integer:  # numpy only to accept an np.integer
        import numpy as np
        integer = isinstance(n, np.integer)
    if not integer or not 1 <= n <= 12:
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    return 2 ** (int(n) // 2)


def simulate_chsh_stats(
    model: HiddenVariableModel, settings, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo CHSH (estimate, stderr) at one (4,) settings array-like; reproducible per seed.

    Every hidden value is used to evaluate all four correlations at once
    (the simultaneous-values assumption that defines this model class),
    so the per-sample combination is +-2 and is checked to be.  Hidden
    values are drawn _CHUNK at a time and only the +2 outcomes are counted,
    so memory is O(_CHUNK); the standard error comes from the counts.
    Chunked draws equal one draw of all ``samples`` only for a sampler that
    is chunk-invariant, as the sign model's PCG64 uniform draws are.
    """
    import numpy as np
    if not isinstance(samples, (int, np.integer)) or not 1 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must be an integer in [1, {_MAX_SAMPLES}], got {samples!r}")
    angles = _chsh_angles(settings)
    if angles.ndim != 1:
        raise ValueError(f"need one settings tuple, got a batch of shape {angles.shape[1:]}")
    rng = make_rng(seed)
    n, n_plus = int(samples), 0
    for start in range(0, n, _CHUNK):
        lam = model.sample(rng, min(_CHUNK, n - start))
        a, ap = (model.alice_response(angle, lam) for angle in angles[:2])
        b, bp = (model.bob_response(angle, lam) for angle in angles[2:])
        per_lambda = a * b + ap * b + a * bp - ap * bp
        if not np.all(np.abs(per_lambda) == 2):
            raise NumericalCheckError("per-lambda CHSH combination left {-2, +2}")
        n_plus += int(np.count_nonzero(per_lambda == 2))
    est = 2 * (2 * n_plus - n) / n
    dp, dm = 2.0 - est, -2.0 - est  # deviations of a +2 and of a -2 outcome
    var = (n_plus * (dp * dp) + (n - n_plus) * (dm * dm)) / (n - 1) if n > 1 else 0.0
    return est, float(np.sqrt(var) / np.sqrt(n))
