"""Regenerate bench/oracle.json: reference values for the benchmark checks.

The references are computed with mpmath at 45 to 180 significant digits,
independently of melsplit: no module of the package is imported.  Every
integral has the form

    F = integral over R of [P(z) cos(d phi) + Q(z) sin(d phi)] / (1 + z^2)^k dz,
    phi = z + z^3/3,

which for d >= 0 equals Re integral (P - iQ)(z) exp(i d phi(z)) / (1+z^2)^k dz.
That integrand is analytic off the poles z = +-i, so the real line may be
deformed into the upper half plane (see ``path_integral``), where it neither
oscillates nor cancels, and Gauss-Legendre and tanh-sinh quadrature converge.
d < 0 is the same integral with Q -> -Q and d -> |d|.  Each value is
computed on two different paths; the script stops if they disagree beyond
the stored accuracy.

Run from the repository root (about 25 minutes on one core):

    python3 bench/make_oracle.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 45  # also the precision of the post-processing in main()
DIGITS = 30  # accuracy claimed for the stored values

#: theta-tilde lattice shared by fplot and melnikov checks: -2.5 .. 5 step 1/4
LATTICE = [-2.5 + 0.25 * i for i in range(31)]
DELTAS = [1.0, 3.0, 10.0, 30.0, 100.0, 300.0]

# (cos numerator, sin numerator) in ascending powers, power of (1+z^2),
# phase-scale multiplier of theta^3; as stated in the package README/paper.
NAMED = {
    "F4": ((2, 0, -24, 0, 14), (0, 11, 0, -26, 0, 3), 6, mp.mpf(1)),
    "F61": ((-1, 0, 9), (0, -6, 0, 4), 6, mp.mpf(1) / 2),
    "F62": ((-3, 0, 69, 0, -125, 0, 27), (0, -22, 0, 120, 0, -78, 0, 4), 8, mp.mpf(3) / 2),
}
POLY_N = range(4, 11)


def _polyval(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _named_amplitude(cos_num, sin_num):
    return lambda z: _polyval(cos_num, z) - 1j * _polyval(sin_num, z)


def _polygon_amplitude(n_total):
    """P - iQ for the polygonal integrand, from the rotation closed form.

    With C + iS = (1 + iz)^(2n), n = N - 1, the numerators are
    P = n C - N z S and Q = N z C + n S.
    """
    n = n_total - 1

    def amp(z):
        up, down = (1 + 1j * z) ** (2 * n), (1 - 1j * z) ** (2 * n)
        c, s = (up + down) / 2, (up - down) / 2j
        p = n * c - n_total * z * s
        q = n_total * z * c + n * s
        return p - 1j * q

    return amp


def path_integral(amp, k, d, h):
    """Re of the integral of amp(z) exp(i d phi) / (1+z^2)^k over R, for d >= 0.

    The path is the segment Im z = h, |Re z| <= 8 w (w = min(1, d^-1/2) is
    the width of the Gaussian envelope exp(-d h x^2) there), continued to
    infinity by rays at 30 degrees above the horizontal, on which the cubic
    term of the phase decays like exp(-d t^3/3) instead of oscillating.  The
    poles at z = +-i stay above the path for 0 <= h < 1.
    """
    w = 1 / mp.sqrt(d) if d > 1 else mp.mpf(1)

    def g(z):
        return amp(z) * mp.exp(1j * d * (z + z**3 / 3)) / (1 + z * z) ** k

    edge = 8 * w
    nodes = [edge * (i / mp.mpf(32) - 1) for i in range(65)]
    total = w * mp.quad(lambda u: g(mp.mpc(w * u, h)), [x / w for x in nodes],
                        method="gauss-legendre")
    for start, direction in ((edge, mp.expjpi(mp.mpf(1) / 6)), (-edge, -mp.expjpi(-mp.mpf(1) / 6))):
        # the left ray is traversed towards the apex, hence the sign flip
        orient = 1 if start > 0 else -1
        total += orient * direction * mp.quad(
            lambda t, s=start, e=direction: g(mp.mpc(s, h) + t * e), [0, w, 4 * w, 16 * w, mp.inf]
        )
    return mp.re(total)


def contour_value(amp, k, d):
    """Value of the integral, checked on two paths at rising precision.

    For d > 1 the line sits at h = 1 - a/sqrt(d), close to the saddle at
    z = i, where the integrand exceeds the value by about e^(a^2) times a
    power of d; numerators with a high-order zero at z = i cancel further,
    which the retries at higher precision absorb.
    """
    d = mp.mpf(d)
    if d < 0:  # cos(d phi) P + sin(d phi) Q with d -> |d| flips the sign of Q
        return contour_value(lambda z, amp=amp: mp.conj(amp(mp.conj(z))), k, -d)
    size = max(mp.mpf(10) ** -400, mp.exp(-2 * d / 3))
    for dps in (mp.mp.dps, 2 * mp.mp.dps, 4 * mp.mp.dps):
        with mp.workdps(dps):
            h1 = max(mp.mpf(0), 1 - 1 / mp.sqrt(d)) if d > 0 else mp.mpf(0)
            h2 = max(mp.mpf("0.3"), 1 - mp.mpf("1.5") / mp.sqrt(d)) if d > 0 else mp.mpf("0.3")
            v1, v2 = path_integral(amp, k, d, h1), path_integral(amp, k, d, h2)
            # true zeros (F at d = 0) are judged against the integrand's size
            # and stored as 0: below the claimed accuracy nothing is known
            if abs(v1 - v2) <= mp.mpf(10) ** (-DIGITS) * max(abs(v1), size):
                return v1 if abs(v1) > mp.mpf(10) ** (-DIGITS) * size else mp.mpf(0)
    raise ArithmeticError(f"paths disagree by {mp.nstr(abs(v1 - v2), 3)} at {mp.nstr(v1, 5)}")


def _ref(value):
    return mp.nstr(value, DIGITS, strip_zeros=False)


def main() -> None:
    out = {"digits": DIGITS, "lattice": LATTICE, "deltas": DELTAS, "F": {}, "I": {}, "J": {}}
    funcs = {name: (_named_amplitude(c, s), k, m) for name, (c, s, k, m) in NAMED.items()}
    for n in POLY_N:
        funcs[f"poly:{n}"] = (_polygon_amplitude(n), 2 * n, mp.mpf(n - 1) / 2)
    for name, (amp, k, mult) in funcs.items():
        out["F"][name] = [_ref(contour_value(amp, k, mult * mp.mpf(tt) ** 3)) for tt in LATTICE]
        print(f"{name}: done", file=sys.stderr)
    one = lambda z: mp.mpc(1)  # noqa: E731
    minus_iz = lambda z: -1j * z  # noqa: E731  (P = 0, Q = z)
    for k in range(1, 9):
        out["I"][str(k)] = [_ref(contour_value(one, k, d) / 2) for d in DELTAS]
        if k >= 3:
            out["J"][str(k)] = [_ref(contour_value(minus_iz, k, d) / 2) for d in DELTAS]
    path = Path(__file__).with_name("oracle.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
