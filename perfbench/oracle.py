"""Reference values computed apart from uavcell, from the raw config values.

Nothing here imports uavcell. Powers arrive in dBm and are converted with
this module's own formula; the link budget is written out term by term
(transmit power, antenna gain, path gain, noise in the occupied band) rather
than through the program's aggregate constants. bc and mac are integrated
numerically over the coverage disk with scipy's adaptive quadrature; the
program evaluates the same integrals in closed form.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

# Boresight coefficient of the paper's antenna model: main-lobe gain is
# G0 / theta^2 for half-beamwidth theta (30000 / 2^2 in square degrees).
G0 = 30000.0 / 4.0 * (math.pi / 180.0) ** 2
LN2 = math.log(2.0)
DENSE_SCAN_POINTS = 2001


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


class Link:
    """Link budget of one config: powers in W, noise in W over the band."""

    def __init__(self, cfg: dict):
        self.beta0 = cfg["beta0"]
        self.band_hz = cfg["bandwidth_hz"]
        self.p_down_w = dbm_to_w(cfg["p_downlink_dbm"])
        self.p_up_w = dbm_to_w(cfg["p_uplink_dbm"])
        self.noise_w = dbm_to_w(cfg["noise_psd_dbm_hz"]) * self.band_hz
        self.rho = cfg["density_per_m2"]
        self._cache = {}

    def downlink_snr(self, h: float, theta: float, r2: float) -> float:
        """Full-band SNR at squared ground distance r2 from the cell centre."""
        gain = G0 / theta**2
        return self.p_down_w * gain * self.beta0 / ((h * h + r2) * self.noise_w)

    def edge_rate(self, h: float, theta: float) -> float:
        """bps/Hz of a terminal on the coverage edge, r = h tan(theta)."""
        r2 = (h * math.tan(theta)) ** 2
        return math.log1p(self.downlink_snr(h, theta, r2)) / LN2

    def uplink_snr_scale(self, theta: float, terminals: float) -> float:
        """c with per-terminal uplink SNR c / (h^2 + r^2): full power P_u in a
        1/terminals share of the band, so the noise shrinks by that share."""
        gain = G0 / theta**2
        return self.p_up_w * gain * self.beta0 * terminals / self.noise_w

    def rate(self, mode: str, h: float, theta: float) -> float:
        key = (mode, h, theta)
        if key not in self._cache:
            self._cache[key] = _RATES[mode](self, h, theta)
        return self._cache[key]

    def dense_scan(self, mode: str, h: float, lo: float, hi: float):
        """(thetas, values) on DENSE_SCAN_POINTS evenly spaced beamwidths."""
        thetas = np.linspace(lo, hi, DENSE_SCAN_POINTS)
        return thetas, np.array([self.rate(mode, h, float(t)) for t in thetas])


def _mc(link: Link, h: float, theta: float) -> float:
    # expected terminals in the hexagon inscribed in the coverage disk, each
    # served at the edge terminal's rate (every receiver decodes the stream)
    radius = h * math.tan(theta)
    terminals = link.rho * 1.5 * math.sqrt(3.0) * radius**2
    return terminals * link.edge_rate(h, theta)


def _disk_average(snr_at_r2, radius: float) -> float:
    """Mean of log2(1 + snr) over a uniform point of the disk: with s = r^2/R^2
    uniform on [0, 1]."""
    value, _ = quad(lambda s: math.log1p(snr_at_r2(s * radius * radius)),
                    0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value / LN2


def _bc(link: Link, h: float, theta: float) -> float:
    # equal FDMA shares of power and band cancel: each terminal sees the
    # full-band SNR, and the K' shares sum to the disk average
    return _disk_average(lambda r2: link.downlink_snr(h, theta, r2), h * math.tan(theta))


def _mac(link: Link, h: float, theta: float) -> float:
    radius = h * math.tan(theta)
    c = link.uplink_snr_scale(theta, link.rho * math.pi * radius**2)
    return _disk_average(lambda r2: c / (h * h + r2), radius)


_RATES = {"mc": _mc, "bc": _bc, "mac": _mac}
