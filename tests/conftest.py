"""Shared fixtures: published parameter sets and reference table values.

All reference numbers below are transcribed from the source tables; the
parameter quadruples are (alpha, theta, n, j).
"""

import math

import numpy as np
import pytest

from unseen import DomainError, PYParams, SampleSummary
from unseen import model


# Leading-order mean and variance constants of the prior-chain species count
# at theta = lam * m: E[K*_m] ~ m * m_frak and Var[K*_m] ~ m * s_frak^2.
def m_frak(alpha, lam):
    if lam <= 0:
        raise DomainError("lam must be positive")
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return lam * c
    return (lam / alpha) * math.expm1(alpha * c)


def s_frak_sq(alpha, lam):
    if lam <= 0:
        raise DomainError("lam must be positive")
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return lam * c - lam / (lam + 1.0)
    big_a = math.exp(alpha * c)
    return (lam / alpha) * big_a * math.expm1(alpha * c) - lam * big_a * big_a / (lam + 1.0)


def standin_freqs(n, j, shape=1.3):
    """Deterministic power-law-profiled frequencies with exactly j species
    summing to exactly n, for fixture files whose (n, j) match published
    datasets that are not distributed."""
    if not 1 <= j <= n:
        raise DomainError("need 1 <= j <= n")
    ranks = np.arange(1, j + 1, dtype=float)
    profile = ranks ** (-shape)
    extra = n - j
    alloc = np.floor(profile / profile.sum() * extra).astype(np.int64)
    remainder = extra - int(alloc.sum())
    # largest-remainder: hand leftover units to the largest fractional parts
    frac = profile / profile.sum() * extra - alloc
    order = np.argsort(-frac, kind="stable")
    alloc[order[:remainder]] += 1
    return SampleSummary.from_freqs(alloc + 1)


# Mean and variance functions of the binomial-mixing stage of the CLT; the
# constants M and S^2 must satisfy mu(m_frak) = M and
# sigma^2(m_frak) + s_frak^2 * mu'^2 = S^2.
def mu_z(z, alpha, tau, nu, rho):
    if z <= 0:
        raise DomainError("z must be positive")
    return z * (tau + rho * alpha) / (tau + nu)


def mu_z_prime(alpha, tau, nu, rho):
    return (tau + rho * alpha) / (tau + nu)


def sigma_sq_z(z, alpha, tau, nu, rho):
    if z <= 0:
        raise DomainError("z must be positive")
    g = tau + rho * alpha
    h = nu - rho * alpha
    lam = tau + nu
    return z * g * h / (lam * lam) * (1.0 + alpha * z / lam)


# Synthetic datasets: empirical-Bayes estimates as published (two decimals).
TAB0 = {
    "zipf_a": (0.54, 26.67, 977, 300),
    "zipf_b": (0.38, 4.66, 1877, 100),
    "polya_c": (0.64, 2.39, 2000, 215),
    "uniform_d": (0.0, 178.48, 2000, 447),
}

# EST libraries: empirical-Bayes estimates as published (three decimals).
TABLE_FAV = {
    "tomato_flower": (0.612, 741.0, 2586, 1825),
    "mastigamoeba": (0.770, 46.0, 715, 460),
    "mastigamoeba_norm": (0.700, 57.0, 363, 248),
    "naegleria_aerobic": (0.670, 46.3, 959, 473),
    "naegleria_anaerobic": (0.660, 155.5, 969, 631),
}

# Point estimates and 95% intervals at m = (1..5)*n.
TABLE1 = {
    "zipf_a": {
        "k_hat": (156, 280, 386, 480, 566),
        "exact": ((130, 184), (241, 321), (335, 439), (423, 541), (501, 638)),
        "ml": ((141, 173), (252, 309), (348, 426), (433, 530), (511, 625)),
        "gauss": ((129, 183), (239, 320), (334, 437), (419, 541), (496, 636)),
    },
    "zipf_b": {
        "k_hat": (33, 57, 77, 93, 108),
        "exact": ((22, 47), (40, 77), (57, 102), (69, 119), (80, 137)),
        "ml": ((28, 40), (47, 69), (63, 92), (77, 112), (89, 129)),
        "gauss": ((21, 46), (39, 76), (55, 99), (68, 119), (80, 136)),
    },
    "polya_c": {
        "k_hat": (122, 224, 313, 395, 471),
        "exact": ((98, 149), (185, 265), (263, 369), (334, 460), (398, 549)),
        "ml": ((107, 139), (195, 254), (273, 356), (344, 449), (410, 535)),
        "gauss": ((96, 149), (183, 264), (261, 366), (332, 458), (398, 544)),
    },
    "uniform_d": {
        "k_hat": (116, 186, 236, 275, 307),
        "exact": ((96, 137), (160, 211), (206, 265), (244, 309), (274, 341)),
        "ml": None,
        "gauss": ((96, 137), (160, 212), (207, 266), (243, 307), (273, 341)),
    },
}

# Larger additional samples, m = (10, 50, 100, 1000)*n.
TABLE2 = {
    "zipf_a": {
        "k_hat": (923, 2582, 3904, 14493),
        "gauss": ((817, 1029), (2311, 2854), (3501, 4307), (13038, 15949)),
    },
    "zipf_b": {
        "k_hat": (165, 381, 525, 1400),
        "gauss": ((125, 204), (301, 460), (419, 632), (1132, 1668)),
    },
    "polya_c": {
        "k_hat": (799, 2502, 3998, 18139),
        "gauss": ((682, 915), (2165, 2839), (3467, 4529), (15776, 20501)),
    },
    "uniform_d": {
        "k_hat": (414, 687, 809, 1218),
        "gauss": ((375, 453), (636, 738), (753, 864), (1150, 1286)),
    },
}

TABLE3 = {
    "tomato_flower": {
        "k_hat": (1281, 2354, 3305, 4173, 4980),
        "exact": ((1223, 1339), (2264, 2446), (3184, 3424), (4031, 4318), (4815, 5146)),
        "ml": ((1244, 1321), (2287, 2427), (3211, 3409), (4054, 4304), (4838, 5136)),
        "gauss": ((1222, 1340), (2262, 2445), (3185, 3425), (4028, 4319), (4811, 5148)),
    },
    "mastigamoeba": {
        "k_hat": (346, 654, 939, 1208, 1465),
        "exact": ((312, 379), (596, 706), (866, 1014), (1119, 1301), (1357, 1578)),
        "ml": ((323, 369), (610, 697), (875, 1001), (1126, 1288), (1366, 1562)),
        "gauss": ((312, 379), (599, 708), (865, 1012), (1116, 1299), (1356, 1573)),
    },
    "mastigamoeba_norm": {
        "k_hat": (180, 336, 477, 608, 732),
        "exact": ((157, 202), (299, 371), (429, 525), (546, 671), (660, 803)),
        "ml": ((164, 197), (306, 367), (435, 522), (555, 666), (668, 801)),
        "gauss": ((157, 203), (299, 372), (428, 526), (548, 668), (662, 803)),
    },
    "naegleria_aerobic": {
        "k_hat": (307, 566, 798, 1012, 1212),
        "exact": ((272, 343), (514, 621), (730, 873), (921, 1099), (1108, 1319)),
        "ml": ((284, 331), (524, 611), (739, 861), (937, 1091), (1122, 1307)),
        "gauss": ((272, 342), (511, 622), (726, 871), (923, 1101), (1109, 1315)),
    },
    "naegleria_anaerobic": {
        "k_hat": (439, 812, 1146, 1454, 1741),
        "exact": ((402, 476), (753, 871), (1065, 1219), (1365, 1550), (1635, 1855)),
        "ml": ((415, 465), (767, 860), (1083, 1213), (1373, 1538), (1645, 1843)),
        "gauss": ((402, 476), (754, 870), (1069, 1223), (1360, 1547), (1632, 1851)),
    },
}

TABLE4 = {
    "tomato_flower": {
        "k_hat": (8432, 25926, 40888, 113848),
        "gauss": ((8164, 8700), (25154, 26698), (39684, 42092), (110540, 117157)),
    },
    "mastigamoeba": {
        "k_hat": (2634, 9718, 16797, 58889),
        "gauss": ((2448, 2819), (9063, 10372), (15674, 17921), (54976, 62803)),
    },
    "mastigamoeba_norm": {
        "k_hat": (1280, 4344, 7203, 22759),
        "gauss": ((1163, 1397), (3969, 4720), (6585, 7820), (20825, 24694)),
    },
    "naegleria_aerobic": {
        "k_hat": (2084, 6781, 11030, 33286),
        "gauss": ((1917, 2252), (6270, 7293), (10207, 11852), (30833, 35740)),
    },
    "naegleria_anaerobic": {
        "k_hat": (2994, 9679, 15671, 46683),
        "gauss": ((2817, 3171), (9140, 10218), (14807, 16535), (44137, 49229)),
    },
}

TABLE2_MULTS = (10, 50, 100, 1000)

ALL_SETS = {**TAB0, **TABLE_FAV}


@pytest.fixture
def zipf_a():
    a, t, n, j = TAB0["zipf_a"]
    return PYParams(alpha=a, theta=t), SampleSummary(n, j)


def params_sample(name):
    a, t, n, j = ALL_SETS[name]
    return PYParams(alpha=a, theta=t), SampleSummary(n, j)


def plain_recursion(alpha, theta, n, j, m):
    """Forward recursion of the new-species count over m posterior
    predictive draws, one draw at a time: the independent reference for
    `model._chain_steps`.  Yields (buffer, lo, hi) after 0, 1, ..., m
    draws, like the kernel: the unnormalised pmf buffer (length m + 1,
    updated in place) and its live band, trimmed at `model._DP_FLOOR` as
    it reads when the pass starts.  With n = j = 0 it is the prior chain
    with theta' = theta."""
    probs = np.zeros(m + 1)
    probs[0] = 1.0
    numer = theta + alpha * (j + np.arange(m + 1, dtype=float))
    floor = model._DP_FLOOR
    lo, hi = 0, 1
    yield probs, lo, hi
    for i in range(m):
        hi = min(hi + 1, m + 1)
        band = probs[lo:hi]
        p = numer[lo:hi] / (theta + n + i)
        np.minimum(p, 1.0, out=p)
        move = band * p
        band *= 1.0 - p
        band[1:] += move[:-1]
        while probs[lo] < floor:
            probs[lo] = 0.0
            lo += 1
        while probs[hi - 1] < floor:
            probs[hi - 1] = 0.0
            hi -= 1
        yield probs, lo, hi
