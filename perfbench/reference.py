"""Correctness gate: independent reference outputs for every workload.

For any seed, the expected CSV rows are recomputed here from the
definitions, vectorised over replicates with numpy and without fickit:
the same per-replicate RNG streams, but Fourier fits done in
coefficient space, the landscape through the mean of the simulations,
and the oracle families through their closed-form MLEs. For the seeds
under ``reference/`` the CSVs written at the commit that added the
benchmark are checked too. A row is one operation; it fails when any
field differs beyond ``RTOL``/``ATOL``, or a string field differs.
Extra columns in the program's CSVs are ignored.
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path

import numpy as np

RTOL = 1e-8
ATOL = 1e-9
LOG_2PI = math.log(2.0 * math.pi)
STORED = Path(__file__).resolve().parent / "reference"


def derive_seed(seed, *tags) -> int:
    ss = np.random.SeedSequence([int(seed) % 2**63, *[int(t) for t in tags]])
    return int(ss.generate_state(1, np.uint64)[0])


def stream(seed, r) -> np.random.Generator:
    return np.random.default_rng([int(seed) % 2**63, int(r)])


def _normal_pairs(seed, replicates, n):
    """(R, 2, n) standard normals: Z then Y noise of each replicate."""
    out = np.empty((replicates, 2, n))
    for r in range(replicates):
        rng = stream(seed, r)
        out[r, 0] = rng.standard_normal(n)
        out[r, 1] = rng.standard_normal(n)
    return out


def _summary(z_info, y_info_z, y_info, z_info_y):
    """Mean and standard error of the symmetrised generalisation gap."""
    vals = 0.5 * ((y_info_z - z_info) + (z_info_y - y_info))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


# -- sweep ------------------------------------------------------------------

def _coeffs(x):
    """Orthonormal real Fourier coefficients along the last axis:
    constant, cosines, Nyquist, sines."""
    r = np.fft.rfft(x, norm="ortho")
    s = math.sqrt(2.0)
    return np.concatenate([r[..., :1].real, s * r[..., 1:-1].real,
                           r[..., -1:].real, s * r[..., 1:-1].imag], axis=-1)


def _kept(c, algorithm, n):
    """Mask of the coefficients a level-n fit keeps."""
    N = c.shape[-1]
    if algorithm == "sequential":
        pos = np.arange(N)
        freq = np.where(pos <= N // 2, pos, pos - N // 2)
        return np.broadcast_to(freq <= n, c.shape)
    mask = np.zeros(c.shape, dtype=bool)
    mask[..., 0] = True
    if n:
        # continuous draws: magnitude ties have probability zero
        top = np.argpartition(-np.abs(c[..., 1:]), n - 1, axis=-1)[..., :n]
        np.put_along_axis(mask[..., 1:], top, True, axis=-1)
    return mask


def _fourier_complexity(gen, noise, algorithm, n):
    """Complexity of the level-n fit under a generator with
    coefficients ``gen``; ``noise`` holds the replicates' noise
    coefficients. Information up to the constant N/2 log 2 pi."""
    cz = gen + noise[:, 0]
    cy = gen + noise[:, 1]
    fz = np.where(_kept(cz, algorithm, n), cz, 0.0)
    fy = np.where(_kept(cy, algorithm, n), cy, 0.0)
    return _summary(0.5 * ((cz - fz) ** 2).sum(-1),
                    0.5 * ((cy - fz) ** 2).sum(-1),
                    0.5 * ((cy - fy) ** 2).sum(-1),
                    0.5 * ((cz - fy) ** 2).sum(-1))


def sweep_outputs(cfg):
    N, R = cfg["sample_size"], cfg["replicates"]
    seed = cfg["seed"]
    j = np.arange(1, N + 1)
    mu = np.sqrt(120.0 + 100.0 * np.sin(2.0 * np.pi * j / N + np.pi / 6.0))
    x = mu + stream(derive_seed(seed, 0), 0).standard_normal(N)
    cx, ct = _coeffs(x), _coeffs(mu)
    threshold = 2.0 * math.log(N)
    rows, summary = [], []
    for a_idx, algorithm in enumerate(cfg["algorithms"]):
        fic_noise = _coeffs(_normal_pairs(derive_seed(seed, 1, a_idx), R, N))
        true_noise = _coeffs(_normal_pairs(derive_seed(seed, 2, a_idx), R, N))
        best = None
        for n in range(cfg["n_min"], cfg["n_max"] + 1):
            kept = _kept(cx, algorithm, n)
            h_fit = 0.5 * N * LOG_2PI + 0.5 * (cx[~kept] ** 2).sum()
            k_aic = 2 * n + 1 if algorithm == "sequential" else n + 1
            k_bic = 0.5 * k_aic * math.log(N)
            k_fic, k_fic_se = _fourier_complexity(
                np.where(kept, cx, 0.0), fic_noise, algorithm, n)
            k_true = k_true_se = None
            if cfg["truth_known"]:
                k_true, k_true_se = _fourier_complexity(
                    ct, true_noise, algorithm, n)
            gen = ct if cfg["truth_known"] else cx
            if algorithm == "greedy":
                sel = _kept(gen, "greedy", n).copy()
                sel[0] = False
                k_piece = 1.0 + sum(1.0 if c * c >= threshold else threshold
                                    for c in gen[sel])
            else:
                k_piece = float(2 * n + 1)
            fic = h_fit + k_fic
            rows.append({"algorithm": algorithm, "n": n, "h_fit": h_fit,
                         "K_aic": k_aic, "K_bic": k_bic, "K_fic": k_fic,
                         "K_fic_stderr": k_fic_se, "K_true": k_true,
                         "K_true_stderr": k_true_se, "K_piecewise": k_piece,
                         "fic": fic, "aic": h_fit + k_aic,
                         "bic": h_fit + k_bic, "K_aic_naive": 2 * n + 1,
                         "error": ""})
            if best is None or fic < best[1]:
                best = (n, fic)
        summary.append({"algorithm": algorithm, "best_n": best[0],
                        "fic_min": best[1]})
    return {"sweep.csv": rows, "summary.csv": summary}


# -- landscape --------------------------------------------------------------

def landscape_outputs(cfg):
    if cfg["landscape_family"] != "sine_singular":
        raise ValueError("reference covers the sine_singular landscape only")
    N, R, seed = cfg["sample_size"], cfg["replicates"], cfg["seed"]
    t = np.arange(N, dtype=float)
    amplitude, omega = cfg["landscape_truth"]
    mu = amplitude * np.sin(omega * t)
    x = mu + stream(derive_seed(seed, 0), 0).standard_normal(N)
    sim_seed = derive_seed(seed, 3)
    ybar = np.mean([mu + stream(sim_seed, r).standard_normal(N)
                    for r in range(R)], axis=0)
    a1 = np.linspace(*cfg["grid_axis1"])
    a2 = np.linspace(*cfg["grid_axis2"])
    means = a1[:, None, None] * np.sin(np.outer(a2, t))[None]   # (n1, n2, N)
    d = (0.5 * ((x - means) ** 2).sum(-1)
         - 0.5 * ((x - mu) ** 2).sum())
    # mean over simulations of the loss difference, via their mean
    D = (0.5 * ((means - mu) ** 2).sum(-1)
         - ((means - mu) * (ybar - mu)).sum(-1))
    surface = [{"theta1": v1, "theta2": v2, "d": d[i, j], "D": D[i, j]}
               for i, v1 in enumerate(a1) for j, v2 in enumerate(a2)]
    profile = [{"theta2": v2, "d_profile": dp, "D_profile": Dp}
               for v2, dp, Dp in zip(a2, d.min(axis=0), D.min(axis=0))]
    return {"landscape.csv": surface, "profile.csv": profile}


# -- oracle suite -----------------------------------------------------------

def _gaussian_blocks(n, k, noise):
    sizes = np.full(k, n // k)
    sizes[:n % k] += 1
    bounds = np.cumsum(sizes)[:-1]
    z, y = noise[:, 0], noise[:, 1]

    def fitted(data):
        return np.concatenate(
            [np.repeat(b.mean(axis=1, keepdims=True), s, axis=1)
             for b, s in zip(np.split(data, bounds, axis=1), sizes)], axis=1)

    def info(data, mean):
        return 0.5 * n * LOG_2PI + 0.5 * ((data - mean) ** 2).sum(-1)

    fz, fy = fitted(z), fitted(y)
    return _summary(info(z, fz), info(y, fz), info(y, fy), info(z, fy))


def _exponential(n, seed, R):
    draws = np.empty((R, 2, n))
    for r in range(R):
        rng = stream(seed, r)
        draws[r, 0] = rng.exponential(1.0, n)
        draws[r, 1] = rng.exponential(1.0, n)
    z, y = draws[:, 0], draws[:, 1]
    rz, ry = n / z.sum(-1), n / y.sum(-1)

    def info(data, rate):
        return -(n * np.log(rate) - rate * data.sum(-1))

    return _summary(info(z, rz), info(y, rz), info(y, ry), info(z, ry))


def _regression(p, n, seed, R):
    t = np.linspace(0.0, 1.0, n)
    X = np.column_stack([t ** q for q in range(p)])
    noise = _normal_pairs(seed, R, n)
    z = X @ np.ones(p) + 1.0 * noise[:, 0]
    y = X @ np.ones(p) + 1.0 * noise[:, 1]
    hat = X @ np.linalg.pinv(X)

    def fit(data):
        mean = data @ hat.T
        return mean, ((data - mean) ** 2).sum(-1) / n

    def info(data, fitted):
        mean, var = fitted
        return (0.5 * n * (LOG_2PI + np.log(var))
                + 0.5 * ((data - mean) ** 2).sum(-1) / var)

    fz, fy = fit(z), fit(y)
    return _summary(info(z, fz), info(y, fz), info(y, fy), info(z, fy))


def _max_chi2(m, replicates, seed):
    rng = np.random.default_rng([int(seed) % 2**63])
    chunk = max(1, 1_000_000 // m)
    maxima = np.concatenate([
        rng.chisquare(1, (min(chunk, replicates - i), m)).max(axis=1)
        for i in range(0, replicates, chunk)])
    return maxima.mean(), maxima.std(ddof=1) / math.sqrt(replicates)


def oracle_outputs(cfg):
    R, seed = cfg["replicates"], cfg["seed"]
    rows = []

    def add(name, expected, got, se, ok):
        rows.append({"check": name, "expected": expected, "got": got,
                     "stderr": se, "pass": "true" if ok else "false"})

    for i, (k, n) in enumerate([(1, 10), (2, 10), (3, 12), (5, 100)]):
        got, se = _gaussian_blocks(
            n, k, _normal_pairs(derive_seed(seed, 30, i), R, n))
        add(f"gaussian_mean_K{k}_N{n}", float(k), got, se,
            abs(got - k) <= 3 * se)
    for i, n in enumerate([2, 10, 100]):
        got, se = _exponential(n, derive_seed(seed, 31, i), R)
        expected = n / (n - 1)
        add(f"exponential_N{n}", expected, got, se,
            abs(got - expected) <= 3 * se)
    for i, (p, n) in enumerate([(1, 10), (2, 10), (3, 30)]):
        got, se = _regression(p, n, derive_seed(seed, 32, i), R)
        K = p + 1
        expected = K * n / (n - K - 1)
        add(f"linear_regression_K{K}_N{n}", expected, got, se,
            abs(got - expected) <= 3 * se)
    for i, (m, rel) in enumerate([(20, 0.15), (1000, 0.05)]):
        got, se = _max_chi2(m, max(R, 20000), derive_seed(seed, 33, i))
        formula = 2.0 * math.log(m) - math.log(math.log(m))
        add(f"evt_m{m}_nu1", formula, got, se,
            abs(formula - got) / got <= rel)
    return {"oracle.csv": rows}


EXPECTED = {"cmd_sweep": sweep_outputs, "cmd_landscape": landscape_outputs,
            "cmd_oracle_suite": oracle_outputs}


# -- comparison -------------------------------------------------------------

def read_csv(text):
    """Rows of a fickit CSV as dicts of strings; metadata lines skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _field_ok(got, want):
    if got is None:
        return False
    if isinstance(want, str):
        return got == want
    if want is None:
        return got == ""
    try:
        value = float(got)
    except ValueError:
        return False
    return abs(value - float(want)) <= ATOL + RTOL * abs(float(want))


def mismatched_rows(text, expected_rows):
    """Number of expected rows that are missing or differ in ``text``."""
    try:
        rows = read_csv(text)
    except IndexError:
        return len(expected_rows)
    bad = abs(len(rows) - len(expected_rows))
    for got, want in zip(rows, expected_rows):
        if not all(_field_ok(got.get(k), v) for k, v in want.items()):
            bad += 1
    return bad


def stored_rows(seed, workload, csv_name, replicates):
    """Rows written at the commit that added the benchmark, or None."""
    path = STORED / f"seed{seed}_r{replicates}" / workload / f"{csv_name}.gz"
    if not path.exists():
        return None
    text = gzip.decompress(path.read_bytes()).decode("utf-8")
    return [{k: _stored_value(v) for k, v in row.items()}
            for row in read_csv(text)]


def _stored_value(field):
    try:
        return float(field)
    except ValueError:
        return None if field == "" else field
