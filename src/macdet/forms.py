"""The quadratic form q = v^H R^-1 v, v = H alpha and R = H D(alpha)
R_eta D(alpha)^H H^H + sigma_nu^2 I, behind the exponent statistic, the
conditional error probability and the detector weights R^-1 v: one
batched core (quadratic_forms) under iid sensing noise (noise=None,
R_eta = sigma_eta_sq I) or a SensingNoiseModel's R_eta, entered through
item for one (channel, gains) pair and exponent_statistic for a batch.
"""

from __future__ import annotations

import math

import numpy as np

from .model import NetworkParams, SensingNoiseModel
from .numerics import scaled_by_power_of_two

__all__ = [
    "shaped",
    "checked_channel",
    "item",
    "quadratic_forms",
    "exponent_statistic",
]


def shaped(what: str, x: np.ndarray, *shape: int) -> np.ndarray:
    """x itself, once its shape is checked against the network's."""
    if x.shape != shape:
        raise ValueError(f"{what} shape {x.shape} does not match {shape}")
    return x


def checked_channel(channel, params: NetworkParams) -> np.ndarray:
    """The entries of a ChannelMatrix or matrix-like, as complex128,
    checked to be the network's (N, L)."""
    h = np.asarray(channel, complex)
    return shaped("channel", h, params.num_antennas, params.num_sensors)


def item(channel, alpha, params: NetworkParams, noise: SensingNoiseModel | None):
    """The start of every single-item entry point: the channel entries h
    (N, L) and gains a (L,) checked against params, and the core's
    sensing argument for (params, noise): sigma_eta_sq under iid sensing
    noise (noise=None), the Cholesky factor S of R_eta under correlated
    noise.  alpha is a gain vector (its `values` are read) or a
    vector-like."""
    a = np.asarray(getattr(alpha, "values", alpha), dtype=np.complex128)
    gains = shaped("gain", a, params.num_sensors)
    sensing = params.sigma_eta_sq if noise is None else noise.scale_factor(params.num_sensors)
    return checked_channel(channel, params), gains, sensing


def quadratic_forms(h, a, sensing, sigma_nu_sq: float, solve: bool = False):
    """q = v^H R^-1 v with v = H a and R = H D(a) S S^H D(a)^H H^H +
    sigma_nu_sq I, for channels (..., N, L) broadcast against gains
    (..., L) and the sensing argument that item returns: the complex
    factor S, or sigma_eta_sq (S = sqrt(sigma_eta_sq) I) as a float or as
    a real array broadcast against the batch, one power per item.
    Returns (v, q), or (v, R^-1 v, q) when `solve`.

    R = sigma_nu_sq (B B^H + I) with B = H D(a) S / sqrt(sigma_nu_sq),
    or sqrt(sigma_eta_sq / sigma_nu_sq) H D(a) under iid noise.  The
    Cholesky factor of [[B B^H + I, v], [v^H, c]] holds y = L^-1 v in its
    last row, so q = |y|^2 / sigma_nu_sq with no solve (c = 2|v|^2 + 1 >
    |y|^2 keeps it positive definite); R^-1 v is one back substitution,
    L^-H y / sigma_nu_sq.  Every step runs item by item (per-item
    BLAS/LAPACK calls, elementwise along rows), so an item gets the same
    bits in any batch.  Where B B^H overflows, or swallows the identity
    so that Cholesky fails, _spectral_form answers exactly.

    Any non-finite input makes the bordered matrix non-finite, so the
    inputs are checked (ValueError) only where it is not finite or does
    not factor, and the Cholesky path pays nothing for the check.
    """
    n = h.shape[-2]
    iid = not (isinstance(sensing, np.ndarray) and sensing.dtype.kind == "c")
    per_item = getattr(sensing, "shape", ()) if iid else ()
    batch = np.broadcast_shapes(h.shape[:-2], a.shape[:-1], per_item)
    m = np.empty(batch + (n + 1, n + 1), np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        if iid:
            scale = np.sqrt(sensing / sigma_nu_sq)[..., np.newaxis]
            b = h * (a * scale)[..., np.newaxis, :]
        else:
            b = (h * a[..., np.newaxis, :]) @ (sensing / math.sqrt(sigma_nu_sq))
        np.matmul(b, b.conj().swapaxes(-1, -2), out=m[..., :n, :n])
        m.reshape(m.shape[:-2] + (-1,))[..., : n * (n + 2) : n + 2] += 1.0
        v = np.matmul(h, a[..., np.newaxis], out=m[..., :n, n:])[..., 0]
        m[..., n, :n] = v.conj()
        m[..., n, n] = 2.0 * np.sum(v.real**2 + v.imag**2, axis=-1) + 1.0
    try:
        factor = np.linalg.cholesky(m) if np.isfinite(m).all() else None
    except np.linalg.LinAlgError:
        factor = None
    if factor is None:
        if not all(np.isfinite(x).all() for x in (h, a, sensing)):
            raise ValueError("channel, gain and sensing-noise entries must be finite")
        if m.ndim == 2:
            return _spectral_form(h, a, sensing, sigma_nu_sq, solve)
        # item by item, so that each keeps the bits it gets alone
        hs = np.broadcast_to(h, batch + h.shape[-2:]).reshape((-1,) + h.shape[-2:])
        gains = np.broadcast_to(a, batch + a.shape[-1:]).reshape(-1, a.shape[-1])
        sensings = np.broadcast_to(sensing, batch).reshape(-1) if iid else [sensing] * len(hs)
        items = [quadratic_forms(*x, sigma_nu_sq, solve) for x in zip(hs, gains, sensings)]
        return tuple(np.reshape(part, batch + np.shape(part[0])) for part in zip(*items))
    y = factor[..., n, :n].conj()
    q = np.sum(y.real**2 + y.imag**2, axis=-1) / sigma_nu_sq
    if not solve:
        return v, q
    # L^H is upper triangular, so LU with partial pivoting leaves it
    # unchanged and the solve is one back substitution, run item by item
    upper = factor[..., :n, :n].conj().swapaxes(-1, -2)
    w = np.linalg.solve(upper, y[..., np.newaxis])[..., 0]
    return v, w / sigma_nu_sq, q


def _spectral_form(h, a, sensing, sigma_nu_sq, solve):
    """quadratic_forms for one item in the normalized spectral form: with
    p = |a|^2, u = a / sqrt(p), s = |S|_max (s^2 = sigma_eta_sq when iid)
    and B = H D(u) S / s = U diag(lambda)^(1/2) V^H, q = sum_i z_i / (s^2
    lambda_i + sigma_nu_sq / p), z = |U^H H u|^2, a form that neither
    overflows nor loses the sigma_nu_sq term.  H u lies in the range of B,
    and terms with lambda_i <= L eps lambda_max are rounding.  It runs on
    H 2^-j with sigma_nu_sq 4^-j (scaled_by_power_of_two), which leave q
    as it is and keep B B^H finite; R^-1 v is scaled back by 2^-j.
    Only q itself can still overflow (noise-free sensing on a huge
    channel, where q grows as |H|^2): ValueError says so."""
    (g,), (j,) = scaled_by_power_of_two(h[np.newaxis])
    sigma_nu_sq = np.ldexp(sigma_nu_sq, -2 * j)
    p = float(np.sum(a.real**2 + a.imag**2))
    root = math.sqrt(p)
    u = a / root
    b = g * u
    if np.iscomplexobj(sensing):
        top = float(np.abs(sensing).max())
        b, sensing = b @ (sensing / top), top * top
    lam, vecs = np.linalg.eigh(b @ b.conj().T)
    keep = lam > g.shape[1] * np.finfo(float).eps * lam[-1]
    c = vecs[:, keep].conj().T @ (g @ u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = 1.0 / (sensing * lam[keep] + sigma_nu_sq / p)
        q = np.sum((c.real**2 + c.imag**2) * k)
    if not np.isfinite(q):
        # the inputs are finite, so only q itself can be out of range
        raise ValueError("the quadratic form v^H R^-1 v overflows a double")
    return (h @ a, vecs[:, keep] @ (k * c) / np.ldexp(root, j), q) if solve else (h @ a, q)


def exponent_statistic(channels, gains, params: NetworkParams, sensing=None) -> np.ndarray:
    """The exponent statistic (theta^2 / (8 L)) alpha^H H^H R^-1 H alpha
    of each item of a batch: channels (..., N, L) broadcast against gains
    (..., L), each item with the bits it gets alone.  `sensing` is the
    core's sensing argument, by default params.sigma_eta_sq (iid sensing
    noise); an array of sigma_eta_sq broadcast against the batch gives
    each item its own."""
    h = np.asarray(channels, dtype=np.complex128)
    a = np.asarray(gains, dtype=np.complex128)
    dims = (params.num_antennas, params.num_sensors)
    if h.shape[-2:] != dims or a.shape[-1:] != dims[1:]:
        raise ValueError(f"channels {h.shape} and gains {a.shape} do not match {dims}")
    sensing = params.sigma_eta_sq if sensing is None else sensing
    q = quadratic_forms(h, a, sensing, params.sigma_nu_sq)[1]
    return params.theta**2 * q / (8.0 * params.num_sensors)
