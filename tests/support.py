"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import io
import json

import numpy as np
from scipy.linalg import expm

from becmirror import (
    ModelParams,
    NumericalError,
    PhysicalInput,
    SweepResult,
    ValidationError,
    emit,
)

TWO_PI = 2.0 * np.pi


def reference_input(**overrides) -> PhysicalInput:
    """Canonical experimental configuration used across the tests."""
    kwargs = dict(
        cavity_length=1e-3,
        laser_wavelength=1000e-9,
        laser_power=50e-3,
        mirror_mass=4e-12,
        mirror_frequency=TWO_PI * 1e6,
        mirror_damping=TWO_PI * 100.0,
        temperature=10e-6,
        finesse=1e4,
        bec_coupling=100.0,
        bec_frequency=TWO_PI * 1e6,
        effective_detuning=TWO_PI * 2e6,
    )
    kwargs.update(overrides)
    return PhysicalInput(**kwargs)


def mild_model(**overrides) -> ModelParams:
    """Stable, well-conditioned model in units of the mirror frequency."""
    kwargs = dict(
        om_m=1.0,
        om_a=1.0,
        gamma=0.1,
        kappa=0.8,
        detuning=1.2,
        G_mc=0.45,
        G_ac=0.35,
        n_th=0.2,
    )
    kwargs.update(overrides)
    return ModelParams(**kwargs)


def entangled_model(**overrides) -> ModelParams:
    """Stable model whose reduced mirror-condensate state is entangled.

    Large detuning, a narrow cavity and a cold, moderately damped mirror put
    the pair into the two-mode-squeezed regime of the eliminated dynamics
    (log-negativity 0.096).  The point is also cheap to simulate: it
    decorrelates in a few tens of time units.
    """
    kwargs = dict(
        om_m=1.0,
        om_a=1.0,
        gamma=0.33,
        kappa=0.4,
        detuning=9.3,
        G_mc=2.1,
        G_ac=2.15,
        n_th=0.0083,
    )
    kwargs.update(overrides)
    return ModelParams(**kwargs)


def hand_placed_drift(p) -> np.ndarray:
    """Drift matrix with each of its 14 entries placed by hand, from the
    equations of motion::

        dq_m/dt = -gamma q_m + om_m p_m
        dp_m/dt = -om_m q_m - gamma p_m + G_mc q_c
        dq_a/dt =  om_a p_a
        dp_a/dt = -om_a q_a - G_ac q_c
        dq_c/dt = -kappa q_c + detuning p_c
        dp_c/dt =  G_mc q_m - G_ac q_a - detuning q_c - kappa p_c

    The byte-level oracle of :func:`becmirror.build_drift`, signed zeros
    included; ``p`` is a ModelParams or a ModelBatch.
    """
    m = np.zeros(np.shape(p.om_m) + (6, 6))
    m[..., 0, 0] = -p.gamma
    m[..., 0, 1] = p.om_m
    m[..., 1, 0] = -p.om_m
    m[..., 1, 1] = -p.gamma
    m[..., 1, 4] = p.G_mc
    m[..., 2, 3] = p.om_a
    m[..., 3, 2] = -p.om_a
    m[..., 3, 4] = -p.G_ac
    m[..., 4, 4] = -p.kappa
    m[..., 4, 5] = p.detuning
    m[..., 5, 0] = p.G_mc
    m[..., 5, 2] = -p.G_ac
    m[..., 5, 4] = -p.detuning
    m[..., 5, 5] = -p.kappa
    return m


def hand_placed_diffusion(p) -> np.ndarray:
    """Diffusion matrix with the mirror's gamma (2 n_th + 1) and the cavity's
    kappa (2 n_c + 1) placed by hand: the byte-level oracle of
    :func:`becmirror.build_diffusion`."""
    with np.errstate(over="ignore", invalid="ignore"):
        mech = p.gamma * (2.0 * p.n_th + 1.0)
        cav = p.kappa * (2.0 * p.n_c + 1.0)
    d = np.zeros(np.shape(p.om_m) + (6, 6))
    d[..., 0, 0] = d[..., 1, 1] = mech
    d[..., 4, 4] = d[..., 5, 5] = cav
    return d


def random_stable_system(
    rng: np.random.Generator, dim: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Random strictly Hurwitz drift with a random PSD diffusion matrix."""
    drift = rng.normal(size=(dim, dim))
    abscissa = float(np.max(np.linalg.eigvals(drift).real))
    drift -= (abscissa + rng.uniform(0.3, 1.0)) * np.eye(dim)
    root = rng.normal(size=(dim, dim))
    diffusion = root @ root.T / dim
    return drift, diffusion


def symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def random_symplectic(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Random symplectic matrix exp(Omega H) with symmetric generator H."""
    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.T) * 0.4
    return expm(symplectic_form(n_modes) @ h)


def random_physical_covariance(
    rng: np.random.Generator, n_modes: int = 2
) -> np.ndarray:
    """Random covariance of a physical Gaussian state (vacuum = I/2).

    Built as S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T with symplectic S and
    symplectic eigenvalues nu_k >= 1/2, which is the general form.
    """
    nus = rng.uniform(0.5, 3.0, size=n_modes)
    diag = np.repeat(nus, 2)
    s = random_symplectic(rng, n_modes)
    return s @ np.diag(diag) @ s.T


def two_mode_squeezed_covariance(r: float) -> np.ndarray:
    """Standard two-mode squeezed vacuum covariance, vacuum = I/2."""
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    sz = np.diag([1.0, -1.0])
    top = np.hstack([ch * np.eye(2), sh * sz])
    bottom = np.hstack([sh * sz, ch * np.eye(2)])
    return 0.5 * np.vstack([top, bottom])


def pt_symplectic_oracle(cov: np.ndarray) -> tuple[float, float]:
    """Partial-transpose symplectic eigenvalues via a generic eigensolver.

    Partial transposition of the second mode flips its momentum; the
    symplectic spectrum is |eig(i Omega V~)|, independent of the closed form
    under test.
    """
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    tilde = flip @ cov @ flip
    eigs = np.linalg.eigvals(1j * symplectic_form(2) @ tilde)
    mags = np.sort(np.abs(eigs))
    return float(mags[0]), float(mags[-1])


def routh_hurwitz_verdict(coeffs: np.ndarray) -> bool | None:
    """Routh-Hurwitz stability of a polynomial (highest power first).

    Returns None when a first-column pivot is too small to classify.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs[0] < 0:
        coeffs = -coeffs
    n = len(coeffs)
    rows = [coeffs[0::2].copy()]
    second = coeffs[1::2].copy()
    if len(second) < len(rows[0]):
        second = np.append(second, 0.0)
    rows.append(second)
    scale = np.max(np.abs(coeffs))
    for _ in range(n - 2):
        prev, cur = rows[-2], rows[-1]
        if abs(cur[0]) < 1e-12 * scale:
            return None
        width = len(prev)
        new = np.zeros(width)
        for k in range(width - 1):
            a = prev[k + 1] if k + 1 < len(prev) else 0.0
            b = cur[k + 1] if k + 1 < len(cur) else 0.0
            new[k] = (cur[0] * a - prev[0] * b) / cur[0]
        rows.append(new)
    column = np.array([row[0] for row in rows[: n]])
    if np.any(np.abs(column) < 1e-12 * scale):
        return None
    return bool(np.all(column > 0))


def integrate_covariance(
    drift: np.ndarray,
    diffusion: np.ndarray,
    cov0: np.ndarray | None,
    horizon: float,
    dt: float | None = None,
) -> np.ndarray:
    """Integrate dV/dt = M V + V M^T + D to ``horizon`` with fixed-step RK4.

    The classical fourth-order Runge-Kutta oracle of the algebraic Lyapunov
    solution: it shares no code with the solver.  The flow is linear in the
    augmented state x = (vec V, 1): dx/dt = A x with the (n^2+1)-square
    A = [[I (x) M + M (x) I, vec D], [0, 0]].  One RK4 step of size h is then
    exactly x -> P(hA) x with P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so the
    whole steps are applied as P(hA)^N by repeated squaring, and the
    remainder of the horizon as one shorter step.

    Parameters
    ----------
    drift, diffusion : numpy.ndarray
        System matrices as in :func:`becmirror.solve_steady_covariance`.
    cov0 : numpy.ndarray or None
        Initial covariance; ``None`` starts from zero.
    horizon : float
        Integration time; for a stable drift with spectral abscissa a,
        horizons of at least 20/|a| reach the fixed point to within
        O(exp(-2 |a| horizon)).
    dt : float, optional
        Step size, defaulting to 0.01/|a|.  The default suits systems whose
        eigenvalue magnitudes do not spread far beyond |a|; stiff systems
        need dt below roughly 2.8/max|eigenvalue| for RK4 stability.

    Raises
    ------
    NumericalError
        On norm blow-up, which indicates an unstable step size; the message
        advises a smaller dt.
    """
    drift = np.asarray(drift, dtype=float)
    diffusion = np.asarray(diffusion, dtype=float)
    if horizon <= 0:
        raise ValidationError(f"horizon must be > 0, got {horizon!r}")
    if dt is None:
        abscissa = float(np.max(np.linalg.eigvals(drift).real))
        if abscissa >= 0:
            raise ValidationError(
                "dt default requires a stable drift matrix; pass dt explicitly"
            )
        dt = 0.01 / abs(abscissa)
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    cov = np.zeros_like(drift) if cov0 is None else np.array(cov0, dtype=float)
    cov = 0.5 * (cov + cov.T)
    scale = max(np.linalg.norm(cov), np.linalg.norm(diffusion), 1.0)
    blowup = 1e12 * scale
    steps, remainder = divmod(horizon, dt)
    steps = int(steps)

    dim = drift.shape[0]
    size = dim * dim + 1
    eye = np.eye(dim)
    generator = np.zeros((size, size))
    generator[:-1, :-1] = np.kron(eye, drift) + np.kron(drift, eye)
    generator[:-1, -1] = (0.5 * (diffusion + diffusion.T)).ravel()

    def rk4_map(h: float) -> np.ndarray:
        # P(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4))).
        z = h * generator
        out = np.eye(size)
        for k in (4.0, 3.0, 2.0, 1.0):
            out = np.eye(size) + (z @ out) / k
        return out

    state = np.append(cov.ravel(), 1.0)
    squarings = steps.bit_length()
    # An unstable step overflows the powers to inf and then NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        power = rk4_map(dt)
        while steps:
            if steps & 1:
                state = power @ state
            steps >>= 1
            if steps:
                power = power @ power
        if remainder > 0.0:
            state = rk4_map(remainder) @ state
        cov = state[:-1].reshape(dim, dim)
        if not np.all(np.isfinite(cov)) or not np.linalg.norm(cov) < blowup:
            raise NumericalError(
                f"covariance norm blew up at dt={dt:.3e}; use a smaller dt"
            )
    # An entry that vanishes exactly, as stepping keeps it, comes out of the
    # squarings as round-off of a few ulps of the largest entry per squaring.
    cov = 0.5 * (cov + cov.T)
    cov[np.abs(cov) <= 4.0 * squarings * np.finfo(float).eps * np.max(np.abs(cov))] = 0.0
    return cov


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emitted(result: SweepResult, fmt: str = "csv") -> bytes:
    """The document :func:`becmirror.emit` writes for ``result``, as bytes."""
    stream = io.BytesIO()
    emit(result, stream, fmt)
    return stream.getvalue()


def reference_emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Row-wise oracle for :func:`becmirror.emit`: every cell is formatted on its
    own, and the JSON document is one ``json.dumps`` call."""
    if fmt == "csv":
        lines = [
            "# becmirror sweep",
            f"# schema_version={result.provenance['schema_version']}",
            f"# config_hash={result.provenance['config_hash']}",
            f"# constants_version={result.provenance['constants_version']}",
            f"# package_version={result.provenance['package_version']}",
            ",".join(result.axis_names + result.columns),
        ]
        for row in result.rows:
            cells = [repr(v) for v in row.axis_values]
            cells += [_format_cell(row.cells[c]) for c in result.columns]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        doc = {
            "provenance": result.provenance,
            "axes": list(result.axis_names),
            "columns": list(result.columns),
            "rows": [
                {
                    "axis_values": list(row.axis_values),
                    **{c: row.cells[c] for c in result.columns},
                }
                for row in result.rows
            ],
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    raise ValidationError(f"unknown format {fmt!r}; use csv or json")


def _parse_cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_sweep(blob: bytes, fmt: str = "csv") -> dict:
    """Reader of :func:`becmirror.emit`'s documents, the oracle of its round trips.

    The CSV header's provenance values are read as strings, except
    ``schema_version``, an integer, as in the JSON document.  A CSV cell
    reads as None, a bool, a float or its text.
    """
    if fmt == "json":
        return json.loads(blob.decode())
    provenance: dict = {}
    header: list[str] | None = None
    rows = []
    for line in blob.decode().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                provenance[key] = int(value) if key == "schema_version" else value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, map(_parse_cell, line.split(",")))))
    return {"provenance": provenance, "columns": header, "rows": rows}
