"""Test-only helpers: oracles that the package itself never calls."""

import numpy as np


def eval_and_derivative(p, xi: float, dx: float) -> tuple:
    """Value and physical derivative (reference derivative / dx) of the
    ``poly.PolySpec`` p at xi."""
    return p(xi), p.derivative()(xi) / dx


def eigen_split(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J = J+ + J- via eigendecomposition with eigenvalues clipped at 0."""
    lam, R = np.linalg.eig(J)
    Rinv = np.linalg.inv(R)
    Jp = (R * np.maximum(lam, 0.0)) @ Rinv
    Jm = (R * np.minimum(lam, 0.0)) @ Rinv
    return Jp.real, Jm.real
