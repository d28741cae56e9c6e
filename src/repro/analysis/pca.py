"""PCA projection of weight-space trajectories (paper Figure 6).

The paper visualizes how each training regime moves through weight space by
projecting the sequence of weight snapshots onto the top principal
components: DropBack's trajectory stays close to the baseline's, while
magnitude pruning and variational dropout diverge.

No sklearn is available, so PCA is implemented directly.  For trajectory
matrices (a few hundred snapshots x possibly millions of weights) the
economical route is the Gram-matrix eigendecomposition: with ``X`` centered
``(n, d)`` and ``n << d``, eigenvectors of ``X Xᵀ / n`` give the projection
without forming the ``d x d`` covariance.

The products are plain float64 numpy on purpose: this is offline analysis
of saved snapshots, not training, so it stays off the float32 kernel
registry and each product carries a ``noqa[RPA007]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PCA", "project_trajectories", "trajectory_divergence"]


class PCA:
    """Principal component analysis via the Gram-matrix trick.

    Parameters
    ----------
    n_components:
        Number of leading components to keep.
    """

    def __init__(self, n_components: int = 3):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)
        self.mean_: np.ndarray | None = None
        self.components_: np.ndarray | None = None  # (k, d)
        self.explained_variance_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "PCA":
        """Fit on rows of ``X`` (n_samples, n_features)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        k = min(self.n_components, n, d)
        self.mean_ = X.mean(axis=0)
        Xc = X - self.mean_
        if n <= d:
            # Gram trick: eigvecs of (n, n) matrix, lift back to feature space.
            # repro: noqa[RPA007] offline float64 analysis of saved snapshots
            gram = Xc @ Xc.T
            vals, vecs = np.linalg.eigh(gram)
            order = np.argsort(vals)[::-1][:k]
            vals = np.maximum(vals[order], 0.0)
            vecs = vecs[:, order]
            # components = Xcᵀ v / sqrt(λ); guard zero eigenvalues.
            scale = np.sqrt(np.maximum(vals, 1e-30))
            comps = (Xc.T @ vecs) / scale  # repro: noqa[RPA007] offline float64 analysis
            self.components_ = comps.T
            self.explained_variance_ = vals / max(n - 1, 1)
        else:
            cov = (Xc.T @ Xc) / max(n - 1, 1)  # repro: noqa[RPA007] offline float64 analysis
            vals, vecs = np.linalg.eigh(cov)
            order = np.argsort(vals)[::-1][:k]
            self.components_ = vecs[:, order].T
            self.explained_variance_ = np.maximum(vals[order], 0.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Project rows of ``X`` onto the fitted components."""
        if self.components_ is None:
            raise RuntimeError("PCA not fitted")
        # repro: noqa[RPA007] offline float64 analysis of saved snapshots
        return (np.asarray(X, dtype=np.float64) - self.mean_) @ self.components_.T

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


def project_trajectories(
    trajectories: dict[str, np.ndarray], n_components: int = 3
) -> dict[str, np.ndarray]:
    """Jointly project several weight trajectories into a common PCA space.

    Fits PCA on the union of all snapshots (as the paper does, so regimes
    are comparable in one coordinate frame), then projects each trajectory.

    Parameters
    ----------
    trajectories:
        Mapping ``regime_name -> (n_snapshots, n_weights)``; all regimes
        must share the weight dimensionality.

    Returns
    -------
    Mapping ``regime_name -> (n_snapshots, n_components)`` projections.
    """
    if not trajectories:
        raise ValueError("no trajectories given")
    dims = {v.shape[1] for v in trajectories.values()}
    if len(dims) != 1:
        raise ValueError(f"trajectories have mismatched weight dims: {sorted(dims)}")
    stacked = np.concatenate(list(trajectories.values()), axis=0)
    pca = PCA(n_components=n_components).fit(stacked)
    return {name: pca.transform(traj) for name, traj in trajectories.items()}


def trajectory_divergence(ref: np.ndarray, other: np.ndarray) -> float:
    """Mean distance between two projected trajectories' endpoints-aligned paths.

    Trajectories are compared at matching fractional positions (resampled by
    nearest index), so regimes trained for different step counts remain
    comparable.  The paper's qualitative claim — DropBack stays near the
    baseline path, magnitude pruning and VD do not — becomes a number.
    """
    ref = np.asarray(ref, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    n = min(len(ref), len(other))
    if n < 2:
        raise ValueError("trajectories need at least 2 points")
    ri = np.linspace(0, len(ref) - 1, n).round().astype(int)
    oi = np.linspace(0, len(other) - 1, n).round().astype(int)
    return float(np.linalg.norm(ref[ri] - other[oi], axis=1).mean())
