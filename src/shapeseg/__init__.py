"""Shape-prior level-set segmentation: PCA priors over signed distance
functions, a four-term variational energy, and projected gradient descent."""

__version__ = "0.1.0"

__all__ = ["__version__"]
