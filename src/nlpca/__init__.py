"""Bayesian nonlinear PCA.

Each observation y_i gets its own orthonormal transformation V_i of a shared
low-dimensional latent space, y_i = V_i x_i + noise.  The V_i are tied
together by a Markov-random-field prior on the Stiefel manifold whose
Gaussian-kernel coupling strengths follow the latent positions, so nearby
latent points share similar frames.  Posterior inference is by Gibbs
sampling: each frame moves by one column-wise Gibbs pass from its current
value, which leaves its von Mises-Fisher full conditional exactly invariant,
and each latent is drawn from the paper's Gaussian conditional, which ignores
the dependence of the MRF weights on the latents.
"""

__version__ = "0.1.0"
