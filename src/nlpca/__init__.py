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

from .stiefel import (
    StiefelPoint,
    is_orthonormal,
    polar_project,
    sample_uniform_stiefel,
)
from .vmf import (
    VmfParam,
    vmf_log_density_unnorm,
    vmf_mode,
)
from .mrf import (
    InteractionWeights,
    compute_weights,
    default_bandwidth,
    default_strength,
    mrf_log_density_unnorm,
)
from .pca import (
    Dataset,
    PcaFit,
    avg_variance,
    center,
    pca_fit,
    pilot_tau2,
    reconstruct_linear,
)
from .gibbs import (
    HyperParams,
    ModelState,
    PosteriorSummary,
    default_hyperparams,
    init_state,
    iterate_sweeps,
    log_posterior_unnorm,
    reconstruct_nonlinear,
    run,
    sweep,
    update_latent,
    update_noise,
    update_transformation,
)
from .datasets import (
    IdxFormatError,
    RawImageSet,
    generate_sphere,
    load_idx_images,
    load_idx_labels,
    select_digit_subset,
    subsample_images,
    to_dataset,
)
from .metrics import (
    HistogramSpec,
    distance_to_unit_sphere,
    histogram,
    nn_mismatch_count,
    reconstruction_errors,
)
