"""Location-mixture Gaussian models and high-dimensional CLT verification.

The package provides:

* exact samplers for the products ``l'S xbar`` and ``l'S^{-1} xbar`` of
  the sample covariance (or its inverse) with the sample mean, via their
  finite-sample stochastic representations (:mod:`locmix.products`),
* the matching large-dimension normal approximations and standardization
  (:mod:`locmix.asymptotics`),
* a brute-force data-matrix oracle (:mod:`locmix.model`),
* the closed-form matrix density under half-normal mixing
  (:mod:`locmix.density`),
* a reproducible Monte Carlo harness with Epanechnikov KDE scoring
  (:mod:`locmix.harness`, :mod:`locmix.kde`), wrapped by the ``locmix``
  command-line tool (:mod:`locmix.cli`).
"""

from .asymptotics import (
    AsymptoticParams,
    CorollaryParams,
    asymptotic_params,
    corollary_params,
    sigma2_nu,
    sigma2_tilde_nu,
    standardize,
)
from .distributions import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    NuDistribution,
    TruncatedNormalAbs,
    nu_cov,
    nu_mean,
    sample_chi_squared,
    sample_noncentral_chi_squared,
    sample_noncentral_f,
    sample_nu,
    sample_std_normal_vec,
)
from .harness import (
    ExperimentConfig,
    default_nu,
    generate_paper_model,
    run_experiment,
    summarize_experiment,
)
from .kde import (
    GofReport,
    epanechnikov_kde,
    ks_statistic,
    lscv_bandwidth,
    summarize,
)
from .model import (
    AssumptionReport,
    ModelSpec,
    SampleMoments,
    SigmaDecomposition,
    decompose_sigma,
    mu_nu,
    sample_data_matrix,
    sample_mean_and_cov,
    verify_assumptions,
)
from .products import (
    ProductKind,
    QuadraticCache,
    precompute_quadratics,
    sample_cov_product,
    sample_precision_product,
)
from .density import (
    DensityWorkspace,
    build_workspace,
    log_density,
    log_density_mixture_quad,
    mvn_orthant_cdf,
)
from .rng import RngStream

__version__ = "0.1.0"
