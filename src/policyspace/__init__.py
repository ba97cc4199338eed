"""policyspace: train one generator that maps a latent sphere to a whole
population of agent policies, then adapt to environment changes by searching
the latent space instead of retraining."""

__version__ = "0.1.0"

from .diversity import DiversityConfig, diversity_loss, estimate_for_generator
from .generator import PolicyGenerator, sample_latent, sample_latents
from .latent_search import SearchConfig, mutate, optimize_latents
from .training import Trainer, TrainerConfig, compute_gae, ppo_objective

__all__ = [
    "PolicyGenerator", "sample_latent", "sample_latents",
    "DiversityConfig", "diversity_loss", "estimate_for_generator",
    "Trainer", "TrainerConfig", "compute_gae", "ppo_objective",
    "SearchConfig", "mutate", "optimize_latents",
    "__version__",
]
