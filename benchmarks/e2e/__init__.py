"""End-to-end benchmark of the BayesLSH serving stack (see README.md here)."""
