"""Contraction geometry of coarse-graining channels on quantum spin systems.

The package computes how collective fluctuation observables contract under
channels that mix depolarizing noise, permutation averaging and lattice
diffusion: dense finite-size spectra, exact closed forms on symmetric
sectors, their bosonic large-n limits, and ring-lattice regularizations of
smoothed fluctuation fields.

Every name is reached through its module, for example
`from flab.geometry import contraction_spectrum`.
"""

__version__ = "0.1.0"
