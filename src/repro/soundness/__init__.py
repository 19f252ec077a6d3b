"""Independent soundness layer: exact-arithmetic certificate checking,
differential oracles, and property-based generators.

Import discipline: ``repro.verifier`` imports the capture dataclasses
from :mod:`repro.soundness.certificate`, so this package's eager exports
must never import ``repro.verifier`` back.  The differential oracles
(:mod:`repro.soundness.oracles`) *do* import the verifiers — import them
explicitly, never from here.
"""

from repro.soundness.certificate import (
    CertificateBundle,
    ConditionCertificate,
    MultiplierCertificate,
)
from repro.soundness.checker import (
    SOUNDNESS_SCHEMA_VERSION,
    ConditionSoundness,
    SoundnessError,
    SoundnessReport,
    barrier_fingerprint,
    check_certificate,
    check_verification,
)
from repro.soundness.serialize import (
    bundle_from_dict,
    bundle_to_dict,
    poly_from_dict,
    poly_to_dict,
)
from repro.soundness.rational import (
    DEFAULT_DELTA_LADDER,
    RationalPolynomial,
    basis_square_bound,
    find_psd_shift,
    gram_polynomial,
    ldlt_psd,
    rational_closed_loop,
    rational_lie_derivative,
    rationalize_matrix,
)

__all__ = [
    "CertificateBundle",
    "ConditionCertificate",
    "MultiplierCertificate",
    "SOUNDNESS_SCHEMA_VERSION",
    "ConditionSoundness",
    "SoundnessError",
    "SoundnessReport",
    "barrier_fingerprint",
    "bundle_from_dict",
    "bundle_to_dict",
    "check_certificate",
    "check_verification",
    "poly_from_dict",
    "poly_to_dict",
    "DEFAULT_DELTA_LADDER",
    "RationalPolynomial",
    "basis_square_bound",
    "find_psd_shift",
    "gram_polynomial",
    "ldlt_psd",
    "rational_closed_loop",
    "rational_lie_derivative",
    "rationalize_matrix",
]
