"""Dark-signal PUF watermarking for simulated SPAD imagers.

Pipeline: simulate a chip, enroll its relative dark count maps, derive an
image-specific challenge from intensity-band features, answer it from the
enrolled maps, and embed challenge + response + fingerprint in the host
image's LSB plane. The verifier recomputes the challenge from image content
to catch edits and matches the fingerprint against an enrollment database
to identify the source.
"""

from .imager import (AcquisitionConfig, ChipModel, ChipParams, acquire_dcm,
                     dcr_map, load_chip, new_chip, save_chip)
from .puf import (EnrollmentDB, EnrollmentRecord, Fingerprint, enroll, fingerprint,
                  golden_acquisition, load_enrollment, load_enrollment_db,
                  puf_query, rdcm, save_enrollment)
from .features import FeatureConfig, challenge_matrix, downsample, feature_images
from .codec import (PgmError, Watermark, WatermarkLayout, assemble,
                    disassemble, embed_lsb, extract_lsb, read_pgm,
                    save_watermark, write_pgm)
from .verifier import (AUTHENTIC, TAMPERED, UNKNOWN_SOURCE, Thresholds,
                       VerifyReport, add_gaussian_noise, generate_watermark,
                       hamming_frac, identify_source, image_challenge, psnr,
                       robustness_sweep, sensitivity, verify)

__version__ = "0.1.0"
