import json
import tracemalloc
import warnings
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from spadmark import EnrollmentDB, enroll, golden_acquisition, new_chip

# Hypothesis reports a failing @given test through hypothesis.extra._patching,
# which imports libcst, which raises a DeprecationWarning for
# mypy_extensions.TypedDict. With warnings as errors, that import inside
# the report hook is an INTERNALERROR that ends the whole session. Import it
# once here, ignoring DeprecationWarning for this import only; without
# libcst the report hook skips it anyway.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# Hypothesis settings of the property tests. Parser fuzzing: each file
# parser must return or raise ValueError, for any bytes. Numbers stay small:
# new_chip allocates array_dim^2 arrays and raises 10 to dcr_sigma-scaled
# powers, so huge values would exercise memory and float overflow rather
# than parsing.
FUZZ = settings(max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 80) | st.floats(-8, 8) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def mutated(valid: dict):
    """``valid`` with each key kept, dropped or given another JSON value
    (nested objects mutated the same way), plus maybe an unknown key."""
    def variants(value):
        return (mutated(value) if isinstance(value, dict) else st.just(value)) | JSON_VALUES
    return st.fixed_dictionaries(
        {}, optional={**{key: variants(value) for key, value in valid.items()},
                      "unknown": JSON_VALUES})


def fuzzed_json(valid: dict):
    """File bytes: ``valid`` or a mutation of it as JSON, possibly cut
    short, or arbitrary bytes."""
    text = (st.just(valid) | mutated(valid)).map(lambda payload: json.dumps(payload).encode())
    return (text | st.tuples(text, st.integers(0, 300)).map(lambda cut: cut[0][:cut[1]])
            | st.binary(max_size=40))


def traced_peak_bytes(fn) -> int:
    """Peak traced memory (bytes) while ``fn()`` runs, above what was traced
    before it. numpy reports its buffers to tracemalloc, so this counts the
    arrays ``fn`` allocates, deterministically, unlike a timing."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


def make_image(seed: int = 0, size: int = 512) -> np.ndarray:
    """Deterministic synthetic host: gradient plus soft blobs plus texture.

    Values stay in [5, 210] so a +32 band-shift edit never clips.
    """
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size]
    img = 30 + 0.25 * x + 0.15 * y
    for _ in range(12):
        cy, cx = rng.integers(0, size, 2)
        r = int(rng.integers(25, 80))
        amp = float(rng.uniform(-60, 60))
        img = img + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * r * r))
    img = img + rng.normal(0, 5, img.shape)
    return np.clip(np.rint(img), 5, 210).astype(np.uint8)


@pytest.fixture(scope="session")
def chips():
    return [new_chip(f"chip{seed}", seed) for seed in range(1, 6)]


@pytest.fixture(scope="session")
def records(chips):
    return [enroll(chip, golden_acquisition(chip, rng_seed=100 + i))
            for i, chip in enumerate(chips)]


@pytest.fixture(scope="session")
def enrolled_db(records):
    """``records`` as the database ``load_enrollment_db`` would return."""
    return EnrollmentDB(record.pack() for record in records)


@pytest.fixture(scope="session")
def host_images():
    return [make_image(seed) for seed in range(3)]
