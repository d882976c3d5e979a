"""CSI toolkit: angular-delay transforms, amplitude-domain augmentation,
synthetic multipath generation, and a linear compression/NMSE harness.

Typical pipeline (the README's library quick tour)::

    from csiaug import (
        AugmentMethod, AugmentParams, AugmentMode,
        augment_dataset, evaluate, fit_codec,
        generate_angular_dataset, load_scenario,
    )

    train_spec = load_scenario("scenarios/motion-range-train.json")
    test_spec = load_scenario("scenarios/motion-range-test.json")

    train = generate_angular_dataset(train_spec, 2000, delay_bins=32)
    test = generate_angular_dataset(test_spec, 500, delay_bins=32)

    baseline = evaluate(fit_codec(train, "1/4"), test, label="baseline")

    params = AugmentParams(AugmentMethod.BUBBLE_SHIFT_DOWN, shift=1, seed=7)
    augmented = augment_dataset(train, params, AugmentMode.APPEND)
    shifted = evaluate(fit_codec(augmented, "1/4"), test, label="bs-down")

    print(baseline.nmse_db, shifted.nmse_db)   # the second should be lower

The same steps are available as ``csiaug`` CLI subcommands.
"""

from csiaug.augment import (
    augment_dataset,
    bubble_shift_down,
    bubble_shift_up,
    md_baseline,
    random_generation,
)
from csiaug.channel import (
    ScenarioSpec,
    generate_angular_dataset,
    generate_dataset,
    load_scenario,
    save_scenario,
)
from csiaug.codec import (
    EvalReport,
    LinearCodec,
    Spectrum,
    evaluate,
    fit_codec,
    fit_spectrum,
    nmse,
    parse_ratio,
)
from csiaug.core import (
    AngularDelayMatrix,
    AugmentMethod,
    AugmentMode,
    AugmentParams,
    AugmentationRecord,
    Dataset,
    Domain,
    Provenance,
    ShiftDirection,
    decompose,
    recompose,
)
from csiaug.dataset_io import (
    CorruptedFileError,
    FileFormatError,
    read_codec,
    read_dataset,
    read_report,
    write_codec,
    write_dataset,
    write_report,
)
from csiaug.rng import derive_seed, make_generator
from csiaug.transform import inverse_transform_dataset, transform_dataset

__version__ = "0.1.0"

__all__ = [
    "AngularDelayMatrix",
    "AugmentMethod",
    "AugmentMode",
    "AugmentParams",
    "AugmentationRecord",
    "CorruptedFileError",
    "Dataset",
    "Domain",
    "EvalReport",
    "FileFormatError",
    "LinearCodec",
    "Provenance",
    "ScenarioSpec",
    "ShiftDirection",
    "Spectrum",
    "augment_dataset",
    "bubble_shift_down",
    "bubble_shift_up",
    "decompose",
    "derive_seed",
    "evaluate",
    "fit_codec",
    "fit_spectrum",
    "generate_angular_dataset",
    "generate_dataset",
    "inverse_transform_dataset",
    "load_scenario",
    "make_generator",
    "md_baseline",
    "nmse",
    "parse_ratio",
    "random_generation",
    "read_codec",
    "read_dataset",
    "read_report",
    "recompose",
    "save_scenario",
    "transform_dataset",
    "write_codec",
    "write_dataset",
    "write_report",
    "__version__",
]
