"""Contract with the benchmark tracer (bench/tracer.py).

The tracer wraps library functions under the names callers look them up
by, so renaming or deleting one of those names breaks traced benchmark
runs.  These checks catch that here, in milliseconds.
"""
import importlib.util
from pathlib import Path

from iml import autodiff, trainer

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Names the training loop must look up in iml.trainer for the tracer to see its phases.
TRAINER_CALLS = ("sample_anchor_subset", "meta_xent_loss",
                 "incremental_objective", "adam_step",
                 "train_base", "train_incremental", "train_paragon", "run_rounds")


def load_tracer():
    spec = importlib.util.spec_from_file_location("iml_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_remove_restores_every_name():
    tracer = load_tracer()
    before = [(m, dict(vars(m))) for m in tracer._IML_MODULES]
    backward = autodiff.Tape.backward

    t = tracer.Tracer()
    t.install()
    try:
        patches = list(t._patches)
        assert patches
        for obj, attr, original in patches:
            assert getattr(obj, attr) is not original, attr
        in_trainer = {attr for obj, attr, _ in patches if obj is trainer}
        assert set(TRAINER_CALLS) <= in_trainer, set(TRAINER_CALLS) - in_trainer
        assert autodiff.Tape.backward is not backward
    finally:
        t.remove()

    for obj, attr, original in patches:
        assert getattr(obj, attr) is original, attr
    assert autodiff.Tape.backward is backward
    for module, names in before:
        now = vars(module)
        assert now.keys() == names.keys(), module.__name__
        assert all(now[k] is v for k, v in names.items()), module.__name__
