"""The names perfbench's tracer wraps stay where it looks them up."""

import importlib.util
from pathlib import Path

from genforms import cli, macaulay, verifier

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_the_tracer_installs_and_its_restore_puts_back_every_original():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (cli, macaulay, verifier, macaulay.FormFamily)
    before = [dict(vars(owner)) for owner in owners]
    restore = tracing.install(tracing.Tracer())
    try:
        assert verifier.conjectured_series is not before[2]["conjectured_series"]
        assert cli.load_cache is not before[0]["load_cache"]
    finally:
        restore()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys()
        assert all(now[name] is value for name, value in names.items()), owner
