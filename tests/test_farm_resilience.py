"""Cache-integrity tests: a torn, tampered or unchecksummed entry is
detected on read, discarded, and recomputed to the same result."""

import json

from repro.harness.cache import ResultCache
from repro.harness.executor import RunSpec, execute, run_specs
from repro.harness.runner import Scale
from repro.sim.config import BarrierDesign


def _specs():
    return [
        RunSpec.bep("queue", BarrierDesign.LB, Scale.TINY, seed=1,
                    transactions=6),
        RunSpec.bep("sps", BarrierDesign.LB, Scale.TINY, seed=2,
                    transactions=6),
        RunSpec.bep("sps", BarrierDesign.LB_PP, Scale.TINY, seed=3,
                    transactions=6),
    ]


def test_cache_put_embeds_payload_checksum(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _specs()[0]
    summary = execute(spec)
    path = cache.put(spec, summary)
    record = json.loads(path.read_text())
    assert "checksum" in record
    assert cache.get(spec) == summary
    assert cache.corrupt == 0


def test_tampered_cache_entry_is_discarded_and_recomputed(
        tmp_path, capsys):
    cache = ResultCache(tmp_path)
    spec = _specs()[0]
    summary = execute(spec)
    path = cache.put(spec, summary)
    record = json.loads(path.read_text())
    record["summary"]["nvram_writes"] += 1  # torn write to the payload
    path.write_text(json.dumps(record))

    assert cache.get(spec) is None
    assert cache.corrupt == 1
    assert not path.exists()
    assert "corrupt entry" in capsys.readouterr().err

    # The healed path: recompute and re-cache, reads work again.
    cache.put(spec, summary)
    assert cache.get(spec) == summary


def test_entry_without_checksum_is_corrupt(tmp_path):
    # Every entry written under the current key format has a checksum,
    # so one without is damaged, not legacy.
    cache = ResultCache(tmp_path)
    spec = _specs()[0]
    path = cache.put(spec, execute(spec))
    record = json.loads(path.read_text())
    del record["checksum"]
    path.write_text(json.dumps(record))
    assert cache.get(spec) is None
    assert cache.corrupt == 1
    assert not path.exists()


def test_corrupted_entry_plus_rerun_yields_identical_summaries(tmp_path):
    # The acceptance scenario end-to-end in miniature: a sweep whose
    # cache holds a torn entry recomputes it and lands byte-identical
    # with a clean-cache sweep.
    specs = _specs()
    clean = run_specs(specs, jobs=1, cache=ResultCache(tmp_path / "a"))
    cache = ResultCache(tmp_path / "b")
    run_specs(specs, jobs=1, cache=cache)
    path = cache.put(specs[0], clean[0])
    record = json.loads(path.read_text())
    record["summary"]["transactions"] += 5
    path.write_text(json.dumps(record))
    healed = run_specs(specs, jobs=1, cache=cache)
    assert healed == clean
    assert cache.corrupt == 1
