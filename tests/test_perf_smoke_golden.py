"""The engine's bit-identity contract, checked by the tier-1 suite.

``benchmarks/perf_smoke.py`` pins a quick cluster-DES run and a quick
Figure-4 run to ``benchmarks/golden_perf_smoke.json``: events processed,
result digests and the named outlier culprit.  Engine optimisations must
reproduce every pinned value exactly; only a deliberate model change may
re-record the golden (``perf_smoke.py --record``), never this test.
"""

import json

import pytest

from benchmarks import perf_smoke

with open(perf_smoke.GOLDEN) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize(
    "name, run",
    [("cluster_des", perf_smoke.smoke_cluster_des), ("fig4_quick", perf_smoke.smoke_fig4)],
)
def test_matches_golden(name, run):
    got = run()
    want = {k: v for k, v in GOLDEN[name].items() if k not in perf_smoke._VOLATILE}
    assert want, f"golden entry {name!r} pins nothing"
    assert {k: got.get(k) for k in want} == want
