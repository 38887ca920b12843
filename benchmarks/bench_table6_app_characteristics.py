"""Table 6 — application characteristics.

The paper lists its three applications with their configurations
(Barnes-Hut: 128 bodies / 4 steps; LU: 128x128 matrix / 8x8 blocks;
APSP).  This bench regenerates the table: reference counts, read/write
mix, barrier counts, and shared-block footprints from the actual trace
generators.
"""

from conftest import run_once

from repro.analysis import format_table
from repro.workloads import apsp, barnes_hut, lu, paper_app_configs
from repro.workloads.traces import trace_stats


def _configs(scale):
    if scale == "paper":
        paper = paper_app_configs()
        return [("Barnes-Hut", barnes_hut, paper["barnes-hut"]),
                ("LU", lu, paper["lu"]),
                ("APSP", apsp, paper["apsp"])]
    return [
        ("Barnes-Hut", barnes_hut,
         barnes_hut.BHConfig(bodies=64, steps=2, processors=16)),
        ("LU", lu, lu.LUConfig(n=64, block=8, processors=16)),
        ("APSP", apsp, apsp.APSPConfig(vertices=32, processors=16)),
    ]


def test_table6_app_characteristics(benchmark, scale):
    def build():
        rows = []
        for name, module, config in _configs(scale):
            traces, info = module.generate_traces(config, list(range(16)))
            stats = trace_stats(traces)
            rows.append({
                "application": name,
                "processors": stats.processors,
                "references": stats.references,
                "reads": stats.reads,
                "writes": stats.writes,
                "barriers": stats.barriers,
                "shared_blocks": stats.distinct_blocks,
            })
        return rows

    rows = run_once(benchmark, build)
    print()
    print(format_table(rows, title=f"Table 6: application characteristics "
                                   f"({scale} scale)"))
    for r in rows:
        benchmark.extra_info[r["application"]] = r["references"]
        assert r["references"] > 0
        assert r["reads"] > 0 and r["writes"] > 0
    # APSP is the most read-share-intensive (broadcast reads of the
    # pivot row); LU is write-heavy (block updates).
    by = {r["application"]: r for r in rows}
    assert by["APSP"]["reads"] > 0
    assert by["LU"]["writes"] > by["LU"]["reads"] * 0.3
