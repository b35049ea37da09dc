import numpy as np
import pytest

from lorahop import trace


def test_bundled_trace_shape(bundled_trace):
    assert bundled_trace.sources == ["A", "B", "C"]
    assert bundled_trace.frequencies == [868.0, 869.0, 870.0]
    assert bundled_trace.sizes == [30, 74, 118, 162, 206, 250]
    assert len(bundled_trace.entries) == 54


def test_lookup_values(bundled_trace):
    e = bundled_trace.lookup("A", 869.0, 30)
    assert (e.mean_rssi, e.mean_snr, e.pdr) == (-71.5, 9.3, 1.0)
    e = bundled_trace.lookup("B", 869.0, 206)
    assert e.pdr == 1.0
    with pytest.raises(trace.TraceError):
        bundled_trace.lookup("A", 871.0, 30)


def test_load_trace_rejects_bad_files(tmp_path):
    ok_row = "A,868.0,30,-70.0,9.0,50,1.0\n"
    header = ",".join(trace.EXPECTED_HEADER) + "\n"

    p = tmp_path / "bad_header.csv"
    p.write_text("a,b\n" + ok_row)
    with pytest.raises(trace.TraceError):
        trace.load_trace(p)

    p = tmp_path / "bad_pdr.csv"
    p.write_text(header + "A,868.0,30,-70.0,9.0,50,1.5\n")
    with pytest.raises(trace.TraceError):
        trace.load_trace(p)

    p = tmp_path / "positive_rssi.csv"
    p.write_text(header + "A,868.0,30,3.0,9.0,50,1.0\n")
    with pytest.raises(trace.TraceError):
        trace.load_trace(p)

    p = tmp_path / "dup.csv"
    p.write_text(header + ok_row + ok_row)
    with pytest.raises(trace.TraceError):
        trace.load_trace(p)


def test_sampler_exact_block_counts(bundled_trace):
    sampler = trace.ChannelSampler(bundled_trace, seed=1, block_len=50,
                                   rssi_jitter_db=0.0, snr_jitter_db=0.0)
    for src, freq, size in [("A", 868.0, 30), ("C", 870.0, 250), ("B", 869.0, 118)]:
        entry = bundled_trace.lookup(src, freq, size)
        outcomes = [sampler.sample(src, freq, size) for _ in range(50)]
        delivered = sum(d for d, _, _ in outcomes)
        assert delivered == round(entry.pdr * 50)
        for d, rssi, snr in outcomes:
            if d:
                assert rssi == entry.mean_rssi
                assert snr == entry.mean_snr


def test_sampler_deterministic(bundled_trace):
    a = trace.ChannelSampler(bundled_trace, seed=[5, 1], block_len=50)
    b = trace.ChannelSampler(bundled_trace, seed=[5, 1], block_len=50)
    seq_a = [a.sample("A", 868.0, 74) for _ in range(100)]
    seq_b = [b.sample("A", 868.0, 74) for _ in range(100)]
    assert seq_a == seq_b
    c = trace.ChannelSampler(bundled_trace, seed=[5, 2], block_len=50)
    seq_c = [c.sample("A", 868.0, 74) for _ in range(100)]
    assert seq_a != seq_c


def test_sampler_jitter_keeps_rssi_nonpositive(bundled_trace):
    sampler = trace.ChannelSampler(bundled_trace, seed=2, rssi_jitter_db=50.0)
    for _ in range(200):
        d, rssi, _ = sampler.sample("A", 869.0, 30)
        assert rssi <= 0.0


@pytest.mark.parametrize("rssi,snr", [("nan", "nan"), ("-inf", "9.0"), ("-70.0", "inf")])
def test_load_trace_rejects_non_finite_link_values(tmp_path, rssi, snr):
    p = tmp_path / "non_finite.csv"
    p.write_text(",".join(trace.EXPECTED_HEADER) + f"\nA,868.0,30,{rssi},{snr},50,1.0\n")
    with pytest.raises(trace.TraceError):
        trace.load_trace(p)
