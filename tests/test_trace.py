import numpy as np
import pytest

from lorahop import trace
from oracle import ReferenceSampler


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


def test_load_trace_rejects_bad_files():
    ok_row = b"A,868.0,30,-70.0,9.0,50,1.0\n"
    header = ",".join(trace.EXPECTED_HEADER).encode() + b"\n"
    for data in (b"a,b\n" + ok_row,                           # bad header
                 header + b"A,868.0,30,-70.0,9.0,50,1.5\n",   # pdr above 1
                 header + b"A,868.0,30,3.0,9.0,50,1.0\n",     # positive RSSI
                 header + ok_row + ok_row):                   # duplicate key
        with pytest.raises(trace.TraceError):
            trace.load_trace(data)


def test_load_trace_names_the_line_of_a_field_over_the_csv_size_limit():
    header = ",".join(trace.EXPECTED_HEADER).encode() + b"\n"
    data = header + b"A,868.0,30,-70.0,9.0,50,1.0\n" + b"A,868.2,30," + b"9" * 131_073 + b"\n"
    with pytest.raises(trace.TraceError, match="^line 3: field larger than field limit"):
        trace.load_trace(data)


@pytest.mark.parametrize("count", ["5x", "50.0"])
def test_load_trace_names_the_line_of_a_malformed_count(count):
    rows = ["A,868.0,30,-70.0,9.0,50,1.0", f"A,869.0,30,-70.0,9.0,{count},1.0"]
    data = "\n".join([",".join(trace.EXPECTED_HEADER), *rows, ""])
    with pytest.raises(trace.TraceError, match="^line 3: invalid literal for int"):
        trace.load_trace(data.encode())


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


def test_sampler_rejects_an_empty_block(bundled_trace):
    with pytest.raises(ValueError, match="block_len"):
        trace.ChannelSampler(bundled_trace, seed=1, block_len=0)


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
def test_load_trace_rejects_non_finite_link_values(rssi, snr):
    data = ",".join(trace.EXPECTED_HEADER) + f"\nA,868.0,30,{rssi},{snr},50,1.0\n"
    with pytest.raises(trace.TraceError):
        trace.load_trace(data.encode())


@pytest.mark.parametrize("rssi,snr", [("-200.1", "9.0"), ("-1e308", "9.0"), ("-70.0", "100.5"),
                                      ("-70.0", "-1e308")])
def test_load_trace_rejects_link_values_past_physical_bounds(rssi, snr):
    data = ",".join(trace.EXPECTED_HEADER) + f"\nA,868.0,30,{rssi},{snr},50,1.0\n"
    with pytest.raises(trace.TraceError, match="rssi" if snr == "9.0" else "snr"):
        trace.load_trace(data.encode())


@pytest.mark.parametrize("rssi,snr", [("-200.0", "-100.0"), ("0.0", "100.0")])
def test_load_trace_keeps_link_values_on_the_bounds(rssi, snr):
    data = ",".join(trace.EXPECTED_HEADER) + f"\nA,868.0,30,{rssi},{snr},50,1.0\n"
    entry = trace.load_trace(data.encode()).lookup("A", 868.0, 30)
    assert (entry.mean_rssi, entry.mean_snr) == (float(rssi), float(snr))


@pytest.mark.parametrize("seed", [7, [4, 0x5A, 1]])
@pytest.mark.parametrize("jitter", [{}, {"rssi_jitter_db": 0.0, "snr_jitter_db": 0.0}])
def test_sampler_matches_reference_across_chunk_refills(bundled_trace, seed, jitter):
    new = trace.ChannelSampler(bundled_trace, seed, block_len=40, **jitter)
    ref = ReferenceSampler(bundled_trace, seed, block_len=40, **jitter)
    keys = [("A", 868.0, 30), ("B", 869.0, 74), ("C", 870, 250), ("A", 870.0, 118)]
    order = np.random.default_rng(0).integers(len(keys), size=1200)
    assert 2 * len(order) > 2 * trace._DRAW_CHUNK   # two normals a call: two refills at least
    delivered = 0
    for n, k in enumerate(order):
        if n == 700:   # mid-chunk: a missing key consumes no draw
            for sampler in (new, ref):
                with pytest.raises(trace.TraceError):
                    sampler.sample("A", 871.0, 30)
        got = new.sample(*keys[k])
        assert got == ref.sample(*keys[k])
        delivered += got[0]
    assert 0 < delivered < len(order)


def test_equal_keys_of_other_types_share_one_cursor_and_one_jitter_stream(bundled_trace):
    new, ref = trace.ChannelSampler(bundled_trace, 7), ReferenceSampler(bundled_trace, 7)
    keys = [("C", 870, 250), ("C", 870.0, 250), ("C", np.float64(870), np.int64(250))]
    for key in keys * 30:   # 90 calls: past the end of the 50-long delivery pattern
        assert new.sample(*key) == ref.sample("C", 870.0, 250)
    for sampler in (new, ref):   # after those hits, a missing key consumes no draw
        with pytest.raises(trace.TraceError):
            sampler.sample("C", 871, 250)
    assert new.sample(*keys[2]) == ref.sample(*keys[0])


def test_sampler_keeps_the_sign_of_a_zero_rssi():
    # with no RSSI jitter a mean of -0.0 draws -0.0 + (+-0.0): both zeros, which min(x, 0.0)
    # keeps as they are
    zero = trace.ChannelTrace({("A", 868.0, 30): trace.TraceEntry(-0.0, 0.0, 1.0)})
    new, ref = (sampler(zero, 3, rssi_jitter_db=0.0)
                for sampler in (trace.ChannelSampler, ReferenceSampler))
    got = [repr(new.sample("A", 868.0, 30)[1]) for _ in range(40)]
    assert got == [repr(ref.sample("A", 868.0, 30)[1]) for _ in range(40)]
    assert set(got) == {"0.0", "-0.0"}
