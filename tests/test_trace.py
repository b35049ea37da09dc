import zlib

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


class ReferenceSampler:
    """`ChannelSampler` with a pattern and a cursor dict, a trace lookup per call and one
    `normal(0, 1)` draw at a time: the outcomes `sample` must match value for value."""

    def __init__(self, trace_obj, seed, block_len=trace.DEFAULT_BLOCK_LEN,
                 rssi_jitter_db=trace.DEFAULT_RSSI_JITTER_DB,
                 snr_jitter_db=trace.DEFAULT_SNR_JITTER_DB):
        self.trace = trace_obj
        self.block_len = block_len
        self.rssi_jitter_db, self.snr_jitter_db = rssi_jitter_db, snr_jitter_db
        self._seed = [int(v) for v in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
        self._patterns, self._cursor = {}, {}
        self._jitter_rng = np.random.default_rng(self._seed + [0xA5])

    def sample(self, source, freq_mhz, size_bytes):
        key = (source, float(freq_mhz), int(size_bytes))
        if key not in self._patterns:
            entry = self.trace.lookup(*key)
            pat = np.zeros(self.block_len, dtype=bool)
            pat[:int(round(entry.pdr * self.block_len))] = True
            np.random.default_rng(self._seed + [zlib.crc32(repr(key).encode())]).shuffle(pat)
            self._patterns[key], self._cursor[key] = pat, 0
        cur = self._cursor[key]
        delivered = bool(self._patterns[key][cur % self.block_len])
        self._cursor[key] = cur + 1
        entry, rng = self.trace.lookup(*key), self._jitter_rng
        rssi = min(entry.mean_rssi + rng.normal(0.0, 1.0) * self.rssi_jitter_db, 0.0)
        return delivered, rssi, entry.mean_snr + rng.normal(0.0, 1.0) * self.snr_jitter_db


@pytest.mark.parametrize("seed", [7, [4, 0x5A, 1]])
@pytest.mark.parametrize("jitter", [{}, {"rssi_jitter_db": 0.0, "snr_jitter_db": 0.0}])
def test_sampler_matches_reference_across_chunk_refills(bundled_trace, seed, jitter):
    new = trace.ChannelSampler(bundled_trace, seed, block_len=40, **jitter)
    ref = ReferenceSampler(bundled_trace, seed, block_len=40, **jitter)
    keys = [("A", 868.0, 30), ("B", 869.0, 74), ("C", 870, 250), ("A", 870.0, 118)]
    order = np.random.default_rng(0).integers(len(keys), size=1200)
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

