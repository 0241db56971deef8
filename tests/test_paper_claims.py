"""Every quantitative claim in the paper, checked against this
reproduction.  One test per claim; the docstring quotes the paper.

These are consolidation tests: most facts are exercised more deeply in
their own modules, but this file is the audit trail from paper text to
model behaviour.
"""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.util.units import cycles_to_seconds


class TestSection2MachineClaims:
    def test_four_clusters_of_eight(self):
        """"The system consists of four clusters ... Each cluster is a
        slightly modified Alliant FX/8 system with eight processors."""
        assert DEFAULT_CONFIG.clusters == 4
        assert DEFAULT_CONFIG.ces_per_cluster == 8

    def test_ce_cycle_170ns(self):
        """"The CE instruction cycle is 170ns.""" ""
        assert DEFAULT_CONFIG.ce.cycle_ns == 170.0

    def test_ce_peak_11_8_mflops(self):
        """"The peak performance of each CE is 11.8 Mflops on 64-bit
        vector operations." — derived from the vector-unit model."""
        from repro.cluster.vector_unit import derived_peak_mflops

        assert derived_peak_mflops() == pytest.approx(11.8, abs=0.2)

    def test_eight_32_word_vector_registers(self):
        """"The vector unit contains eight 32-word registers.""" ""
        assert DEFAULT_CONFIG.ce.vector_registers == 8
        assert DEFAULT_CONFIG.ce.vector_register_words == 32

    def test_cluster_memory_32mb_cache_512kb_lines_32b(self):
        """"Each Alliant FX/8 has 32MB of cluster memory. ... the 512KB
        physically addressed shared cache.  Cache line size is 32
        bytes.""" ""
        assert DEFAULT_CONFIG.cluster_memory.size_bytes == 32 << 20
        assert DEFAULT_CONFIG.cache.size_bytes == 512 << 10
        assert DEFAULT_CONFIG.cache.line_bytes == 32

    def test_cache_two_outstanding_misses_writes_dont_stall(self):
        """"lockup-free, allowing each CE to have two outstanding cache
        misses.  Writes do not stall a CE.""" ""
        from repro.cluster.cache_model import ClusterCacheModel

        cache = ClusterCacheModel()
        assert cache.max_outstanding_per_ce == 2

    def test_cache_bandwidth_48mb_per_ce(self):
        """"The cache bandwidth is eight 64-bit words per instruction
        cycle ... This equals 48 MB/sec per processor or 384 MB/sec per
        cluster.  The cluster memory bandwidth is half of that or
        192 MB/sec.""" ""
        words = DEFAULT_CONFIG.cache.words_per_cycle
        per_cluster = words * 8 / cycles_to_seconds(1) / 1e6
        assert per_cluster == pytest.approx(376.5, rel=0.03)  # "384" dec-MB
        assert DEFAULT_CONFIG.cluster_memory.words_per_cycle * 2 == words

    def test_global_memory_64mb_4kb_pages(self):
        """"The Cedar memory hierarchy consists of 64MB of shared
        global memory ... a virtual memory system with a 4KB page
        size.""" ""
        assert DEFAULT_CONFIG.global_memory.size_bytes == 64 << 20
        assert DEFAULT_CONFIG.vm.page_bytes == 4096

    def test_global_bandwidth_768mb_24_per_ce(self):
        """"The peak global memory bandwidth is 768 MB/sec or 24 MB/sec
        per processor ... The network bandwidth is 768 MB/sec for the
        entire system or 24 MB/sec per processor, which matches the
        global memory bandwidth.""" ""
        gm = DEFAULT_CONFIG.global_memory
        words_per_cycle = gm.modules / gm.access_cycles
        total = words_per_cycle * 8 / cycles_to_seconds(1) / 1e6
        assert total == pytest.approx(768.0, rel=0.03)
        assert total / 32 == pytest.approx(24.0, rel=0.03)

    def test_network_packets_1_to_4_words(self):
        """"Each network packet consists of one to four 64-bit
        words.""" ""
        assert DEFAULT_CONFIG.network.max_packet_words == 4

    def test_network_8x8_crossbars_two_word_queues(self):
        """"constructed with 8 x 8 crossbar switches ... A two word
        queue is used on each crossbar input and output port.""" ""
        assert DEFAULT_CONFIG.network.switch_radix == 8
        assert DEFAULT_CONFIG.network.queue_words == 2

    def test_unique_path_routing(self):
        """"Routing is based on the tag control scheme proposed in
        [Lawr75], and provides a unique path between any pair of
        input/output ports.""" ""
        from repro.network.routing import delta_path

        seen = set()
        for s in range(32):
            for d in range(32):
                seen.add((s, tuple(delta_path(s, d, [8, 4]))))
        assert len(seen) == 32 * 32  # one distinct path per pair

    def test_pfu_512_requests_and_buffer(self):
        """"the PFU issues up to 512 requests without pausing.  The
        data returns to a 512-word prefetch buffer.""" ""
        assert DEFAULT_CONFIG.prefetch.max_outstanding == 512
        assert DEFAULT_CONFIG.prefetch.buffer_words == 512

    def test_sync_instructions_in_memory_modules(self):
        """"Cedar implements a set of indivisible synchronization
        instructions in each memory module ... Test is any relational
        operation on 32-bit data (e.g. >) and Operate is a Read, Write,
        Add, Subtract, or Logical operation.""" ""
        from repro.gmemory.sync import SyncOp, TestOp

        assert {"read", "write", "add", "sub"} <= {o.value for o in SyncOp}
        assert ">" in {t.value for t in TestOp}

    def test_tracer_1m_events_histogrammer_64k_counters(self):
        """"The event tracers can each collect 1M events and the
        histogrammers have 64K 32-bit counters.""" ""
        from repro.monitor.histogram import Histogrammer
        from repro.monitor.tracer import ChromeTracer

        assert ChromeTracer.DEFAULT_CAPACITY == 1 << 20
        assert Histogrammer.BINS == 1 << 16
        assert Histogrammer.COUNTER_MAX == (1 << 32) - 1


class TestSection3SoftwareClaims:
    def test_xdoall_90us_startup_30us_fetch(self):
        """"a typical loop startup latency of 90 us and fetching the
        next iteration takes about 30 us.""" ""
        from repro.xylem.runtime import LoopKind, RuntimeLibrary

        cost = RuntimeLibrary().loop_cost(LoopKind.XDOALL)
        assert (cost.startup_us, cost.fetch_us) == (90.0, 30.0)

    def test_cdoall_starts_in_microseconds(self):
        """"The CDOALL ... can typically start in a few
        microseconds.""" ""
        from repro.xylem.runtime import LoopKind, RuntimeLibrary

        assert RuntimeLibrary().loop_cost(LoopKind.CDOALL).startup_us <= 5.0

    def test_compiler_inserts_32_word_prefetches(self):
        """"The compiler backend inserts an explicit prefetch
        instruction, of length 32 words or less, before each vector
        operation which has a global memory operand.""" ""
        from repro.kernels.programs import KERNELS

        for name in ("VF", "TM", "CG"):
            assert KERNELS[name].prefetch_block == 32

    def test_advanced_transform_list(self):
        """"These transformations include array privatization, parallel
        reductions, advanced induction variable substitution, runtime
        data dependence tests, balanced stripmining, and parallelization
        in the presence of SAVE and RETURN statements.""" ""
        from repro.restructurer.transforms import ADVANCED_TRANSFORMS

        names = {t.name for t in ADVANCED_TRANSFORMS}
        assert names == {
            "array privatization",
            "parallel reduction",
            "advanced induction substitution",
            "runtime dependence test",
            "balanced stripmining",
            "SAVE/RETURN parallelization",
        }


class TestSection4MeasurementClaims:
    def test_minimal_latency_8_interarrival_1(self):
        """"Minimal Latency is 8 cycles and minimal Interarrival time
        is 1 cycle.""" ""
        from repro.experiments.characterization import run_characterization

        c = run_characterization()
        assert c.unloaded_latency_cycles == pytest.approx(8.0, abs=0.3)
        assert c.unloaded_interarrival_cycles == pytest.approx(1.0, abs=0.1)

    def test_13_cycle_ce_latency(self):
        """"The cycles needed to move data between the CE and prefetch
        buffer complete the 13 cycle latency mentioned above.""" ""
        from repro.experiments.characterization import run_characterization

        assert run_characterization().ce_observed_latency_cycles == pytest.approx(
            13.0, abs=0.5
        )

    def test_absolute_and_effective_peak(self):
        """"the 376 MFLOPS absolute peak performance (or the 274 MFLOPS
        effective peak due to unavoidable vector startup)".""" ""
        assert DEFAULT_CONFIG.peak_mflops == pytest.approx(376, abs=1)
        assert DEFAULT_CONFIG.effective_peak_mflops == pytest.approx(274, abs=1)

    def test_stability_bound_is_five(self):
        """"an instability of about 5 has been common for the Perfect
        benchmarks [on workstations] ... we will define a system as
        stable if 1/5 <= St(K, e).""" ""
        from repro.metrics.ppt import STABILITY_BOUND

        assert STABILITY_BOUND == 5.0

    def test_band_levels(self):
        """"we shall use P/2 and P/2 log P, for P >= 8, as levels that
        denote high performance and acceptable performance.""" ""
        from repro.metrics.bands import acceptable_threshold, high_threshold

        assert high_threshold(32) == 16.0
        assert acceptable_threshold(32) == pytest.approx(3.2)

    def test_clock_ratio_28_33(self):
        """"the ratios of clock speeds of the two systems is
        170ns/6ns = 28.33.""" ""
        from repro.machines.cray import YMP8_CONFIG

        ratio = DEFAULT_CONFIG.ce.cycle_ns / YMP8_CONFIG.clock_ns
        assert ratio == pytest.approx(28.33, abs=0.01)

    def test_cedar_harmonic_mean_3_2(self):
        """"The harmonic mean ... is 23.7, 7.4 times that of Cedar"
        => Cedar's harmonic-mean MFLOPS is 3.2."""
        from repro.perfect.profiles import PAPER_TABLE3

        rates = [r.mflops for r in PAPER_TABLE3.values()]
        harmonic = len(rates) / sum(1 / r for r in rates)
        assert harmonic == pytest.approx(23.7 / 7.4, rel=0.02)

    def test_trfd_page_fault_factor_four(self):
        """"almost four times the number of page faults relative to the
        one-cluster version.""" ""
        from repro.core.config import VMConfig
        from repro.vm.paging import VirtualMemory

        pages = 128
        one = VirtualMemory(VMConfig())
        one.touch_range(0, pages * 4096, 0)
        four = VirtualMemory(VMConfig())
        for c in range(4):
            four.touch_range(0, pages * 4096, c)
        assert four.faults == 4 * one.faults

    def test_cm5_rates(self):
        """"the 32-processor CM-5 delivers between 28 and 32 MFLOPS for
        BW=3 and between 58 and 67 MFLOPS for BW=11.""" ""
        from repro.machines.cm5 import CM5Model

        cm5 = CM5Model(32)
        lo3 = cm5.matvec_mflops(16 << 10, 3)
        hi3 = cm5.matvec_mflops(256 << 10, 3)
        assert 26 <= lo3 <= hi3 <= 34
        lo11 = cm5.matvec_mflops(16 << 10, 11)
        hi11 = cm5.matvec_mflops(256 << 10, 11)
        assert 54 <= lo11 <= hi11 <= 70
