//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every untraced run reports each one. The latency
/// tail is printed but not reported: on a shared host it swings with
/// scheduling noise far more than the program's own cost does.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("rom_size_pct", "%"),
];

/// Per-layer metrics: every traced run reports each one. A layer the
/// workload never calls reads 0 (and is listed as idle on stderr).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("bitstream.read_ns_per_byte", "ns"),
    ("isa.decode_ns_per_word", "ns"),
    ("asm.assemble_us", "us"),
    ("emu.ns_per_instr.direct", "ns"),
    ("emu.ns_per_instr.rom", "ns"),
    ("rv32.ns_per_instr.rv32i", "ns"),
    ("rv32.ns_per_instr.rv32c", "ns"),
    ("rv32.ns_per_instr.rom", "ns"),
    ("rv32.rom_extra_ns_per_instr", "ns"),
    ("rv32.assemble_us", "us"),
    ("compress.code_build_us.byte-huffman", "us"),
    ("compress.code_build_us.positional", "us"),
    ("compress.code_build_us.lzw", "us"),
    ("compress.expand_line_ns.byte-huffman", "ns"),
    ("compress.expand_line_ns.positional", "ns"),
    ("compress.expand_line_ns.lzw", "ns"),
    ("core.image_build_us", "us"),
    ("core.container_roundtrip_us", "us"),
    ("core.refill_ns", "ns"),
    ("core.refills", "count"),
    ("core.retries", "count"),
    ("core.clb_hit_ratio", "ratio"),
    ("core.bypass_ratio", "ratio"),
    ("core.bus_bytes_per_refill", "B"),
    ("sim.replay_standard_ns_per_fetch", "ns"),
    ("sim.replay_ccrp_ns_per_fetch", "ns"),
    ("sim.trace_capture_ms", "ms"),
    ("sim.icache_miss_rate", "ratio"),
    ("sim.trace_compaction", "ratio"),
    ("sim.rel_perf_eprom_1k", "ratio"),
    ("sim.rel_perf_burst_1k", "ratio"),
    ("sim.paper_anchor_err", "ratio"),
    ("workloads.build_ms", "ms"),
    ("difftest.progen_us", "us"),
    ("difftest.lockstep_us", "us"),
    ("difftest.lockstep_ns_per_instr", "ns"),
    ("difftest.invariants_us", "us"),
    ("difftest.instructions", "count"),
    ("difftest.failures", "count"),
    ("bench.parallel_map_busy_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
    ("bench.error_rate", "ratio"),
    ("bitstream.self_ms", "ms"),
    ("isa.self_ms", "ms"),
    ("asm.self_ms", "ms"),
    ("emu.self_ms", "ms"),
    ("rv32.self_ms", "ms"),
    ("compress.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("difftest.self_ms", "ms"),
    ("bench.self_ms", "ms"),
];

/// The layers spans are attributed to: the workspace crates, named
/// without their `ccrp-` prefix (`core` is the `ccrp` crate itself).
pub const LAYERS: [&str; 11] = [
    "bitstream",
    "isa",
    "asm",
    "emu",
    "rv32",
    "compress",
    "core",
    "sim",
    "workloads",
    "difftest",
    "bench",
];

/// Prints an informational `# name = value unit` line that is not part
/// of the result object (the workload-specific names of the generic
/// end-to-end metrics, and counts that go with them).
pub fn note(name: &str, value: impl std::fmt::Display, unit: &str) {
    println!("# {name} = {value} {unit}");
}

/// What one run measured and checked.
pub struct Outcome {
    trace: bool,
    /// Operations checked against an oracle.
    pub attempted: u64,
    /// Operations whose output the oracle rejected.
    pub failed: u64,
    /// Consistency checks that failed outside any one operation (for
    /// instance a traced statistic that differs from the untraced one).
    mismatches: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An empty outcome for a traced (`trace = true`) or untraced run.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            trace,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            values: BTreeMap::new(),
        }
    }

    /// The metrics this run's mode reports.
    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed consistency check.
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: MISMATCH {what}");
        self.mismatches += 1;
    }

    /// Sets metric `name`, which must be in the catalogue of this run's
    /// mode.
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .catalogue()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        note(name, value, unit);
        self.values.insert(name, value);
    }

    /// Renders the result line; fails when an end-to-end metric is
    /// missing or a value is not finite.
    pub fn finish(self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".to_string());
        }
        let correct = self.failed == 0 && self.mismatches == 0;
        let mut metrics = String::new();
        for (index, (name, unit)) in self.catalogue().iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if self.trace => {
                    eprintln!("perfbench: layer metric {name} not exercised by this workload");
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if index > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        ))
    }
}
