//! The `paper_sweep` workload: repeated passes over the whole paper
//! matrix — the five paper experiments on the trace engine, the codec ×
//! memory-model matrix and the cross-ISA matrix — against the suite of
//! eight traced programs built once at set-up.
//!
//! One operation is one section of a pass (seven per pass); its output
//! is checked against the committed results file or the pinned digest.

use std::time::{Duration, Instant};

use ccrp::{CompressedImage, RefillConfig};
use ccrp_bench::codecs::{self, codec_instance, CodecCell, CodecsOptions, CodecsReport};
use ccrp_bench::experiments::clb::CLB_SIZES;
use ccrp_bench::experiments::dcache::DCACHE_MISS_PCTS;
use ccrp_bench::experiments::fig5::{weighted_average, Fig5Row};
use ccrp_bench::experiments::perf::CACHE_SIZES;
use ccrp_bench::isa_compare::{self, IsaCell, IsaCompareOptions, IsaCompareReport, IsaVariant};
use ccrp_bench::runner::{self, ExperimentResults};
use ccrp_bench::{suite_with_jobs, Engine, Experiment, Prepared, Suite, SweepOptions, SweepReport};
use ccrp_bitstream::BitReader;
use ccrp_compress::{block, lzw, BlockAlignment, ByteCode, ByteHistogram, CodecId, LINE_SIZE};
use ccrp_rv32::workloads::Rv32Workload;
use ccrp_sim::{
    AccessTrace, Comparison, DataCacheModel, MemoryModel, RunStats, Simulation, SystemConfig,
};
use ccrp_workloads::{
    figure5_corpus, preselected_code, preselected_positional_code, CorpusProgram, TracedWorkload,
};

use crate::anchors::{Section, ANCHORS};
use crate::metrics::{note, Outcome};
use crate::oracle::SweepOracle;
use crate::probe::RefillTimer;
use crate::spans::{self, span, Pool};
use crate::stats::{median, ms, peak_rss_mb, tail, timed};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Sections of one pass, in run order.
const SECTIONS: [&str; 7] = [
    "fig5",
    "tables1_8",
    "tables9_10",
    "fig9",
    "tables11_13",
    "codecs",
    "isa_compare",
];

/// Everything one library pass produced.
struct Pass {
    /// (section, wall time, cells).
    sections: Vec<(&'static str, Duration, usize)>,
    experiments: Vec<SweepReport>,
    codecs: CodecsReport,
    isa: IsaCompareReport,
}

impl Pass {
    fn cells(&self) -> usize {
        self.sections.iter().map(|(_, _, cells)| cells).sum()
    }

    fn wall(&self) -> Duration {
        self.sections.iter().map(|(_, wall, _)| *wall).sum()
    }

    fn experiment(&self, experiment: Experiment) -> &SweepReport {
        self.experiments
            .iter()
            .find(|r| r.experiment == experiment)
            .expect("every experiment runs each pass")
    }
}

/// One pass through the library entry points, each section checked
/// against its oracle.
fn library_pass(jobs: usize, oracle: &SweepOracle, outcome: &mut Outcome) -> Pass {
    let mut sections = Vec::new();
    let mut experiments = Vec::new();
    let options = SweepOptions {
        jobs,
        metrics: false,
        engine: Engine::Trace,
    };
    for experiment in Experiment::ALL {
        let (report, wall) = timed(|| runner::run(experiment, &options));
        let ok = oracle.accepts(experiment.name(), &report.results_json().to_compact());
        outcome.check(ok);
        sections.push((experiment.name(), wall, report.cells.len()));
        experiments.push(report);
    }
    let (codecs, wall) = timed(|| codecs::run(CodecsOptions { jobs }));
    outcome.check(oracle.accepts("codecs", &codecs.results_json().to_compact()));
    sections.push(("codecs", wall, codecs.cells.len()));
    let (isa, wall) = timed(|| isa_compare::run(IsaCompareOptions { jobs }));
    outcome.check(oracle.accepts("isa_compare", &isa.results_json().to_compact()));
    sections.push(("isa_compare", wall, isa.cells.len()));
    Pass {
        sections,
        experiments,
        codecs,
        isa,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let jobs = args.jobs;

    // Set-up: the cached suite the sweeps share, the two corpus codes,
    // and the oracle documents. The first set-up counts from process
    // start; the repeats rebuild the (uncached) suite and oracle.
    let oracle = match SweepOracle::load() {
        Ok(oracle) => oracle,
        Err(err) => {
            outcome.mismatch(format!("oracle: {err}"));
            return outcome;
        }
    };
    let _ = suite_with_jobs(jobs);
    let _ = (preselected_code(), preselected_positional_code());
    let mut setups = vec![args.started.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        let start = Instant::now();
        let suite = Suite::build_with_jobs(jobs);
        let again = SweepOracle::load();
        drop((suite, again));
        setups.push(start.elapsed().as_secs_f64());
    }

    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut passes = Vec::new();
    let loop_start = Instant::now();
    while passes.is_empty() || loop_start.elapsed() < budget {
        passes.push(library_pass(jobs, &oracle, &mut outcome));
    }
    let last = passes.last().expect("at least one pass");

    if args.trace {
        traced(args, &passes, &mut outcome);
        return outcome;
    }

    let cells: usize = passes.iter().map(Pass::cells).sum();
    let wall: f64 = passes.iter().map(|p| p.wall().as_secs_f64()).sum();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.sections.iter().map(|(_, wall, _)| ms(*wall)))
        .collect();
    let (tail_ms, tail_p) = tail(&latencies);
    let rom_size = rom_size_pct(last);

    outcome.set("setup_s", median(&setups));
    outcome.set("work_per_s", cells as f64 / wall);
    outcome.set("op_ms_p50", median(&latencies));
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set("rom_size_pct", rom_size);
    note("sweep_cells_per_s", cells as f64 / wall, "1/s");
    note("passes", passes.len(), "count");
    note("cells_per_pass", last.cells(), "count");
    note("section_latency_samples", latencies.len(), "count");
    note("op_ms_tail", tail_ms, "ms");
    note("op_ms_tail_percentile", tail_p, "p");
    for section in SECTIONS {
        let times: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.sections.iter())
            .filter(|(name, _, _)| *name == section)
            .map(|(_, wall, _)| ms(*wall))
            .collect();
        note(&format!("section_ms_p50.{section}"), median(&times), "ms");
    }
    let (eprom, burst) = rel_perf_1k(last);
    note("rel_perf_eprom_1k", eprom, "ratio");
    note("rel_perf_burst_1k", burst, "ratio");
    note("paper_anchor_err", anchor_err(last), "ratio");
    note(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    outcome
}

/// Figure 5's weighted preselected-Huffman size, percent of original.
fn rom_size_pct(pass: &Pass) -> f64 {
    match &pass.experiment(Experiment::Fig5).results {
        ExperimentResults::Fig5 { weighted, .. } => weighted.preselected_pct,
        _ => unreachable!("fig5 folds to fig5 rows"),
    }
}

/// Geometric means over the eight programs of the Tables 1–8 relative
/// performance at a 1 KiB cache (16-entry CLB): (EPROM, Burst EPROM).
fn rel_perf_1k(pass: &Pass) -> (f64, f64) {
    let ExperimentResults::Tables1To8(tables) = &pass.experiment(Experiment::Tables1To8).results
    else {
        unreachable!("tables1_8 folds to perf points")
    };
    let geomean = |memory: MemoryModel| {
        let logs: Vec<f64> = tables
            .iter()
            .flat_map(|(_, points)| points.iter())
            .filter(|p| p.cache_bytes == 1024 && p.memory == memory)
            .map(|p| p.relative_performance.ln())
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    (
        geomean(MemoryModel::Eprom),
        geomean(MemoryModel::BurstEprom),
    )
}

/// Mean absolute gap between the measured cells and the paper's anchors.
fn anchor_err(pass: &Pass) -> f64 {
    let ExperimentResults::Tables1To8(t18) = &pass.experiment(Experiment::Tables1To8).results
    else {
        unreachable!("tables1_8 folds to perf points")
    };
    let ExperimentResults::Tables11To13(t1113) = &pass.experiment(Experiment::Tables11To13).results
    else {
        unreachable!("tables11_13 folds to dcache rows")
    };
    let gaps: Vec<f64> = ANCHORS
        .iter()
        .map(|anchor| {
            let measured = match anchor.section {
                Section::Tables1To8 { cache_bytes } => t18
                    .iter()
                    .filter(|(name, _)| *name == anchor.workload)
                    .flat_map(|(_, points)| points.iter())
                    .find(|p| p.cache_bytes == cache_bytes && p.memory == anchor.memory)
                    .map(|p| p.relative_performance),
                Section::Tables11To13 { dcache_miss_pct } => t1113
                    .iter()
                    .filter(|(name, _)| *name == anchor.workload)
                    .flat_map(|(_, rows)| rows.iter())
                    .find(|r| r.dcache_miss_pct == dcache_miss_pct && r.memory == anchor.memory)
                    .map(|r| r.relative),
            };
            let measured =
                measured.unwrap_or_else(|| panic!("anchor {anchor:?} has no measured cell"));
            (measured - anchor.paper).abs()
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

/// One simulation cell of a paper experiment, rebuilt from the public
/// constants in the same order the runner generates them.
#[derive(Clone, Copy)]
struct Cell {
    workload: &'static str,
    memory: MemoryModel,
    cache_bytes: u32,
    clb_entries: usize,
    dcache_miss_pct: Option<u32>,
}

impl Cell {
    fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}B/clb{}",
            self.workload,
            self.memory.name(),
            self.cache_bytes,
            self.clb_entries
        );
        if let Some(pct) = self.dcache_miss_pct {
            label.push_str(&format!("/dcache{pct}%"));
        }
        label
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::new()
            .with_cache_bytes(self.cache_bytes)
            .with_memory(self.memory)
            .with_clb_entries(self.clb_entries)
            .with_dcache(self.dcache_miss_pct.map_or(DataCacheModel::NONE, |pct| {
                DataCacheModel::with_miss_rate(f64::from(pct) / 100.0)
            }))
    }
}

fn experiment_cells(experiment: Experiment, suite: &Suite) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push = |workload, memory, cache_bytes, clb_entries, dcache_miss_pct| {
        cells.push(Cell {
            workload,
            memory,
            cache_bytes,
            clb_entries,
            dcache_miss_pct,
        });
    };
    match experiment {
        Experiment::Fig5 => {}
        Experiment::Tables1To8 => {
            for prepared in suite.iter() {
                let name = prepared.workload.name;
                let memories: &[MemoryModel] = if name == "matrix25A" {
                    &MemoryModel::ALL
                } else {
                    &[MemoryModel::Eprom, MemoryModel::BurstEprom]
                };
                for &memory in memories {
                    for &cache in &CACHE_SIZES {
                        push(name, memory, cache, 16, None);
                    }
                }
            }
        }
        Experiment::Tables9To10 => {
            for name in ["NASA7", "espresso"] {
                for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                    for &cache in &CACHE_SIZES {
                        for &clb in &CLB_SIZES {
                            push(suite.get(name).workload.name, memory, cache, clb, None);
                        }
                    }
                }
            }
        }
        Experiment::Fig9 => {
            for prepared in suite.iter() {
                for &memory in &MemoryModel::ALL {
                    for &cache in &CACHE_SIZES {
                        push(prepared.workload.name, memory, cache, 16, None);
                    }
                }
            }
        }
        Experiment::Tables11To13 => {
            for name in ["NASA7", "espresso", "fpppp"] {
                for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                    for &pct in &DCACHE_MISS_PCTS {
                        push(suite.get(name).workload.name, memory, 1024, 16, Some(pct));
                    }
                }
            }
        }
    }
    cells
}

/// Figure 5's row for one program, from the compress layer's functions.
fn fig5_row(program: &CorpusProgram) -> Fig5Row {
    let text = &program.text;
    let (traditional, bounded) = span("compress.code_build.byte-huffman", || {
        let hist = ByteHistogram::of(text);
        (
            ByteCode::traditional(&hist).expect("non-empty program"),
            ByteCode::bounded(&hist).expect("non-empty program"),
        )
    });
    let block_pct = |code: &ByteCode, table_bytes: u32| {
        span("compress.block_compress", || {
            let lines = block::compress_image(code, text, BlockAlignment::Byte);
            let total = block::compressed_size(&lines) + table_bytes as usize;
            total as f64 / text.len() as f64 * 100.0
        })
    };
    Fig5Row {
        name: program.name,
        original_bytes: text.len(),
        compress_pct: span("compress.lzw_compress", || lzw::compress(text).len()) as f64
            / text.len() as f64
            * 100.0,
        traditional_pct: block_pct(&traditional, traditional.table_storage_bytes()),
        bounded_pct: block_pct(&bounded, bounded.table_storage_bytes()),
        preselected_pct: block_pct(preselected_code(), 0),
    }
}

fn code_build_span(id: CodecId) -> &'static str {
    match id {
        CodecId::ByteHuffman => "compress.code_build.byte-huffman",
        CodecId::Positional => "compress.code_build.positional",
        CodecId::Lzw => "compress.code_build.lzw",
    }
}

fn expand_span(id: CodecId) -> &'static str {
    match id {
        CodecId::ByteHuffman => "compress.expand_line.byte-huffman",
        CodecId::Positional => "compress.expand_line.positional",
        CodecId::Lzw => "compress.expand_line.lzw",
    }
}

fn memory_configs() -> Vec<SystemConfig> {
    MemoryModel::ALL
        .into_iter()
        .map(|memory| {
            SystemConfig::new()
                .with_cache_bytes(codecs::CACHE_BYTES)
                .with_memory(memory)
        })
        .collect()
}

/// One codec-matrix job, as `ccrp_bench::codecs` runs it: build the
/// image, expand every line back against the text, replay all memory
/// models.
fn codec_pair(prepared: &Prepared, id: CodecId) -> Vec<CodecCell> {
    let text = &prepared.workload.text;
    let image = match id {
        CodecId::ByteHuffman => span("core.image_clone", || prepared.image.clone()),
        _ => {
            let codec = span(code_build_span(id), || codec_instance(id));
            span("core.image_build", || {
                CompressedImage::build_with_codec(0, text, codec, BlockAlignment::Word)
                    .expect("workload compresses")
            })
        }
    };
    span(expand_span(id), || {
        let mut line = [0u8; LINE_SIZE];
        for (index, chunk) in text.chunks(LINE_SIZE).enumerate() {
            image
                .expand_line_into(index as u32 * LINE_SIZE as u32, &mut line)
                .expect("line expands");
            assert_eq!(&line[..chunk.len()], chunk, "line {index} miscompares");
        }
    });
    let trace = span("sim.trace_capture", || {
        AccessTrace::capture(prepared.workload.trace.iter())
    });
    let comparisons = span("sim.replay_sweep", || {
        Simulation::replay_sweep(&image, &trace, &memory_configs()).expect("valid configs")
    });
    let cost = image.codec().cost();
    MemoryModel::ALL
        .into_iter()
        .zip(comparisons)
        .map(|(memory, cmp)| CodecCell {
            workload: prepared.workload.name,
            codec: id,
            memory,
            compression_ratio: image.compression_ratio(),
            relative_performance: cmp.relative_execution_time(),
            miss_rate: cmp.miss_rate(),
            memory_traffic: cmp.memory_traffic_ratio(),
            refill_cycles: cmp.ccrp.refill_cycles,
            table_bits: cost.table_bits,
            effective_decode_rate: cost
                .effective_rate(RefillConfig::default().decode_bytes_per_cycle),
        })
        .collect()
}

fn self_trained(base: u32, text: &[u8]) -> CompressedImage {
    let code = span("compress.code_build.byte-huffman", || {
        ByteCode::preselected(&ByteHistogram::of(text)).expect("non-empty text")
    });
    span("core.image_build", || {
        CompressedImage::build(base, text, code, BlockAlignment::Word).expect("text compresses")
    })
}

fn isa_cell(
    prepared: &Prepared,
    variant: IsaVariant,
    memory: MemoryModel,
    compression_ratio: f64,
    run: &RunStats,
    baseline: &RunStats,
) -> IsaCell {
    IsaCell {
        workload: prepared.workload.name,
        variant,
        memory,
        compression_ratio,
        relative_performance: run.total_cycles() / baseline.total_cycles(),
        miss_rate: run.cache.miss_rate(),
        memory_traffic: if baseline.bytes_from_memory == 0 {
            1.0
        } else {
            run.bytes_from_memory as f64 / baseline.bytes_from_memory as f64
        },
        refill_cycles: run.refill_cycles,
    }
}

/// One cross-ISA job, as `ccrp_bench::isa_compare` runs it.
fn isa_workload(prepared: &Prepared, workload: Rv32Workload) -> Vec<IsaCell> {
    let rv32 = span("rv32.workload_build", || workload.build()).expect("rv32 workload builds");
    let configs = memory_configs();
    let sweep = |image: &CompressedImage, trace: &ccrp_emu::ProgramTrace| {
        let trace = span("sim.trace_capture", || AccessTrace::capture(trace.iter()));
        span("sim.replay_sweep", || {
            Simulation::replay_sweep(image, &trace, &configs).expect("valid configs")
        })
    };
    let mips = sweep(&prepared.image, &prepared.workload.trace);
    let ccrp_i = self_trained(rv32.image_i.text_base(), rv32.image_i.text());
    let ccrp_c = self_trained(rv32.image_c.text_base(), rv32.image_c.text());
    let sweep_i = sweep(&ccrp_i, &rv32.trace_i);
    let sweep_c = sweep(&ccrp_c, &rv32.trace_c);
    let i_bytes = f64::from(rv32.image_i.text_size());
    let mut cells = Vec::new();
    for variant in IsaVariant::ALL {
        for (at, memory) in MemoryModel::ALL.into_iter().enumerate() {
            let base = &sweep_i[at].standard;
            cells.push(match variant {
                IsaVariant::MipsCcrp => isa_cell(
                    prepared,
                    variant,
                    memory,
                    prepared.image.compression_ratio(),
                    &mips[at].ccrp,
                    &mips[at].standard,
                ),
                IsaVariant::Rv32iCcrp => isa_cell(
                    prepared,
                    variant,
                    memory,
                    ccrp_i.compression_ratio(),
                    &sweep_i[at].ccrp,
                    base,
                ),
                IsaVariant::Rv32c => isa_cell(
                    prepared,
                    variant,
                    memory,
                    f64::from(rv32.image_c.text_size()) / i_bytes,
                    &sweep_c[at].standard,
                    base,
                ),
                IsaVariant::Rv32cCcrp => isa_cell(
                    prepared,
                    variant,
                    memory,
                    f64::from(ccrp_c.total_stored_bytes(false)) / i_bytes,
                    &sweep_c[at].ccrp,
                    base,
                ),
            });
        }
    }
    cells
}

/// The values of a [`Pool::map`] call, without their timings.
fn values<T>((results, _): (Vec<(T, Duration)>, Duration)) -> Vec<T> {
    results.into_iter().map(|(value, _)| value).collect()
}

/// One pass rebuilt from the layers' public functions, with a span
/// around every call; every result is compared with the library pass's.
fn replica_pass(suite: &Suite, pool: &mut Pool, reference: &Pass, outcome: &mut Outcome) {
    // Figure 5.
    span("bench.section.fig5", || {
        let programs = span("workloads.figure5_corpus", figure5_corpus);
        let rows = values(pool.map(&programs, fig5_row));
        let weighted = weighted_average(&rows);
        let same = reference.experiment(Experiment::Fig5).results
            == ExperimentResults::Fig5 { rows, weighted };
        if !same {
            outcome.mismatch("traced fig5 rows differ from the untraced sweep".into());
        }
    });

    // The four simulation experiments on the trace engine.
    for experiment in &Experiment::ALL[1..] {
        let section = match experiment {
            Experiment::Tables1To8 => "bench.section.tables1_8",
            Experiment::Tables9To10 => "bench.section.tables9_10",
            Experiment::Fig9 => "bench.section.fig9",
            _ => "bench.section.tables11_13",
        };
        span(section, || {
            let cells = experiment_cells(*experiment, suite);
            let mut ranges: Vec<(&'static str, std::ops::Range<usize>)> = Vec::new();
            for (index, cell) in cells.iter().enumerate() {
                match ranges.last_mut() {
                    Some((name, range)) if *name == cell.workload => range.end = index + 1,
                    _ => ranges.push((cell.workload, index..index + 1)),
                }
            }
            let traces = values(pool.map(&ranges, |(name, _)| {
                span("sim.trace_capture", || {
                    AccessTrace::capture(suite.get(name).workload.trace.iter())
                })
            }));
            let groups: Vec<_> = ranges.iter().zip(&traces).collect();
            let replayed = values(pool.map(&groups, |((name, range), trace)| {
                let configs: Vec<SystemConfig> =
                    cells[range.clone()].iter().map(Cell::config).collect();
                span("sim.replay_sweep", || {
                    Simulation::replay_sweep(&suite.get(name).image, trace, &configs)
                        .expect("paper configurations are valid")
                })
            }));
            let comparisons: Vec<Comparison> = replayed.into_iter().flatten().collect();
            let library = reference.experiment(*experiment);
            let same = library.cells.len() == cells.len()
                && library
                    .cells
                    .iter()
                    .zip(cells.iter().zip(&comparisons))
                    .all(|(lib, (cell, cmp))| {
                        lib.label == cell.label() && lib.comparison == Some(*cmp)
                    });
            if !same {
                outcome.mismatch(format!(
                    "traced {} cells differ from the untraced sweep",
                    experiment.name()
                ));
            }
        });
    }

    // The codec × memory-model matrix.
    span("bench.section.codecs", || {
        let pairs: Vec<(&Prepared, CodecId)> = suite
            .iter()
            .flat_map(|p| CodecId::ALL.map(|id| (p, id)))
            .collect();
        let cells: Vec<CodecCell> =
            values(pool.map(&pairs, |&(prepared, id)| codec_pair(prepared, id)))
                .into_iter()
                .flatten()
                .collect();
        if cells != reference.codecs.cells {
            outcome.mismatch("traced codecs cells differ from the untraced sweep".into());
        }
    });

    // The cross-ISA matrix.
    span("bench.section.isa_compare", || {
        let items: Vec<(&Prepared, Rv32Workload)> = suite.iter().zip(Rv32Workload::ALL).collect();
        let cells: Vec<IsaCell> = values(pool.map(&items, |&(prepared, workload)| {
            isa_workload(prepared, workload)
        }))
        .into_iter()
        .flatten()
        .collect();
        if cells != reference.isa.cells {
            outcome.mismatch("traced isa-compare cells differ from the untraced sweep".into());
        }
    });
}

/// Layer measurements outside the pass: the standard and CCRP replay
/// paths timed apart, and the refill probe over every Tables 1–8 cell.
fn layer_probes(suite: &Suite, reference: &Pass, outcome: &mut Outcome) {
    let cells = experiment_cells(Experiment::Tables1To8, suite);
    let library = reference.experiment(Experiment::Tables1To8);
    let mut timer = RefillTimer::default();
    let (mut standard_ns, mut ccrp_ns, mut fetches, mut runs) = (0u128, 0u128, 0u64, 0u64);
    let (mut misses, mut accesses) = (0u64, 0u64);
    let mut same = library.cells.len() == cells.len();
    for prepared in suite.iter() {
        let trace = AccessTrace::capture(prepared.workload.trace.iter());
        fetches += trace.fetches();
        runs += trace.runs().len() as u64;
        let config = SystemConfig::new()
            .with_cache_bytes(1024)
            .with_memory(MemoryModel::Eprom);
        let (_, took) = timed(|| Simulation::new(config).standard(&trace));
        standard_ns += took.as_nanos();
        let (_, took) = timed(|| Simulation::new(config).ccrp(&prepared.image, &trace));
        ccrp_ns += took.as_nanos();
        for (index, cell) in cells.iter().enumerate() {
            if cell.workload != prepared.workload.name {
                continue;
            }
            let ccrp = Simulation::new(cell.config())
                .ccrp_probed(&mut timer)
                .ccrp(&prepared.image, &trace)
                .expect("paper configurations are valid");
            misses += ccrp.cache.misses;
            accesses += ccrp.cache.fetches;
            same &= library
                .cells
                .get(index)
                .and_then(|c| c.comparison.map(|c| c.ccrp))
                == Some(ccrp);
        }
    }
    if !same {
        outcome.mismatch("probed Tables 1-8 CCRP statistics differ from the untraced sweep".into());
    }
    outcome.set(
        "sim.replay_standard_ns_per_fetch",
        standard_ns as f64 / fetches as f64,
    );
    outcome.set(
        "sim.replay_ccrp_ns_per_fetch",
        ccrp_ns as f64 / fetches as f64,
    );
    outcome.set("sim.icache_miss_rate", misses as f64 / accesses as f64);
    outcome.set("sim.trace_compaction", fetches as f64 / runs as f64);
    outcome.set("core.refill_ns", timer.ns_per_refill());
    outcome.set("core.refills", timer.refills as f64);
    outcome.set("core.retries", timer.retries as f64);
    outcome.set("core.clb_hit_ratio", timer.clb_hit_ratio());
    outcome.set("core.bypass_ratio", timer.bypass_ratio());
    outcome.set("core.bus_bytes_per_refill", timer.bus_bytes_per_refill());

    // Suite construction, split: assembling and tracing the programs
    // (workloads), the assembler alone, and instruction decode and bit
    // reading over the results.
    let (built, took) = timed(|| TracedWorkload::ALL.map(|w| w.build().expect("workload builds")));
    outcome.set("workloads.build_ms", ms(took));
    let (_, took) = timed(|| {
        for w in TracedWorkload::ALL {
            ccrp_asm::assemble(&w.source()).expect("kernel assembles");
        }
    });
    outcome.set("asm.assemble_us", took.as_secs_f64() * 1e6 / 8.0);
    let words: Vec<u32> = built
        .iter()
        .flat_map(|w| w.text.chunks_exact(4))
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let (valid, took) = timed(|| {
        words
            .iter()
            .filter(|&&w| ccrp_isa::decode(w).is_ok())
            .count()
    });
    std::hint::black_box(valid);
    outcome.set(
        "isa.decode_ns_per_word",
        took.as_nanos() as f64 / words.len() as f64,
    );
    let packed: Vec<Vec<u8>> = suite.iter().map(|p| p.image.packed_blocks()).collect();
    let bytes: usize = packed.iter().map(Vec::len).sum();
    let (sum, took) = timed(|| {
        let mut sum = 0u64;
        for blocks in &packed {
            let mut reader = BitReader::new(blocks);
            while let Ok(byte) = reader.read_bits(8) {
                sum = sum.wrapping_add(u64::from(byte));
            }
        }
        sum
    });
    std::hint::black_box(sum);
    outcome.set(
        "bitstream.read_ns_per_byte",
        took.as_nanos() as f64 / bytes as f64,
    );
}

fn traced(args: &Args, passes: &[Pass], outcome: &mut Outcome) {
    let reference = passes.last().expect("at least one pass");
    let untraced: Vec<f64> = passes.iter().map(|p| ms(p.wall())).collect();

    spans::set_enabled(true);
    let from = spans::now();
    let mut pool = Pool::new(args.jobs);
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let suite = suite_with_jobs(args.jobs);
    let mut pass = 0u64;
    while traced_ms.is_empty() || start.elapsed() < args.seconds / 2 {
        let (_, took) = timed(|| {
            spans::with_trial(pass, || replica_pass(suite, &mut pool, reference, outcome))
        });
        traced_ms.push(ms(took));
        pass += 1;
    }
    let to = spans::now();
    spans::set_enabled(false);

    let recorded = spans::snapshot();
    let per_pass = traced_ms.len() as f64;
    let names = spans::by_name(&recorded);
    let total = |name: &str| names.get(name).map_or(0, |&(_, total, _)| total) as f64;
    let count = |name: &str| names.get(name).map_or(0, |&(count, _, _)| count) as f64;
    for (layer, ns) in spans::self_by_layer(&recorded) {
        outcome.set(&format!("{layer}.self_ms"), ns as f64 / per_pass / 1e6);
    }
    outcome.set(
        "sim.trace_capture_ms",
        total("sim.trace_capture") / per_pass / 1e6,
    );
    outcome.set(
        "core.image_build_us",
        total("core.image_build") / count("core.image_build").max(1.0) / 1e3,
    );
    for id in CodecId::ALL {
        let build = code_build_span(id);
        outcome.set(
            &format!("compress.code_build_us.{}", id.name()),
            total(build) / count(build).max(1.0) / 1e3,
        );
    }
    let lines: f64 = suite
        .iter()
        .map(|p| p.workload.text.len().div_ceil(LINE_SIZE) as f64)
        .sum();
    for id in CodecId::ALL {
        outcome.set(
            &format!("compress.expand_line_ns.{}", id.name()),
            total(expand_span(id)) / (lines * per_pass),
        );
    }
    outcome.set("bench.parallel_map_busy_ratio", pool.busy_ratio());
    outcome.set(
        "bench.trace_overhead_pct",
        (median(&traced_ms) / median(&untraced) - 1.0) * 100.0,
    );
    outcome.set(
        "bench.span_coverage_pct",
        spans::coverage(&recorded, from, to) * 100.0,
    );
    let (eprom, burst) = rel_perf_1k(reference);
    outcome.set("sim.rel_perf_eprom_1k", eprom);
    outcome.set("sim.rel_perf_burst_1k", burst);
    outcome.set("sim.paper_anchor_err", anchor_err(reference));
    layer_probes(suite, reference, outcome);
    outcome.set(
        "bench.error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    note("traced_passes", traced_ms.len(), "count");
    note("untraced_passes", untraced.len(), "count");
}
