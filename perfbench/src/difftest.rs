//! The `difftest` workload: seeded lockstep trials alternating the MIPS
//! (`run_trial`) and RV32 (`run_trial_rv32`) campaigns. Trial `i` uses
//! `trial_seed(seed, i)`; even trials are MIPS, odd ones RV32. One
//! operation is one trial, and every trial must end in `Match`.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccrp::{CompressedImage, DegradePolicy};
use ccrp_asm::assemble;
use ccrp_bench::difftest::trial_seed;
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram, PositionalCode, PositionalHistogram};
use ccrp_difftest::rv32::rv32_disasm_window;
use ccrp_difftest::{
    build_rom, build_rv32_rom, check_refill_invariants, compare_cores, run_cosim_with,
    run_lockstep, run_trial, run_trial_rv32, CosimVariant, CosimVerdict, LockstepVariant, ProgGen,
    TrialOutcome, TrialReport, TRIAL_MAX_STEPS,
};
use ccrp_emu::{IsaCore, NullSink};
use ccrp_isa::Isa;
use ccrp_rv32::progen::Rv32ProgGen;
use ccrp_rv32::{Encoding, Rv32Config, Rv32Machine, Rv32c};

use crate::metrics::{note, Outcome};
use crate::spans::{self, span, Pool};
use crate::stats::{median, ms, peak_rss_mb, tail};
use crate::Args;

/// Set-ups (warm-up batches) per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Campaign seed of the warm-up trials (fixed, so set-up does not vary
/// with `--seed`).
const WARM_UP_SEED: u64 = 0x5E7_0000;
/// Trials handed to the worker pool at a time.
const BATCH: usize = 16;
/// Trials whose ROMs `rom_size_pct` is measured over.
const ROM_SIZE_TRIALS: usize = 32;

/// The deterministic part of a trial report: outcome code, reference
/// instructions, text bytes, LAT entries, refills.
type Summary = (char, u64, u64, u64, u64);

fn summary(report: &TrialReport) -> Summary {
    (
        report.outcome.code(),
        report.instructions,
        report.text_bytes,
        report.lat_entries,
        report.refills,
    )
}

fn is_mips(index: usize) -> bool {
    index.is_multiple_of(2)
}

/// Runs trial `index` of the campaign for `seed` through the library,
/// counting a panic as a failure.
fn library_trial(seed: u64, index: usize) -> Option<TrialReport> {
    let trial = trial_seed(seed, index);
    panic::catch_unwind(|| {
        if is_mips(index) {
            run_trial(trial)
        } else {
            run_trial_rv32(trial)
        }
    })
    .ok()
}

/// Timed batches of trials from index 0 until `budget` has elapsed:
/// (per-trial summaries, per-trial durations, summed batch wall time).
fn campaign(
    pool: &mut Pool,
    budget: Duration,
    trial: impl Fn(usize) -> Option<Summary> + Sync,
) -> (Vec<Option<Summary>>, Vec<Duration>, Duration) {
    let mut summaries = Vec::new();
    let mut took = Vec::new();
    let mut wall = Duration::ZERO;
    let start = Instant::now();
    while summaries.is_empty() || start.elapsed() < budget {
        let indices: Vec<usize> = (summaries.len()..summaries.len() + BATCH).collect();
        let (batch, batch_wall) = pool.map(&indices, |&index| {
            spans::with_trial(index as u64, || trial(index))
        });
        wall += batch_wall;
        for (summary, duration) in batch {
            summaries.push(summary);
            took.push(duration);
        }
    }
    (summaries, took, wall)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let mut pool = Pool::new(args.jobs);

    // Set-up: a warm-up batch of trials on a campaign seed of its own
    // (worker start-up, allocator and cache warm-up).
    let mut setups = Vec::new();
    for k in 0..SETUPS {
        let start = Instant::now();
        let (warm, _, _) = campaign(&mut pool, Duration::ZERO, |index| {
            library_trial(WARM_UP_SEED, index).map(|r| summary(&r))
        });
        if !warm.iter().all(|s| matches!(s, Some(s) if s.0 == 'M')) {
            outcome.mismatch(format!("warm-up batch {k} did not match"));
        }
        let took = if k == 0 {
            args.started.elapsed()
        } else {
            start.elapsed()
        };
        setups.push(took.as_secs_f64());
    }

    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let seed = args.seed;
    let (summaries, took, wall) = campaign(&mut pool, budget, |index| {
        library_trial(seed, index).map(|r| summary(&r))
    });
    for summary in &summaries {
        outcome.check(matches!(summary, Some(s) if s.0 == 'M'));
    }
    let trial_ms: Vec<f64> = took.iter().map(|d| ms(*d)).collect();

    if args.trace {
        traced(args, &summaries, &trial_ms, &mut outcome);
        return outcome;
    }

    let (tail_ms, tail_p) = tail(&trial_ms);
    let per_isa = |mips: bool| -> Vec<f64> {
        trial_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| is_mips(*i) == mips)
            .map(|(_, t)| *t)
            .collect()
    };
    outcome.set("setup_s", median(&setups));
    let rate = summaries.len() as f64 / wall.as_secs_f64();
    outcome.set("work_per_s", rate);
    outcome.set("op_ms_p50", median(&trial_ms));
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set("rom_size_pct", rom_size_pct(seed));
    note("difftest_programs_per_s", rate, "1/s");
    note("trial_ms_p50", median(&trial_ms), "ms");
    note("trial_ms_tail", tail_ms, "ms");
    note("trial_ms_tail_percentile", tail_p, "p");
    note("trials", summaries.len(), "count");
    note("trial_ms_p50.mips", median(&per_isa(true)), "ms");
    note("trial_ms_p50.rv32", median(&per_isa(false)), "ms");
    note(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    outcome
}

/// Byte-Huffman ROM size over text size, percent, for the first
/// [`ROM_SIZE_TRIALS`] programs of the campaign (RV32 in both encodings).
fn rom_size_pct(seed: u64) -> f64 {
    let (mut stored, mut original) = (0u64, 0u64);
    let mut add = |rom: CompressedImage| {
        stored += u64::from(rom.total_stored_bytes(false));
        original += u64::from(rom.original_bytes());
    };
    for index in 0..ROM_SIZE_TRIALS {
        let trial = trial_seed(seed, index);
        if is_mips(index) {
            let source = ProgGen::generate(trial).source();
            let image = assemble(&source).expect("generated program assembles");
            add(build_rom(&image).expect("ROM builds"));
        } else {
            let generated = Rv32ProgGen::generate(trial);
            for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
                let image = generated
                    .assemble(encoding)
                    .expect("generated program assembles");
                add(build_rv32_rom(&image).expect("ROM builds"));
            }
        }
    }
    stored as f64 / original as f64 * 100.0
}

// ---------------------------------------------------------------------
// The traced run: each trial rebuilt from the public calls it makes.
// ---------------------------------------------------------------------

fn byte_huffman_rom(base: u32, text: &[u8]) -> Result<CompressedImage, String> {
    let code = span("compress.code_build.byte-huffman", || {
        ByteCode::preselected(&ByteHistogram::of(text))
    })
    .map_err(|e| format!("code selection failed: {e}"))?;
    span("core.image_build", || {
        CompressedImage::build(base, text, code, BlockAlignment::Word)
    })
    .map_err(|e| format!("compressed image build failed: {e}"))
}

fn roundtrip(bytes: impl FnOnce() -> Vec<u8>) -> Result<CompressedImage, String> {
    span("core.container_roundtrip", || {
        CompressedImage::from_bytes(&bytes())
    })
    .map_err(|e| format!("container round-trip failed: {e}"))
}

fn empty_report() -> TrialReport {
    TrialReport {
        outcome: TrialOutcome::Match,
        instructions: 0,
        text_bytes: 0,
        lat_entries: 0,
        refills: 0,
        segments: 0,
    }
}

/// `run_trial`, call by call (a divergence is reported unshrunk).
fn mips_trial(seed: u64) -> TrialReport {
    let mut report = empty_report();
    let source = span("difftest.progen", || ProgGen::generate(seed).source());
    let image = match span("asm.assemble", || assemble(&source)) {
        Ok(image) => image,
        Err(err) => {
            report.outcome = TrialOutcome::GenFailure(format!("assembly failed: {err}"));
            return report;
        }
    };
    report.text_bytes = u64::from(image.text_size());
    report.lat_entries = u64::from(image.text_lines().div_ceil(8));
    let variants = (|| -> Result<Vec<CosimVariant>, String> {
        let text = image.text_bytes();
        let rom = byte_huffman_rom(image.text_base(), text)?;
        let v1 = roundtrip(|| rom.to_bytes())?;
        let v2 = roundtrip(|| rom.to_bytes_v2())?;
        let code = span("compress.code_build.positional", || {
            PositionalCode::preselected(&PositionalHistogram::of(text))
        })
        .map_err(|e| format!("positional code selection failed: {e}"))?;
        let positional = span("core.image_build", || {
            CompressedImage::build_with_codec(
                image.text_base(),
                text,
                Arc::new(code),
                BlockAlignment::Word,
            )
        })
        .map_err(|e| format!("positional image build failed: {e}"))?;
        let positional = roundtrip(|| positional.to_bytes_v2())?;
        let variant = |label, rom, policy| CosimVariant { label, rom, policy };
        Ok(vec![
            variant("direct-abort", rom, DegradePolicy::Abort),
            variant("v1-trap", v1, DegradePolicy::Trap),
            variant("v2-retry", v2, DegradePolicy::Retry { attempts: 2 }),
            variant("positional-v2", positional, DegradePolicy::Abort),
        ])
    })();
    let verdict = variants.and_then(|variants| {
        span("difftest.lockstep", || {
            run_cosim_with(&image, variants, TRIAL_MAX_STEPS)
        })
    });
    match verdict {
        Err(err) => {
            report.outcome = TrialOutcome::GenFailure(err);
            return report;
        }
        Ok(CosimVerdict::Divergence(divergence)) => {
            report.outcome = TrialOutcome::Divergence(divergence);
            return report;
        }
        Ok(CosimVerdict::Match { instructions }) => report.instructions = instructions,
    }
    match byte_huffman_rom(image.text_base(), image.text_bytes()) {
        Ok(rom) => {
            let timing = span("difftest.invariants", || check_refill_invariants(&rom));
            report.refills = timing.refills;
            if !timing.clean() {
                report.outcome = TrialOutcome::TimingViolation(timing.violations.join("; "));
            }
        }
        Err(err) => report.outcome = TrialOutcome::GenFailure(err),
    }
    report
}

/// `run_trial_rv32`, call by call.
fn rv32_trial(seed: u64) -> TrialReport {
    let mut report = empty_report();
    let generated = span("difftest.progen", || Rv32ProgGen::generate(seed));
    let mut finals = Vec::new();
    for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
        let image = match span("rv32.assemble", || generated.assemble(encoding)) {
            Ok(image) => image,
            Err(err) => {
                report.outcome = TrialOutcome::GenFailure(format!("assembly failed: {err}"));
                return report;
            }
        };
        report.text_bytes += u64::from(image.text_size());
        report.lat_entries += u64::from(image.text_lines().div_ceil(8));
        let config = Rv32Config {
            max_steps: TRIAL_MAX_STEPS,
            ..Rv32Config::default()
        };
        let roms = (|| -> Result<Vec<(&'static str, CompressedImage)>, String> {
            let rom = byte_huffman_rom(image.text_base(), image.text())?;
            let v1 = roundtrip(|| rom.to_bytes())?;
            let v2 = roundtrip(|| rom.to_bytes_v2())?;
            Ok(vec![
                ("direct", rom),
                ("v1-container", v1),
                ("v2-container", v2),
            ])
        })();
        let verdict = roms.and_then(|roms| {
            span("difftest.lockstep", || {
                let reference = Rv32Machine::with_config(&image, config.clone());
                let variants = roms
                    .into_iter()
                    .map(|(label, rom)| LockstepVariant {
                        label,
                        machine: Rv32Machine::with_compressed_text(&image, &rom, config.clone()),
                    })
                    .collect();
                run_lockstep(
                    reference,
                    variants,
                    image.entry(),
                    TRIAL_MAX_STEPS,
                    compare_cores::<Rv32Machine>,
                    |pc| rv32_disasm_window(&image, pc),
                )
            })
        });
        match verdict {
            Err(err) => {
                report.outcome = TrialOutcome::GenFailure(err);
                return report;
            }
            Ok(CosimVerdict::Divergence(divergence)) => {
                report.outcome = TrialOutcome::Divergence(divergence);
                return report;
            }
            Ok(CosimVerdict::Match { instructions }) => report.instructions += instructions,
        }
        match byte_huffman_rom(image.text_base(), image.text()) {
            Ok(rom) => {
                let timing = span("difftest.invariants", || check_refill_invariants(&rom));
                report.refills += timing.refills;
                if !timing.clean() {
                    report.outcome = TrialOutcome::TimingViolation(timing.violations.join("; "));
                    return report;
                }
            }
            Err(err) => {
                report.outcome = TrialOutcome::GenFailure(err);
                return report;
            }
        }
        let mut machine = Rv32Machine::with_config(&image, config);
        if let Err(err) = span("rv32.run", || machine.run(&mut NullSink)) {
            report.outcome = TrialOutcome::GenFailure(format!("rerun faulted: {err}"));
            return report;
        }
        let gprs: Vec<u32> = (0..Rv32c::GPR_COUNT).map(|i| machine.gpr(i)).collect();
        finals.push((machine.output().to_string(), machine.exit_code(), gprs));
    }
    if finals[0] != finals[1] {
        report.outcome = TrialOutcome::GenFailure("the two encodings ended differently".into());
    }
    report
}

/// Per-trial phases of the split, with the span names each one sums.
const PHASES: [(&str, &[&str]); 8] = [
    ("generate", &["difftest.progen"]),
    ("assemble", &["asm.assemble", "rv32.assemble"]),
    (
        "code_build",
        &[
            "compress.code_build.byte-huffman",
            "compress.code_build.positional",
        ],
    ),
    ("image_build", &["core.image_build"]),
    ("container", &["core.container_roundtrip"]),
    ("lockstep", &["difftest.lockstep"]),
    ("invariants", &["difftest.invariants"]),
    ("rerun", &["rv32.run"]),
];

fn traced(args: &Args, untraced: &[Option<Summary>], untraced_ms: &[f64], outcome: &mut Outcome) {
    let seed = args.seed;
    spans::set_enabled(true);
    let from = spans::now();
    let mut pool = Pool::new(args.jobs);
    let (summaries, took, _) = campaign(&mut pool, args.seconds / 2, |index| {
        let trial = trial_seed(seed, index);
        panic::catch_unwind(AssertUnwindSafe(|| {
            span("difftest.trial", || {
                if is_mips(index) {
                    mips_trial(trial)
                } else {
                    rv32_trial(trial)
                }
            })
        }))
        .ok()
        .map(|r| summary(&r))
    });
    let to = spans::now();
    spans::set_enabled(false);

    let mut failures = 0u64;
    let mut instructions = 0u64;
    for (index, traced) in summaries.iter().enumerate() {
        outcome.check(matches!(traced, Some(s) if s.0 == 'M'));
        failures += u64::from(!matches!(traced, Some(s) if s.0 == 'M'));
        instructions += traced.map_or(0, |s| s.1);
        if let Some(reference) = untraced.get(index) {
            if reference != traced {
                outcome.mismatch(format!(
                    "trial {index}: traced {traced:?} vs untraced {reference:?}"
                ));
            }
        }
    }
    let recorded = spans::snapshot();
    let trials = summaries.len() as f64;
    let traced_ms: Vec<f64> = took.iter().map(|d| ms(*d)).collect();
    let names = spans::by_name(&recorded);
    let total = |name: &str| names.get(name).map_or(0, |&(_, total, _)| total) as f64;
    let per_call = |name: &str| {
        names
            .get(name)
            .map_or(0.0, |&(count, total, _)| total as f64 / count.max(1) as f64)
    };

    for (layer, ns) in spans::self_by_layer(&recorded) {
        outcome.set(&format!("{layer}.self_ms"), ns as f64 / trials / 1e6);
    }
    outcome.set("difftest.progen_us", per_call("difftest.progen") / 1e3);
    outcome.set("asm.assemble_us", per_call("asm.assemble") / 1e3);
    outcome.set("rv32.assemble_us", per_call("rv32.assemble") / 1e3);
    outcome.set("core.image_build_us", per_call("core.image_build") / 1e3);
    outcome.set(
        "core.container_roundtrip_us",
        per_call("core.container_roundtrip") / 1e3,
    );
    outcome.set(
        "compress.code_build_us.byte-huffman",
        per_call("compress.code_build.byte-huffman") / 1e3,
    );
    outcome.set(
        "compress.code_build_us.positional",
        per_call("compress.code_build.positional") / 1e3,
    );
    outcome.set("difftest.lockstep_us", per_call("difftest.lockstep") / 1e3);
    outcome.set(
        "difftest.lockstep_ns_per_instr",
        total("difftest.lockstep") / instructions.max(1) as f64,
    );
    outcome.set(
        "difftest.invariants_us",
        per_call("difftest.invariants") / 1e3,
    );
    outcome.set("difftest.instructions", instructions as f64);
    outcome.set("difftest.failures", failures as f64);
    outcome.set("bench.parallel_map_busy_ratio", pool.busy_ratio());
    outcome.set(
        "bench.trace_overhead_pct",
        (median(&traced_ms) / median(untraced_ms) - 1.0) * 100.0,
    );
    outcome.set(
        "bench.span_coverage_pct",
        spans::coverage(&recorded, from, to) * 100.0,
    );
    outcome.set(
        "bench.error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    // The per-ISA split of trial time: mean microseconds per trial.
    for (isa, mips) in [("mips", true), ("rv32", false)] {
        let mut phase_ns: BTreeMap<&str, u64> = BTreeMap::new();
        let mut trial_ns = 0u64;
        let mut count = 0u64;
        for span in &recorded {
            let Some(trial) = span.trial else { continue };
            if is_mips(trial as usize) != mips {
                continue;
            }
            if span.name == "difftest.trial" {
                trial_ns += span.duration();
                count += 1;
            }
            for (phase, names) in PHASES {
                if names.contains(&span.name) {
                    *phase_ns.entry(phase).or_default() += span.duration();
                }
            }
        }
        let per_trial = |ns: u64| ns as f64 / count.max(1) as f64 / 1e3;
        let mut accounted = 0u64;
        for (phase, _) in PHASES {
            let ns = phase_ns.get(phase).copied().unwrap_or(0);
            accounted += ns;
            note(&format!("split.{isa}.{phase}_us"), per_trial(ns), "us");
        }
        note(
            &format!("split.{isa}.other_us"),
            per_trial(trial_ns.saturating_sub(accounted)),
            "us",
        );
        note(&format!("split.{isa}.trial_us"), per_trial(trial_ns), "us");
        note(&format!("split.{isa}.trials"), count, "count");
    }
}
