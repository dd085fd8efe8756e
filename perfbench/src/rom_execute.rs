//! The `rom_execute` workload: each of the eight paper programs runs to
//! completion in six fetch configurations — MIPS direct, MIPS from a
//! compressed ROM with demand line expansion, and the RV32 ports as
//! RV32I and RV32C, each direct and from a compressed ROM. One operation
//! is one run (machine construction plus execution); it must exit
//! cleanly and print the program's expected output.

use std::time::{Duration, Instant};

use ccrp::{CompressedImage, DegradePolicy};
use ccrp_asm::ProgramImage;
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram, LINE_SIZE};
use ccrp_emu::{Machine, MachineConfig, NullSink};
use ccrp_rv32::workloads::Rv32Workload;
use ccrp_rv32::{Encoding, Rv32Config, Rv32Image, Rv32Machine};
use ccrp_workloads::{preselected_code, TracedWorkload};

use crate::metrics::{note, Outcome};
use crate::spans::{self, span, Span};
use crate::stats::{median, ms, peak_rss_mb, tail, timed};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The six fetch configurations, in run order.
const CONFIGS: [&str; 6] = [
    "mips-direct",
    "mips-rom",
    "rv32i-direct",
    "rv32i-rom",
    "rv32c-direct",
    "rv32c-rom",
];

/// One program's executables and its expected output.
struct Program {
    mips: ProgramImage,
    mips_rom: CompressedImage,
    rv32i: Rv32Image,
    rv32i_rom: CompressedImage,
    rv32c: Rv32Image,
    rv32c_rom: CompressedImage,
    mips_expected: String,
    rv32_expected: String,
}

fn self_trained_rom(image: &Rv32Image) -> CompressedImage {
    let code = span("compress.code_build.byte-huffman", || {
        ByteCode::preselected(&ByteHistogram::of(image.text())).expect("non-empty text")
    });
    span("core.image_build", || {
        CompressedImage::build(image.text_base(), image.text(), code, BlockAlignment::Word)
            .expect("text compresses")
    })
}

/// Assembles every program in both ISAs and builds its ROMs: the MIPS
/// text under the corpus-trained preselected code, the RV32 texts under
/// self-trained byte-Huffman codes.
fn build_programs() -> Vec<Program> {
    TracedWorkload::ALL
        .into_iter()
        .zip(Rv32Workload::ALL)
        .map(|(mips, rv32)| {
            let image = span("asm.assemble", || mips.assemble_kernel()).expect("kernel assembles");
            let mips_rom = span("core.image_build", || {
                CompressedImage::build(
                    image.text_base(),
                    image.text_bytes(),
                    preselected_code().clone(),
                    BlockAlignment::Word,
                )
            })
            .expect("kernel compresses");
            let rv32i = span("rv32.assemble", || rv32.padded_image(Encoding::Rv32I))
                .expect("rv32 program assembles");
            let rv32c = span("rv32.assemble", || rv32.padded_image(Encoding::Rv32C))
                .expect("rv32 program assembles");
            Program {
                mips_expected: span("workloads.expected_output", || mips.expected_output()),
                rv32_expected: span("rv32.expected_output", || rv32.expected_output()),
                mips_rom,
                rv32i_rom: self_trained_rom(&rv32i),
                rv32c_rom: self_trained_rom(&rv32c),
                mips: image,
                rv32i,
                rv32c,
            }
        })
        .collect()
}

/// What one run retired and whether its output was right.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunResult {
    instructions: u64,
    ok: bool,
}

fn run_mips(program: &Program, rom: bool) -> RunResult {
    let machine = if rom {
        span("emu.load.rom", || {
            Machine::with_compressed_text(
                &program.mips,
                &program.mips_rom,
                DegradePolicy::Trap,
                MachineConfig::default(),
            )
        })
    } else {
        Ok(span("emu.load.direct", || Machine::new(&program.mips)))
    };
    let Ok(mut machine) = machine else {
        return RunResult {
            instructions: 0,
            ok: false,
        };
    };
    let name = if rom { "emu.run.rom" } else { "emu.run.direct" };
    match span(name, || machine.run(&mut NullSink)) {
        Ok(summary) => RunResult {
            instructions: summary.instructions,
            ok: machine.output() == program.mips_expected,
        },
        Err(_) => RunResult {
            instructions: machine.steps(),
            ok: false,
        },
    }
}

fn run_rv32(program: &Program, compressed: bool, rom: bool) -> RunResult {
    let (image, rom_image) = if compressed {
        (&program.rv32c, &program.rv32c_rom)
    } else {
        (&program.rv32i, &program.rv32i_rom)
    };
    let machine = if rom {
        span("rv32.load.rom", || {
            Rv32Machine::with_compressed_text(image, rom_image, Rv32Config::default())
        })
    } else {
        Ok(span("rv32.load.direct", || Rv32Machine::new(image)))
    };
    let Ok(mut machine) = machine else {
        return RunResult {
            instructions: 0,
            ok: false,
        };
    };
    let name = match (compressed, rom) {
        (false, false) => "rv32.run.rv32i",
        (false, true) => "rv32.run.rv32i-rom",
        (true, false) => "rv32.run.rv32c",
        (true, true) => "rv32.run.rv32c-rom",
    };
    let ran = span(name, || machine.run(&mut NullSink));
    RunResult {
        instructions: machine.steps(),
        ok: ran.is_ok() && machine.output() == program.rv32_expected,
    }
}

fn run_config(program: &Program, config: usize) -> RunResult {
    match config {
        0 => run_mips(program, false),
        1 => run_mips(program, true),
        2 => run_rv32(program, false, false),
        3 => run_rv32(program, false, true),
        4 => run_rv32(program, true, false),
        _ => run_rv32(program, true, true),
    }
}

/// One pass: every program in every configuration. Returns each run's
/// result and duration, program-major.
fn pass(programs: &[Program]) -> Vec<(RunResult, Duration)> {
    let mut runs = Vec::with_capacity(programs.len() * CONFIGS.len());
    for program in programs {
        for config in 0..CONFIGS.len() {
            runs.push(timed(|| run_config(program, config)));
        }
    }
    runs
}

/// Timed passes until `budget` has elapsed (at least one).
fn passes(programs: &[Program], budget: Duration) -> Vec<Vec<(RunResult, Duration)>> {
    let mut done = Vec::new();
    let start = Instant::now();
    while done.is_empty() || start.elapsed() < budget {
        done.push(pass(programs));
    }
    done
}

/// Checks every run: clean exit with the expected output, and a ROM run
/// retiring exactly what its direct twin retired.
fn check(all: &[Vec<(RunResult, Duration)>], outcome: &mut Outcome) {
    for runs in all {
        for (index, (result, _)) in runs.iter().enumerate() {
            let twin = &runs[index - index % 2].0;
            outcome.check(result.ok && result.instructions == twin.instructions);
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    let programs = build_programs();
    let mut setups = vec![args.started.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        let (again, took) = timed(build_programs);
        drop(again);
        setups.push(took.as_secs_f64());
    }

    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let done = passes(&programs, budget);
    check(&done, &mut outcome);
    if args.trace {
        traced(args, &programs, &done, &mut outcome);
        return outcome;
    }

    let runs: Vec<&(RunResult, Duration)> = done.iter().flatten().collect();
    let retired: u64 = runs.iter().map(|(r, _)| r.instructions).sum();
    let wall: f64 = runs.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let rate = retired as f64 / 1e6 / wall;
    let latencies: Vec<f64> = runs.iter().map(|(_, d)| ms(*d)).collect();
    let (tail_ms, tail_p) = tail(&latencies);
    let (stored, original) = programs.iter().fold((0u64, 0u64), |(s, o), p| {
        [&p.mips_rom, &p.rv32i_rom, &p.rv32c_rom]
            .iter()
            .fold((s, o), |(s, o), rom| {
                (
                    s + u64::from(rom.total_stored_bytes(false)),
                    o + u64::from(rom.original_bytes()),
                )
            })
    });

    outcome.set("setup_s", median(&setups));
    outcome.set("work_per_s", rate);
    outcome.set("op_ms_p50", median(&latencies));
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set("rom_size_pct", stored as f64 / original as f64 * 100.0);
    note("exec_minstr_per_s", rate, "1/s");
    note("passes", done.len(), "count");
    note("runs", runs.len(), "count");
    note("op_ms_tail", tail_ms, "ms");
    note("op_ms_tail_percentile", tail_p, "p");
    for (config, name) in CONFIGS.iter().enumerate() {
        let (retired, took) = done
            .iter()
            .flat_map(|runs| runs.iter().skip(config).step_by(CONFIGS.len()))
            .fold((0u64, 0f64), |(n, t), (r, d)| {
                (n + r.instructions, t + d.as_secs_f64())
            });
        note(
            &format!("minstr_per_s.{name}"),
            retired as f64 / 1e6 / took,
            "1/s",
        );
    }
    note(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    );
    outcome
}

fn traced(
    args: &Args,
    programs: &[Program],
    untraced: &[Vec<(RunResult, Duration)>],
    outcome: &mut Outcome,
) {
    let pass_ms = |all: &[Vec<(RunResult, Duration)>]| -> Vec<f64> {
        all.iter()
            .map(|runs| runs.iter().map(|(_, d)| ms(*d)).sum())
            .collect()
    };
    spans::set_enabled(true);
    let from = spans::now();
    let done = passes(programs, args.seconds / 2);
    let to = spans::now();
    check(&done, outcome);
    let reference: Vec<&RunResult> = untraced[0].iter().map(|(r, _)| r).collect();
    for runs in &done {
        let traced: Vec<&RunResult> = runs.iter().map(|(r, _)| r).collect();
        if traced != reference {
            outcome.mismatch("traced runs retired differently from untraced runs".into());
            break;
        }
    }

    // Set-up calls, traced once after the timed passes.
    let setup_from = spans::now();
    drop(build_programs());
    spans::set_enabled(false);

    let recorded = spans::snapshot();
    let window: Vec<Span> = recorded
        .iter()
        .filter(|s| s.start >= from && s.end <= to)
        .cloned()
        .collect();
    let setup: Vec<Span> = recorded
        .iter()
        .filter(|s| s.start >= setup_from)
        .cloned()
        .collect();
    let runs = done.len() as f64 * (programs.len() * CONFIGS.len()) as f64;
    for (layer, ns) in spans::self_by_layer(&window) {
        outcome.set(&format!("{layer}.self_ms"), ns as f64 / runs / 1e6);
    }
    let names = spans::by_name(&window);
    let total = |name: &str| names.get(name).map_or(0, |&(_, total, _)| total) as f64;
    let retired = |config: usize| -> f64 {
        done.iter()
            .flat_map(|runs| runs.iter().skip(config).step_by(CONFIGS.len()))
            .map(|(r, _)| r.instructions as f64)
            .sum()
    };
    let rv32_direct =
        (total("rv32.run.rv32i") + total("rv32.run.rv32c")) / (retired(2) + retired(4));
    let rv32_rom =
        (total("rv32.run.rv32i-rom") + total("rv32.run.rv32c-rom")) / (retired(3) + retired(5));
    outcome.set(
        "emu.ns_per_instr.direct",
        total("emu.run.direct") / retired(0),
    );
    outcome.set("emu.ns_per_instr.rom", total("emu.run.rom") / retired(1));
    outcome.set(
        "rv32.ns_per_instr.rv32i",
        total("rv32.run.rv32i") / retired(2),
    );
    outcome.set(
        "rv32.ns_per_instr.rv32c",
        total("rv32.run.rv32c") / retired(4),
    );
    outcome.set("rv32.ns_per_instr.rom", rv32_rom);
    outcome.set("rv32.rom_extra_ns_per_instr", rv32_rom - rv32_direct);

    let setup_names = spans::by_name(&setup);
    let per_call = |name: &str| {
        setup_names
            .get(name)
            .map_or(0.0, |&(count, total, _)| total as f64 / count.max(1) as f64)
    };
    outcome.set("asm.assemble_us", per_call("asm.assemble") / 1e3);
    outcome.set("rv32.assemble_us", per_call("rv32.assemble") / 1e3);
    outcome.set("core.image_build_us", per_call("core.image_build") / 1e3);
    outcome.set(
        "compress.code_build_us.byte-huffman",
        per_call("compress.code_build.byte-huffman") / 1e3,
    );

    // Line expansion and instruction decode over the ROMs and texts the
    // runs fetch from.
    let roms: Vec<&CompressedImage> = programs
        .iter()
        .flat_map(|p| [&p.mips_rom, &p.rv32i_rom, &p.rv32c_rom])
        .collect();
    let lines: usize = roms.iter().map(|r| r.line_count()).sum();
    let (_, took) = timed(|| {
        let mut line = [0u8; LINE_SIZE];
        for rom in &roms {
            for index in 0..rom.line_count() {
                rom.expand_line_into(rom.text_base() + (index * LINE_SIZE) as u32, &mut line)
                    .expect("pristine ROM expands");
            }
        }
    });
    outcome.set(
        "compress.expand_line_ns.byte-huffman",
        took.as_nanos() as f64 / lines as f64,
    );
    let words: Vec<u32> = programs
        .iter()
        .flat_map(|p| p.mips.text_bytes().chunks_exact(4))
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

    outcome.set(
        "bench.trace_overhead_pct",
        (median(&pass_ms(&done)) / median(&pass_ms(untraced)) - 1.0) * 100.0,
    );
    outcome.set(
        "bench.span_coverage_pct",
        spans::coverage(&recorded, from, to) * 100.0,
    );
    outcome.set(
        "bench.error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    note("traced_passes", done.len(), "count");
    note("untraced_passes", untraced.len(), "count");
}
