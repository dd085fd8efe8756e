//! Checkpoint-segmented differential co-simulation.
//!
//! The same transparency check as [`run_cosim`](crate::run_cosim), split
//! into two passes:
//!
//! 1. **Recording** — the plain-ROM reference runs alone, cheaply,
//!    capturing a serialized [`Checkpoint`] every `every` retired
//!    instructions (exercising the full byte round-trip, not just a
//!    clone);
//! 2. **Replay** — each segment restores the reference and every
//!    compressed variant from its opening checkpoint and replays in
//!    lockstep, comparing full architectural state after every
//!    instruction, exactly as the monolithic runner does.
//!
//! Segments replay in segment order and every comparison uses absolute
//! retired-instruction counts, so the verdict — down to the
//! [`DivergenceReport`] field and detail strings — is byte-identical to
//! the monolithic runner's. After each non-final segment the replayed
//! reference is checked against the next recorded checkpoint, so a
//! restore that silently desynchronized is caught immediately rather
//! than surfacing as a bogus divergence downstream.

use ccrp_emu::{Checkpoint, Machine, MachineConfig, NullSink};

use crate::cosim::{
    build_rom, compare_state, disasm_window, standard_variants, CosimVerdict, DivergenceReport,
    RecordingSink,
};
use ccrp::CompressedImage;
use ccrp_asm::ProgramImage;

/// Outcome of one segmented lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedVerdict {
    /// The verdict, identical to what the monolithic runner returns.
    pub verdict: CosimVerdict,
    /// Segments the run was split into (at least 1).
    pub segments: u64,
}

/// Runs the standard variant matrix for `image` in segmented form:
/// checkpoint-recording pass, then per-segment lockstep replay. `every`
/// is the checkpoint interval in retired instructions.
///
/// # Errors
///
/// The same infrastructure failures as [`run_cosim`](crate::run_cosim)
/// (compression broke, the reference faulted or exceeded `max_steps`),
/// plus `every == 0` and internal desynchronization (a replayed segment
/// not reaching the next recorded checkpoint — a checkpointing bug, not
/// a program divergence).
pub fn run_cosim_segmented(
    image: &ProgramImage,
    max_steps: u64,
    every: u64,
) -> Result<SegmentedVerdict, String> {
    run_cosim_segmented_on(image, &build_rom(image)?, max_steps, every)
}

/// [`run_cosim_segmented`] around an already-built `rom` (`image`'s
/// [`build_rom`] ROM), so a trial can reuse it for the refill-invariant
/// sweep.
pub(crate) fn run_cosim_segmented_on(
    image: &ProgramImage,
    rom: &CompressedImage,
    max_steps: u64,
    every: u64,
) -> Result<SegmentedVerdict, String> {
    if every == 0 {
        return Err("checkpoint interval must be at least 1".to_string());
    }
    let variants = standard_variants(image, rom)?;
    let config = MachineConfig {
        max_steps,
        ..MachineConfig::default()
    };

    // Pass 1: reference-only recording. Checkpoints round-trip through
    // bytes so the serialized form is what replay actually consumes.
    let mut reference = Machine::with_config(image, config.clone());
    let mut checkpoints = vec![record_checkpoint(&reference, 0)?];
    let mut budget = ccrp::StepBudget::limited(max_steps);
    let mut total_steps: u64 = 0;
    let mut reference_faulted = false;
    while reference.exit_code().is_none() {
        if budget.charge(1).is_err() {
            return Err(format!("reference exceeded step budget {max_steps}"));
        }
        let result = reference.step(&mut NullSink);
        total_steps += 1;
        if result.is_err() {
            // The fault replays inside the final segment, where the
            // variant comparison decides whether it is a divergence.
            reference_faulted = true;
            break;
        }
        if reference.exit_code().is_none() && total_steps.is_multiple_of(every) {
            reference.note_segment_boundary(checkpoints.len() as u32);
            checkpoints.push(record_checkpoint(&reference, checkpoints.len())?);
        }
    }
    let segments = checkpoints.len() as u64;

    // Pass 2: per-segment lockstep replay, in segment order.
    let mut reference = Machine::with_config(image, config.clone());
    let mut running: Vec<(&'static str, Machine, RecordingSink)> = Vec::new();
    for variant in variants {
        match Machine::with_compressed_text(image, &variant.rom, variant.policy, config.clone()) {
            Ok(machine) => running.push((variant.label, machine, RecordingSink::default())),
            Err(err) => {
                return Ok(SegmentedVerdict {
                    verdict: CosimVerdict::Divergence(Box::new(DivergenceReport {
                        step: 0,
                        pc: image.entry(),
                        variant: variant.label,
                        field: "construction".to_string(),
                        detail: format!("reference constructed, variant failed: {err:?}"),
                        window: disasm_window(image, image.entry()),
                        minimized: None,
                    })),
                    segments,
                });
            }
        }
    }
    let mut ref_sink = RecordingSink::default();
    for (index, checkpoint) in checkpoints.iter().enumerate() {
        let seg_end = checkpoints
            .get(index + 1)
            .map_or(total_steps, Checkpoint::steps);
        reference
            .restore(checkpoint)
            .map_err(|e| format!("segment {index}: reference restore failed: {e}"))?;
        for (label, machine, _) in &mut running {
            machine
                .restore(checkpoint)
                .map_err(|e| format!("segment {index}: variant {label} restore failed: {e}"))?;
        }
        let mut step = checkpoint.steps();
        while step < seg_end {
            let pc = reference.pc();
            ref_sink.accesses.clear();
            let ref_result = reference.step(&mut ref_sink);
            step += 1;
            for (label, machine, sink) in &mut running {
                sink.accesses.clear();
                let var_result = machine.step(sink);
                let mismatch = match (&ref_result, &var_result) {
                    (Ok(()), Ok(())) => {
                        compare_state(&reference, machine, &ref_sink.accesses, &sink.accesses)
                    }
                    (Err(a), Err(b)) if a == b => None,
                    (a, b) => Some(("fault".to_string(), format!("reference {a:?} vs {b:?}"))),
                };
                if let Some((field, detail)) = mismatch {
                    return Ok(SegmentedVerdict {
                        verdict: CosimVerdict::Divergence(Box::new(DivergenceReport {
                            step,
                            pc,
                            variant: label,
                            field,
                            detail,
                            window: disasm_window(image, pc),
                            minimized: None,
                        })),
                        segments,
                    });
                }
            }
            if let Err(err) = ref_result {
                // All variants reproduced the fault (else we returned
                // above) — a generator bug, exactly as in the monolithic
                // runner.
                return Err(format!("generated program faulted identically: {err:?}"));
            }
        }
        // Chain verification: the replayed reference must land exactly on
        // the next recorded checkpoint.
        if let Some(next) = checkpoints.get(index + 1) {
            if reference.arch_state() != next.arch_state() {
                return Err(format!(
                    "segment {index} replay desynchronized: state at step {seg_end} \
                     does not match the recorded checkpoint"
                ));
            }
        }
    }
    if reference_faulted {
        // Unreachable in practice: the fault re-raises inside the final
        // segment and returns there. Kept as a backstop so a checkpoint
        // bug cannot convert a faulting program into a silent Match.
        return Err("reference fault did not reproduce during replay".to_string());
    }
    Ok(SegmentedVerdict {
        verdict: CosimVerdict::Match {
            instructions: total_steps,
        },
        segments,
    })
}

/// Serializes and re-parses a checkpoint, so the recorded state replay
/// consumes has actually survived the byte format.
fn record_checkpoint(machine: &Machine, index: usize) -> Result<Checkpoint, String> {
    Checkpoint::from_bytes(&machine.checkpoint().to_bytes())
        .map_err(|e| format!("checkpoint {index} failed byte round-trip: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{build_rom, run_cosim, run_cosim_with, CosimVariant};
    use crate::progen::ProgGen;
    use ccrp::DegradePolicy;
    use ccrp_asm::assemble;

    #[test]
    fn segmented_verdict_matches_monolithic() {
        for seed in [0u64, 5, 9] {
            let image = assemble(&ProgGen::generate(seed).source()).expect("assembles");
            let monolithic = run_cosim(&image, 2_000_000).expect("monolithic runs");
            for every in [1u64, 7, 100, 1_000_000] {
                let segmented =
                    run_cosim_segmented(&image, 2_000_000, every).expect("segmented runs");
                assert_eq!(
                    segmented.verdict, monolithic,
                    "seed {seed} every {every} verdict drifted"
                );
                if let CosimVerdict::Match { instructions } = monolithic {
                    assert_eq!(segmented.segments, instructions.div_ceil(every).max(1));
                }
            }
        }
    }

    #[test]
    fn corrupt_rom_divergence_matches_monolithic_report() {
        let image = assemble(&ProgGen::generate(3).source()).expect("assembles");
        let mut rom = build_rom(&image).expect("builds");
        rom.corrupt_block_byte(0, 0, 0xFF).expect("corrupts");
        let variants = |rom: &ccrp::CompressedImage| {
            vec![CosimVariant {
                label: "corrupt-trap",
                rom: rom.clone(),
                policy: DegradePolicy::Trap,
            }]
        };
        let monolithic = run_cosim_with(&image, variants(&rom), 100_000).expect("runs");
        // The segmented path uses the standard matrix, so exercise the
        // corrupt ROM through the monolithic harness and just assert the
        // segmented standard run still matches its own monolithic twin.
        assert!(matches!(monolithic, CosimVerdict::Divergence(_)));
        let seg = run_cosim_segmented(&image, 100_000, 13).expect("segmented runs");
        let mono = run_cosim(&image, 100_000).expect("monolithic runs");
        assert_eq!(seg.verdict, mono);
    }

    #[test]
    fn zero_interval_is_rejected() {
        let image = assemble(&ProgGen::generate(1).source()).expect("assembles");
        assert!(run_cosim_segmented(&image, 1_000, 0).is_err());
    }
}
