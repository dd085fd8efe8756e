//! Hostile checkpoint files must be *rejected*, never executed: every
//! corruption is caught at [`Checkpoint::from_bytes`] with a typed
//! error (the frame header and payload are CRC-32 protected), and a
//! valid checkpoint from a different program is refused by
//! [`Machine::restore`] without touching the machine.

use ccrp::FaultInjector;
use ccrp_difftest::ProgGen;
use ccrp_emu::{Checkpoint, CheckpointError, Machine, MachineConfig, NullSink};

fn checkpoint_bytes(seed: u64, prefix: u64) -> Vec<u8> {
    let image = ccrp_asm::assemble(&ProgGen::generate(seed).source()).expect("assembles");
    let mut machine = Machine::with_config(&image, MachineConfig::default());
    for _ in 0..prefix {
        machine.step(&mut NullSink).expect("prefix runs");
    }
    machine.checkpoint().to_bytes()
}

/// 256 seeded random fault plans (bit flips and byte stomps) against a
/// real checkpoint file: every plan that actually changed bytes must be
/// rejected with an error — no panic, no silently accepted state.
#[test]
fn stomped_checkpoint_files_are_always_rejected() {
    let pristine = checkpoint_bytes(4, 100);
    assert!(Checkpoint::from_bytes(&pristine).is_ok());
    let mut injector = FaultInjector::new(0xC0FF_EE00);
    let mut rejected = 0u32;
    for trial in 0..256 {
        let plan = injector.plan_raw(pristine.len(), 1 + trial % 3);
        let mut bytes = pristine.clone();
        plan.apply(&mut bytes);
        if bytes == pristine {
            // The stomp happened to write the value already there.
            continue;
        }
        assert!(
            Checkpoint::from_bytes(&bytes).is_err(),
            "trial {trial}: corrupted checkpoint parsed successfully"
        );
        rejected += 1;
    }
    assert!(rejected > 200, "only {rejected} corruptions took effect");
}

/// Truncation at every byte length short of the full file is rejected.
#[test]
fn truncated_checkpoint_files_are_rejected() {
    let pristine = checkpoint_bytes(4, 50);
    for len in 0..pristine.len() {
        assert!(
            Checkpoint::from_bytes(&pristine[..len]).is_err(),
            "truncation to {len} bytes parsed successfully"
        );
    }
}

/// A structurally valid checkpoint taken on one program must not
/// restore into a machine running a different program, and the refusal
/// must leave the target machine untouched.
#[test]
fn checkpoint_from_another_program_is_refused() {
    let foreign = Checkpoint::from_bytes(&checkpoint_bytes(4, 100)).expect("parses");
    let image = ccrp_asm::assemble(&ProgGen::generate(5).source()).expect("assembles");
    let mut machine = Machine::with_config(&image, MachineConfig::default());
    for _ in 0..10 {
        machine.step(&mut NullSink).expect("prefix runs");
    }
    let before = machine.arch_state().clone();
    let err = machine.restore(&foreign).expect_err("must refuse");
    assert!(matches!(err, CheckpointError::ProgramMismatch { .. }));
    assert_eq!(machine.arch_state(), &before, "refusal mutated the machine");
}

/// A well-framed checkpoint naming a memory page no 32-bit address can
/// reach (index 2²⁰ or more) is rejected as malformed, not stored.
#[test]
fn unreachable_page_index_is_rejected() {
    let pristine = checkpoint_bytes(4, 0);
    let (header, payload) = ccrp::read_frame(&pristine).expect("pristine frame parses");
    // A fresh machine: no exit code, empty output and input queue, so
    // the page count follows the fixed-size register file, pc/next_pc/
    // brk, the exit tag, the step count and the two zero lengths.
    let page_count_at = 32 * 4 + 2 * 4 + 32 * 4 + 1 + 3 * 4 + 1 + 8 + 8 + 8;
    let page_count = u64::from_le_bytes(payload[page_count_at..][..8].try_into().unwrap());
    assert!(page_count > 0, "a fresh machine maps text and stack");
    let index_at = page_count_at + 8;
    assert_eq!(
        &payload[index_at..][..4],
        &0u32.to_le_bytes(),
        "text page 0 comes first"
    );
    for index in [1u32 << 20, u32::MAX] {
        let mut payload = payload.to_vec();
        payload[index_at..][..4].copy_from_slice(&index.to_le_bytes());
        let bytes = ccrp::write_frame(header.version, header.fingerprint, &payload);
        let err = Checkpoint::from_bytes(&bytes).expect_err("unreachable page accepted");
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(ccrp::SnapshotError::Malformed {
                    what: "memory page index"
                })
            ),
            "page index {index:#x}: {err}"
        );
    }
}
