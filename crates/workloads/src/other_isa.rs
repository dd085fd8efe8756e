//! Synthetic object code for instruction sets other than MIPS — the
//! paper's §5 proposal "to measure the effectiveness of this method on
//! instruction sets other than MIPS".
//!
//! A **68k-like** variable-length CISC of 16-bit words with optional
//! immediate extensions is synthesized with the same compiler-output
//! discipline as [`codegen`](crate::codegen) uses for the R2000 — the
//! already-dense encoding the paper's §1 contrasts RISC against.
//!
//! The expectation the measurement confirms: fixed-width MIPS code
//! leaves much more per-byte redundancy for a preselected code than
//! dense CISC code does — quantifying why the paper targets RISC. A
//! second, real RISC encoding (RV32I/RV32C) is measured by `ccrp-rv32`
//! and the cross-ISA comparison, not synthesized here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The synthesized instruction-set dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaDialect {
    /// MIPS R2000, via [`codegen`](crate::codegen) (the paper's ISA).
    MipsR2000,
    /// Variable-length (16/32/48-bit) CISC with 68k-style opcodes.
    M68kLike,
}

impl IsaDialect {
    /// All dialects in presentation order.
    pub const ALL: [IsaDialect; 2] = [IsaDialect::MipsR2000, IsaDialect::M68kLike];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IsaDialect::MipsR2000 => "MIPS R2000",
            IsaDialect::M68kLike => "68k-like CISC",
        }
    }
}

/// Synthesizes `target_bytes` of text in the given dialect,
/// deterministically in `(dialect, target_bytes, seed)`.
///
/// # Panics
///
/// Panics if `target_bytes` is not a multiple of 4 (both dialects
/// are padded to word multiples, as linkers do).
pub fn generate(dialect: IsaDialect, target_bytes: usize, seed: u64) -> Vec<u8> {
    assert_eq!(target_bytes % 4, 0, "text is padded to word multiples");
    match dialect {
        IsaDialect::MipsR2000 => crate::codegen::generate_text(
            &crate::codegen::CodeProfile::integer(),
            target_bytes,
            seed,
        ),
        IsaDialect::M68kLike => m68k_like(target_bytes, seed),
    }
}

fn m68k_like(target_bytes: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(target_bytes);
    let reg = |rng: &mut StdRng| rng.gen_range(0u16..8);
    while out.len() < target_bytes {
        match rng.gen_range(0..100) {
            // move.w/l register-to-register or register-indirect: 1 word.
            0..=39 => {
                let size = [0x3000u16, 0x2000, 0x1000][rng.gen_range(0..3)];
                let word = size
                    | (reg(&mut rng) << 9)
                    | (rng.gen_range(0u16..3) << 6)
                    | (rng.gen_range(0u16..3) << 3)
                    | reg(&mut rng);
                out.extend_from_slice(&word.to_be_bytes());
            }
            // move with 16-bit displacement: 2 words.
            40..=54 => {
                let word = 0x2028u16 | (reg(&mut rng) << 9) | reg(&mut rng);
                out.extend_from_slice(&word.to_be_bytes());
                let disp: i16 = 4 * rng.gen_range(0..16);
                out.extend_from_slice(&disp.to_be_bytes());
            }
            // addq/subq: 1 word, 3-bit immediate.
            55..=69 => {
                let word = 0x5080u16
                    | (rng.gen_range(1u16..8) << 9)
                    | (u16::from(rng.gen_bool(0.5)) << 8)
                    | reg(&mut rng);
                out.extend_from_slice(&word.to_be_bytes());
            }
            // Bcc with 8-bit displacement: 1 word.
            70..=84 => {
                let cond = [0x6600u16, 0x6700, 0x6A00, 0x6B00, 0x6000][rng.gen_range(0..5)];
                let disp: i8 = if rng.gen_bool(0.6) {
                    -(2 * rng.gen_range(1..32))
                } else {
                    2 * rng.gen_range(1..16)
                };
                out.extend_from_slice(&(cond | u16::from(disp as u8)).to_be_bytes());
            }
            // move.l #imm32: 3 words (the constant-heavy case).
            85..=92 => {
                let word = 0x203Cu16 | (reg(&mut rng) << 9);
                out.extend_from_slice(&word.to_be_bytes());
                let imm: u32 = if rng.gen_bool(0.6) {
                    rng.gen_range(0..4096) * 4
                } else {
                    rng.gen()
                };
                out.extend_from_slice(&imm.to_be_bytes());
            }
            // jsr with absolute word address: 2 words.
            93..=97 => {
                out.extend_from_slice(&0x4EB8u16.to_be_bytes());
                out.extend_from_slice(&(rng.gen_range(0u16..0x4000) & !1).to_be_bytes());
            }
            // rts / nop.
            _ => out.extend_from_slice(
                &if rng.gen_bool(0.5) { 0x4E75u16 } else { 0x4E71 }.to_be_bytes(),
            ),
        }
    }
    out.truncate(target_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_compress::{ByteCode, ByteHistogram};

    #[test]
    fn deterministic_and_sized() {
        for dialect in IsaDialect::ALL {
            let a = generate(dialect, 8192, 5);
            let b = generate(dialect, 8192, 5);
            assert_eq!(a.len(), 8192, "{dialect:?}");
            assert_eq!(a, b, "{dialect:?}");
        }
    }

    #[test]
    fn risc_compresses_better_than_cisc() {
        // The premise of the whole paper, measured: fixed-width RISC
        // leaves more per-byte redundancy than a dense CISC encoding.
        let ratio = |dialect: IsaDialect| {
            let text = generate(dialect, 65536, 42);
            let code = ByteCode::preselected(&ByteHistogram::of(&text)).expect("code builds");
            code.encoded_bits(&text) as f64 / (text.len() as f64 * 8.0)
        };
        let mips = ratio(IsaDialect::MipsR2000);
        let cisc = ratio(IsaDialect::M68kLike);
        assert!(mips < 0.80, "mips {mips:.3}");
        assert!(
            cisc > mips + 0.05,
            "cisc {cisc:.3} should compress notably worse than RISC ({mips:.3})"
        );
    }

    #[test]
    fn dialects_differ() {
        let a = generate(IsaDialect::MipsR2000, 4096, 1);
        let b = generate(IsaDialect::M68kLike, 4096, 1);
        assert_ne!(a, b);
    }
}
