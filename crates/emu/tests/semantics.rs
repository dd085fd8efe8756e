//! Instruction-semantics tests: each R2000 behaviour pinned against an
//! independent Rust computation, plus property tests for the tricky
//! corners (unaligned access pairs, signed/unsigned edges).

use ccrp_asm::assemble;
use ccrp_emu::{Machine, NullSink};
use ccrp_isa::Reg;
use proptest::prelude::*;

/// Assembles a fragment that leaves its result in `$v1`, runs it, and
/// returns the register value.
fn eval(body: &str) -> u32 {
    run(body).reg(Reg::V1)
}

/// Assembles and runs a fragment, returning the exited machine.
fn run(body: &str) -> Machine {
    let source = format!("main:\n{body}\n li $v0, 10\n syscall\n");
    let image = assemble(&source).expect("fragment assembles");
    let mut machine = Machine::new(&image);
    machine.run(&mut NullSink).expect("fragment runs");
    machine
}

/// The first four text bytes `body` assembles to (text starts at 0).
fn first_text_bytes(body: &str) -> [u8; 4] {
    let source = format!("main:\n{body}\n li $v0, 10\n syscall\n");
    let image = assemble(&source).expect("fragment assembles");
    let mut bytes = [0; 4];
    bytes.copy_from_slice(&image.text_bytes()[..4]);
    bytes
}

#[test]
fn alu_edge_cases() {
    // addu wraps
    assert_eq!(
        eval("li $t0, 0xFFFFFFFF\n addiu $t1, $t0, 1\n move $v1, $t1"),
        0
    );
    // subu borrows
    assert_eq!(eval("li $t0, 0\n li $t1, 1\n subu $v1, $t0, $t1"), u32::MAX);
    // nor of zero is all ones
    assert_eq!(eval("nor $v1, $zero, $zero"), u32::MAX);
    // sra keeps sign, srl does not
    assert_eq!(eval("li $t0, 0x80000000\n sra $v1, $t0, 4"), 0xF800_0000);
    assert_eq!(eval("li $t0, 0x80000000\n srl $v1, $t0, 4"), 0x0800_0000);
    // variable shift masks to 5 bits
    assert_eq!(eval("li $t0, 1\n li $t1, 33\n sllv $v1, $t0, $t1"), 2);
}

#[test]
fn compare_edges() {
    assert_eq!(
        eval("li $t0, 0x80000000\n li $t1, 1\n slt $v1, $t0, $t1"),
        1
    );
    assert_eq!(
        eval("li $t0, 0x80000000\n li $t1, 1\n sltu $v1, $t0, $t1"),
        0
    );
    assert_eq!(eval("li $t0, -1\n slti $v1, $t0, 0"), 1);
    assert_eq!(eval("li $t0, -1\n sltiu $v1, $t0, 0"), 0);
    // sltiu compares against the *sign-extended* immediate as unsigned.
    assert_eq!(eval("li $t0, 5\n sltiu $v1, $t0, -1"), 1);
}

#[test]
fn immediate_extension_rules() {
    // andi/ori/xori zero-extend.
    assert_eq!(
        eval("li $t0, 0xFFFF0000\n ori $v1, $t0, 0x8000"),
        0xFFFF_8000
    );
    assert_eq!(
        eval("li $t0, 0xFFFFFFFF\n andi $v1, $t0, 0x8000"),
        0x0000_8000
    );
    assert_eq!(eval("li $t0, 0\n xori $v1, $t0, 0xFFFF"), 0x0000_FFFF);
    // addiu sign-extends.
    assert_eq!(eval("li $t0, 0\n addiu $v1, $t0, -1"), u32::MAX);
}

#[test]
fn hi_lo_precision() {
    // Signed multiply of negatives.
    assert_eq!(
        eval("li $t0, -3\n li $t1, 4\n mult $t0, $t1\n mflo $v1"),
        (-12i32) as u32
    );
    assert_eq!(
        eval("li $t0, -3\n li $t1, 4\n mult $t0, $t1\n mfhi $v1"),
        u32::MAX // sign extension of the 64-bit product
    );
    // Signed division truncates toward zero; remainder keeps dividend sign.
    assert_eq!(
        eval("li $t0, -7\n li $t1, 2\n div $t0, $t1\n mflo $v1"),
        (-3i32) as u32
    );
    assert_eq!(
        eval("li $t0, -7\n li $t1, 2\n div $t0, $t1\n mfhi $v1"),
        (-1i32) as u32
    );
    // mthi/mtlo round trip.
    assert_eq!(eval("li $t0, 77\n mthi $t0\n mfhi $v1"), 77);
    assert_eq!(eval("li $t0, 78\n mtlo $t0\n mflo $v1"), 78);
}

#[test]
fn branch_taken_and_not_taken() {
    for (op, a, b, expect) in [
        ("beq", 5, 5, 1u32),
        ("beq", 5, 6, 0),
        ("bne", 5, 6, 1),
        ("bne", 5, 5, 0),
    ] {
        let body = format!(
            "li $t0, {a}\n li $t1, {b}\n li $v1, 0\n {op} $t0, $t1, taken\n b done\ntaken: li $v1, 1\ndone:"
        );
        assert_eq!(eval(&body), expect, "{op} {a},{b}");
    }
    for (op, value, expect) in [
        ("blez", -1i32, 1u32),
        ("blez", 0, 1),
        ("blez", 1, 0),
        ("bgtz", 1, 1),
        ("bgtz", 0, 0),
        ("bltz", -1, 1),
        ("bltz", 0, 0),
        ("bgez", 0, 1),
        ("bgez", -1, 0),
    ] {
        let body = format!(
            "li $t0, {value}\n li $v1, 0\n {op} $t0, taken\n b done\ntaken: li $v1, 1\ndone:"
        );
        assert_eq!(eval(&body), expect, "{op} {value}");
    }
}

#[test]
fn bltzal_links_even_when_not_taken() {
    // Per the R2000 manual, the link register is written unconditionally.
    let body = "
        li   $t0, 1          # positive: branch not taken
        la   $t1, here
        bltzal $t0, target
here:
        move $v1, $ra        # $ra points past the delay slot = here
        subu $v1, $v1, $t1
        b    done
target:
        li   $v1, 999
done:";
    // The delay-slot nop sits between the branch and `here`, so the
    // link value is exactly `here`.
    assert_eq!(eval(body), 0);
}

#[test]
fn sub_byte_memory() {
    // sb/lb/lbu and sh/lh/lhu sign behaviour.
    let body = "
        li   $t0, 0xFF
        sb   $t0, -4($sp)
        lb   $t1, -4($sp)       # sign-extends to -1
        lbu  $t2, -4($sp)       # zero-extends to 255
        addu $v1, $t1, $t2      # -1 + 255 = 254
    ";
    assert_eq!(eval(body), 254);
    let body = "
        li   $t0, 0x8000
        sh   $t0, -8($sp)
        lh   $t1, -8($sp)
        lhu  $t2, -8($sp)
        subu $v1, $t2, $t1      # 0x8000 - (-0x8000) = 0x10000
    ";
    assert_eq!(eval(body), 0x1_0000);
}

#[test]
fn fp_single_vs_double_precision() {
    // 1/3 in single then widened differs from 1/3 in double — checks the
    // emulator honours the format distinction.
    let body = "
        .data
        .align 3
one:    .double 1.0
three:  .double 3.0
onef:   .float 1.0
threef: .float 3.0
        .text
        la   $t0, one
        l.d  $f2, 0($t0)
        la   $t0, three
        l.d  $f4, 0($t0)
        div.d $f6, $f2, $f4      # double 1/3
        la   $t0, onef
        l.s  $f8, 0($t0)
        la   $t0, threef
        l.s  $f10, 0($t0)
        div.s $f12, $f8, $f10    # single 1/3
        cvt.d.s $f14, $f12       # widen
        c.eq.d $f6, $f14
        li   $v1, 1
        bc1f  differ
        li   $v1, 0
differ:";
    assert_eq!(
        eval(body),
        1,
        "single-precision 1/3 widened must differ from double"
    );
}

#[test]
fn lwl_swl_at_the_bottom_of_memory() {
    // Effective addresses 0-3 fall in the aligned word at address 0 (the
    // first text word); the access must not step below address 0.
    for offset in 0..4usize {
        let body = format!("li $v1, 0\n lwl $v1, {offset}($zero)");
        let text = first_text_bytes(&body);
        let mut expected = [0u8; 4];
        expected[3 - offset..].copy_from_slice(&text[..=offset]);
        assert_eq!(
            eval(&body),
            u32::from_le_bytes(expected),
            "lwl {offset}($zero)"
        );

        let body = format!("li $t1, 0x11223344\n swl $t1, {offset}($zero)\n lw $v1, 0($zero)");
        let mut expected = first_text_bytes(&body);
        expected[..=offset].copy_from_slice(&0x1122_3344u32.to_le_bytes()[3 - offset..]);
        assert_eq!(
            eval(&body),
            u32::from_le_bytes(expected),
            "swl {offset}($zero)"
        );
    }
}

#[test]
fn print_string_wraps_past_the_top_of_memory() {
    // "hi" fills the last two bytes of the address space and the
    // terminator sits at address 0, so the walk wraps to reach it.
    let body = "
        li   $a0, -2
        li   $t1, 0x68
        sb   $t1, 0($a0)
        li   $t1, 0x69
        sb   $t1, 1($a0)
        sb   $zero, 0($zero)
        li   $v0, 4
        syscall
    ";
    assert_eq!(run(body).output(), "hi");
}

proptest! {
    /// lwr+lwl reconstruct any unaligned word exactly.
    #[test]
    fn unaligned_load_pair(bytes in proptest::array::uniform8(any::<u8>()), offset in 0u32..5) {
        let byte_list = bytes.map(|b| b.to_string()).join(", ");
        let body = format!(
            "
            .data
buf:        .byte {byte_list}
            .text
            la   $t0, buf
            .set noreorder
            lwr  $v1, {offset}($t0)
            lwl  $v1, {off3}($t0)
            .set reorder
            ",
            off3 = offset + 3
        );
        let expected = u32::from_le_bytes([
            bytes[offset as usize],
            bytes[offset as usize + 1],
            bytes[offset as usize + 2],
            bytes[offset as usize + 3],
        ]);
        prop_assert_eq!(eval(&body), expected);
    }

    /// swr+swl store any word to any unaligned address exactly.
    #[test]
    fn unaligned_store_pair(value: u32, offset in 0u32..5) {
        let body = format!(
            "
            .data
buf:        .space 12
            .text
            la   $t0, buf
            li   $t1, {value}
            .set noreorder
            swr  $t1, {offset}($t0)
            swl  $t1, {off3}($t0)
            lwr  $v1, {offset}($t0)
            lwl  $v1, {off3}($t0)
            .set reorder
            ",
            off3 = offset + 3
        );
        prop_assert_eq!(eval(&body), value);
    }

    /// Integer arithmetic matches Rust's wrapping semantics.
    #[test]
    fn alu_matches_rust(a: i32, b: i32) {
        let body = format!("li $t0, {a}\n li $t1, {b}\n addu $v1, $t0, $t1");
        prop_assert_eq!(eval(&body), (a as u32).wrapping_add(b as u32));
        let body = format!("li $t0, {a}\n li $t1, {b}\n xor $v1, $t0, $t1");
        prop_assert_eq!(eval(&body), (a ^ b) as u32);
        let body = format!("li $t0, {a}\n li $t1, {b}\n slt $v1, $t0, $t1");
        prop_assert_eq!(eval(&body), u32::from(a < b));
    }

    /// mult's 64-bit product matches Rust's.
    #[test]
    fn mult_matches_rust(a: i32, b: i32) {
        let product = i64::from(a) * i64::from(b);
        let body = format!("li $t0, {a}\n li $t1, {b}\n mult $t0, $t1\n mflo $v1");
        prop_assert_eq!(eval(&body), product as u32);
        let body = format!("li $t0, {a}\n li $t1, {b}\n mult $t0, $t1\n mfhi $v1");
        prop_assert_eq!(eval(&body), (product >> 32) as u32);
    }
}
