//! Differential property test for [`Memory`]: random sequences of
//! byte, halfword and word writes, bulk loads and reads, clustered at
//! page edges and at both ends of the address space, checked against a
//! naive byte-map model after every operation.

use ccrp_emu::{Memory, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const PAGE_BITS: u32 = PAGE_BYTES.trailing_zeros();

#[derive(Debug, Clone)]
enum Op {
    Write { addr: u32, width: u32, value: u32 },
    Load { base: u32, bytes: Vec<u8> },
    Read { addr: u32, width: u32 },
}

/// One entry per written byte, plus the set of mapped pages; mapped
/// bytes never written read as zero.
#[derive(Default)]
struct Model {
    bytes: HashMap<u32, u8>,
    pages: BTreeSet<u32>,
}

impl Model {
    fn write(&mut self, addr: u32, width: u32, value: u32) {
        for i in 0..width {
            let a = addr.wrapping_add(i);
            self.pages.insert(a >> PAGE_BITS);
            self.bytes.insert(a, (value >> (8 * i)) as u8);
        }
    }

    fn read(&self, addr: u32, width: u32) -> Option<u32> {
        let mut value = 0;
        for i in 0..width {
            let a = addr.wrapping_add(i);
            if !self.pages.contains(&(a >> PAGE_BITS)) {
                return None;
            }
            value |= u32::from(self.bytes.get(&a).copied().unwrap_or(0)) << (8 * i);
        }
        Some(value)
    }
}

fn read(memory: &Memory, addr: u32, width: u32) -> Option<u32> {
    match width {
        1 => memory.read_u8(addr).map(u32::from),
        2 => memory.read_u16(addr).map(u32::from),
        _ => memory.read_u32(addr),
    }
}

fn write(memory: &mut Memory, addr: u32, width: u32, value: u32) {
    match width {
        1 => memory.write_u8(addr, value as u8),
        2 => memory.write_u16(addr, value as u16),
        _ => memory.write_u32(addr, value),
    }
}

/// Mostly a few bytes either side of a page edge — address 0, the top
/// of memory, the machines' text/data/stack bases, the edges of a
/// 1 MiB region — sometimes anywhere.
fn addr() -> impl Strategy<Value = u32> {
    let edges = vec![
        0u32,
        0x1000,
        0x2000,
        0x000F_F000,
        0x0010_0000,
        0x0040_0000,
        0x00F0_0000,
        0x8000_0000,
        0xFFFF_F000,
    ];
    let near_edge = (proptest::sample::select(edges), -6i32..6)
        .prop_map(|(edge, delta)| edge.wrapping_add(delta as u32));
    prop_oneof![near_edge.clone(), near_edge, any::<u32>()]
}

fn width() -> impl Strategy<Value = u32> {
    proptest::sample::select(vec![1u32, 2, 4])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), width(), any::<u32>()).prop_map(|(addr, width, value)| Op::Write {
            addr,
            width,
            value
        }),
        (addr(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(base, bytes)| Op::Load { base, bytes }),
        (
            addr(),
            proptest::collection::vec(any::<u8>(), PAGE_BYTES..(2 * PAGE_BYTES + 9))
        )
            .prop_map(|(base, bytes)| Op::Load { base, bytes }),
        (addr(), width()).prop_map(|(addr, width)| Op::Read { addr, width }),
        (addr(), width()).prop_map(|(addr, width)| Op::Read { addr, width }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memory_matches_byte_map_model(ops in proptest::collection::vec(op(), 1..32)) {
        let mut memory = Memory::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Write { addr, width, value } => {
                    write(&mut memory, *addr, *width, *value);
                    model.write(*addr, *width, *value);
                }
                Op::Load { base, bytes } => {
                    memory.load(*base, bytes);
                    for (i, b) in bytes.iter().enumerate() {
                        model.write(base.wrapping_add(i as u32), 1, u32::from(*b));
                    }
                }
                Op::Read { addr, width } => {
                    prop_assert_eq!(read(&memory, *addr, *width), model.read(*addr, *width));
                }
            }
            prop_assert_eq!(memory.mapped_pages(), model.pages.len());
        }

        // Every access of every width at and around each address the
        // sequence touched agrees with the final model.
        for op in &ops {
            let (Op::Write { addr, .. } | Op::Load { base: addr, .. } | Op::Read { addr, .. }) = op;
            for delta in [-4i32, -3, -2, -1, 0, 1, 2, 3, 4] {
                let probe = addr.wrapping_add(delta as u32);
                for width in [1, 2, 4] {
                    prop_assert_eq!(read(&memory, probe, width), model.read(probe, width));
                }
            }
        }

        // `pages()` ascends and covers exactly the model's pages, with
        // their bytes.
        let indices: Vec<u32> = memory.pages().map(|(index, _)| index).collect();
        prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "pages out of order");
        prop_assert_eq!(&indices, &model.pages.iter().copied().collect::<Vec<_>>());
        for (index, page) in memory.pages() {
            for (offset, &byte) in page.iter().enumerate() {
                let a = (index << PAGE_BITS) | offset as u32;
                prop_assert_eq!(Some(u32::from(byte)), model.read(a, 1));
            }
        }

        // A clone is equal, and so is a rebuild from `pages()` in
        // reverse order; one changed byte breaks equality.
        let clone = memory.clone();
        prop_assert_eq!(&clone, &memory);
        let mut rebuilt = Memory::new();
        for (index, page) in memory.pages().collect::<Vec<_>>().into_iter().rev() {
            rebuilt.install_page(index, page);
        }
        prop_assert_eq!(&rebuilt, &memory);
        if let Some(&a) = model.bytes.keys().next() {
            let old = rebuilt.read_u8(a).unwrap_or(0);
            rebuilt.write_u8(a, old ^ 1);
            prop_assert_ne!(&rebuilt, &memory);
        }
    }
}
