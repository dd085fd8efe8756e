//! `Simulation::replay_sweep` against its definition: for any list of
//! configs, every cell must equal a per-config `Simulation::compare`
//! over the live trace. The config lists mix cache sizes and contain
//! duplicates, so the sweep's per-size miss filter and its sharing of
//! identical simulator states are both exercised.

use std::sync::Arc;

use ccrp::CompressedImage;
use ccrp_compress::{
    BlockAlignment, ByteCode, ByteHistogram, LineCodec, LzwLineCodec, PositionalCode,
    PositionalHistogram,
};
use ccrp_sim::{AccessTrace, DataCacheModel, MemoryModel, Simulation, SystemConfig};
use proptest::prelude::*;

const TEXT_BYTES: u32 = 8192;
const CACHE_SIZES: [u32; 5] = [32, 256, 512, 1024, 4096];
const DECODE_RATES: [u32; 3] = [1, 2, 4];
const DCACHE_RATES: [f64; 5] = [0.0, 0.02, 0.1, 0.25, 1.0];

/// A pseudo-program of `TEXT_BYTES` bytes, compressed with codec
/// `codec` (0 byte-Huffman, 1 positional, 2 LZW).
fn image(seed: u64, codec: usize) -> CompressedImage {
    let mut x = seed | 1;
    let text: Vec<u8> = (0..TEXT_BYTES)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            match i % 4 {
                0 => (x >> 60) as u8,
                1 => 0,
                2 => 0x24,
                _ => (x >> 58) as u8 & 0x1F,
            }
        })
        .collect();
    let codec: Arc<dyn LineCodec> = match codec {
        0 => Arc::new(ByteCode::preselected(&ByteHistogram::of(&text)).unwrap()),
        1 => Arc::new(PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap()),
        _ => Arc::new(LzwLineCodec),
    };
    CompressedImage::build_with_codec(0, &text, codec, BlockAlignment::Word).unwrap()
}

/// A live trace of shape `shape`: 0 word-stride and 1 halfword-stride
/// loops over random regions, 2 two conflicting lines alternating (every
/// run misses in every cache size), 3 empty.
fn trace(seed: u64, shape: usize) -> Vec<(u32, u8)> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = |bound: u32| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) as u32) % bound
    };
    let mut out = Vec::new();
    match shape {
        0 | 1 => {
            let stride = if shape == 0 { 4 } else { 2 };
            for _ in 0..24 {
                let start = next(TEXT_BYTES / stride) * stride;
                let len = 1 + next(400);
                let repeats = 1 + next(3);
                for _ in 0..repeats {
                    let mut pc = start;
                    for _ in 0..len {
                        if pc >= TEXT_BYTES {
                            break;
                        }
                        out.push((pc, u8::from(next(4) == 0)));
                        pc += stride;
                    }
                }
            }
        }
        2 => {
            for i in 0..600u32 {
                let pc = if i % 2 == 0 { 4 } else { 4096 + 8 };
                out.push((pc, (i % 3) as u8));
            }
        }
        _ => {}
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_sweep_equals_per_config_compare(
        seed: u64,
        codec in 0usize..3,
        shape in 0usize..4,
        picks in proptest::collection::vec((0usize..5, 0usize..3, 1usize..17, 0usize..3, 0usize..5), 1..10),
        duplicates in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let image = image(seed, codec);
        let live = trace(seed, shape);
        let captured = AccessTrace::capture(live.iter().copied());
        let mut configs: Vec<SystemConfig> = picks
            .iter()
            .map(|&(size, memory, clb_entries, rate, dcache)| {
                SystemConfig::new()
                    .with_cache_bytes(CACHE_SIZES[size])
                    .with_memory(MemoryModel::ALL[memory])
                    .with_clb_entries(clb_entries)
                    .with_decode_bytes_per_cycle(DECODE_RATES[rate])
                    .with_dcache(DataCacheModel::with_miss_rate(DCACHE_RATES[dcache]))
            })
            .collect();
        for pick in duplicates {
            configs.push(configs[pick % configs.len()]);
        }

        let swept = Simulation::replay_sweep(&image, &captured, &configs).unwrap();
        prop_assert_eq!(swept.len(), configs.len());
        for (config, cell) in configs.iter().zip(&swept) {
            let direct = Simulation::new(*config)
                .compare(&image, live.iter().copied())
                .unwrap();
            prop_assert_eq!(*cell, direct, "{:?}", config);
        }
    }
}

#[test]
fn thrash_trace_misses_on_every_run() {
    let image = image(7, 0);
    let live = trace(7, 2);
    let captured = AccessTrace::capture(live.iter().copied());
    assert_eq!(captured.runs().len(), live.len());
    let configs: Vec<SystemConfig> = CACHE_SIZES
        .iter()
        .map(|&size| SystemConfig::new().with_cache_bytes(size))
        .collect();
    for cell in Simulation::replay_sweep(&image, &captured, &configs).unwrap() {
        assert_eq!(cell.standard.cache.misses, live.len() as u64);
        assert_eq!(cell.ccrp.cache.misses, live.len() as u64);
    }
}

#[test]
fn fetches_outside_the_image_fail_the_sweep() {
    let image = image(3, 0);
    let live = [(0u32, 0u8), (4, 0), (TEXT_BYTES + 64, 0)];
    let captured = AccessTrace::capture(live.iter().copied());
    let configs = [
        SystemConfig::new().with_cache_bytes(256),
        SystemConfig::new().with_cache_bytes(1024),
    ];
    let swept = Simulation::replay_sweep(&image, &captured, &configs).unwrap_err();
    let direct = Simulation::new(configs[0])
        .compare(&image, live.iter().copied())
        .unwrap_err();
    assert_eq!(swept.to_string(), direct.to_string());
}
