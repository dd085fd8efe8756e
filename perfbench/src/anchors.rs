//! The paper's relative-performance anchor cells.
//!
//! Copied from the side-by-side tables in `EXPERIMENTS.md` ("Tables 1–8 —
//! relative performance vs. cache size" and "Tables 11–13 — data-cache
//! effects"), which quote Wolfe & Chanin, MICRO-25 1992: Tables 1–8
//! (NASA7's two cells from Table 9, Table 1 being truncated in the scan)
//! and Tables 11–13. Cells printed as "—" there are left out.
//!
//! The eight workloads of this repository are synthesized substitutes for
//! the paper's DECstation binaries, so the mean gap to these cells is a
//! distance from the paper's programs, not a validated model error.

use ccrp_sim::MemoryModel;

/// Which sweep section an anchor is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Tables 1–8 at this instruction-cache size in bytes (16-entry CLB).
    Tables1To8 { cache_bytes: u32 },
    /// Tables 11–13 at this data-cache miss rate in percent (1 KiB
    /// instruction cache).
    Tables11To13 { dcache_miss_pct: u32 },
}

/// One anchor cell: the paper's relative performance for a
/// (workload, memory model, configuration).
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Workload name as in the paper's tables.
    pub workload: &'static str,
    /// Memory model.
    pub memory: MemoryModel,
    /// Where the measured counterpart lives.
    pub section: Section,
    /// The paper's relative performance (CCRP time / standard time).
    pub paper: f64,
}

const fn t18(workload: &'static str, memory: MemoryModel, cache_bytes: u32, paper: f64) -> Anchor {
    Anchor {
        workload,
        memory,
        section: Section::Tables1To8 { cache_bytes },
        paper,
    }
}

const fn t1113(workload: &'static str, memory: MemoryModel, pct: u32, paper: f64) -> Anchor {
    Anchor {
        workload,
        memory,
        section: Section::Tables11To13 {
            dcache_miss_pct: pct,
        },
        paper,
    }
}

use MemoryModel::{BurstEprom as B, Eprom as E};

/// Every anchor cell quoted in `EXPERIMENTS.md`.
pub const ANCHORS: [Anchor; 27] = [
    t18("NASA7", E, 256, 0.976),
    t18("NASA7", B, 256, 1.098),
    t18("NASA7", E, 4096, 0.991),
    t18("NASA7", B, 4096, 1.048),
    t18("matrix25A", E, 256, 0.980),
    t18("matrix25A", B, 256, 1.038),
    t18("matrix25A", E, 1024, 0.994),
    t18("matrix25A", B, 1024, 1.013),
    t18("matrix25A", E, 4096, 0.995),
    t18("matrix25A", B, 4096, 1.010),
    t18("fpppp", E, 256, 0.983),
    t18("fpppp", B, 256, 1.029),
    t18("fpppp", E, 2048, 1.000),
    t18("fpppp", B, 2048, 1.000),
    t18("espresso", E, 256, 0.905),
    t18("espresso", B, 256, 1.323),
    t18("espresso", E, 4096, 0.957),
    t18("espresso", B, 4096, 1.147),
    t18("eightq", E, 256, 0.884),
    t18("NASA1", B, 256, 1.070),
    t1113("NASA7", B, 0, 1.162),
    t1113("NASA7", B, 2, 1.158),
    t1113("NASA7", B, 10, 1.142),
    t1113("NASA7", B, 25, 1.120),
    t1113("NASA7", B, 100, 1.068),
    t1113("fpppp", E, 0, 0.906),
    t1113("fpppp", E, 100, 0.931),
];
