//! Output oracles for the paper sweep.
//!
//! Four experiments have a committed results file at the root of the
//! checkout; a sweep's deterministic section must equal the file's once
//! the host-dependent `jobs` and `timing` keys are dropped. The other
//! three have no committed copy, so their compact results documents are
//! pinned here by FNV-1a digest, taken from the code this benchmark was
//! written against.

use std::fs;

use ccrp_bench::json::Json;

/// The committed results files the oracles read, by sweep section.
pub const COMMITTED: [(&str, &str); 4] = [
    ("fig5", "BENCH_fig5.json"),
    ("tables1_8", "BENCH_tables1_8.json"),
    ("codecs", "BENCH_codecs.json"),
    ("isa_compare", "BENCH_isa_compare.json"),
];

/// FNV-1a digests of `results_json().to_compact()` for the sections
/// without a committed file.
pub const PINNED: [(&str, u64); 3] = [
    ("tables9_10", 0x2f60_e670_8b28_8b97),
    ("fig9", 0x9942_5281_ce1d_7ac8),
    ("tables11_13", 0xaa0a_dc9d_3e76_54b6),
];

/// Fails unless the committed results files are present (the benchmark
/// runs from the root of a checkout).
pub fn check_checkout() -> Result<(), String> {
    for (_, file) in COMMITTED {
        if fs::metadata(file).is_err() {
            return Err(format!(
                "{file} not found: run from the root of a checkout of the repository"
            ));
        }
    }
    Ok(())
}

/// The expected deterministic result of each sweep section.
pub struct SweepOracle {
    committed: Vec<(&'static str, String)>,
}

impl SweepOracle {
    /// Reads and normalizes every committed results file.
    pub fn load() -> Result<SweepOracle, String> {
        let mut committed = Vec::new();
        for (section, file) in COMMITTED {
            let text = fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let mut json = Json::parse(&text).map_err(|e| format!("{file}: {e:?}"))?;
            json.remove("jobs");
            json.remove("timing");
            committed.push((section, json.to_compact()));
        }
        Ok(SweepOracle { committed })
    }

    /// Whether `results` (a section's compact deterministic JSON) is the
    /// expected one.
    pub fn accepts(&self, section: &str, results: &str) -> bool {
        let ok = if let Some((_, expected)) = self.committed.iter().find(|(s, _)| *s == section) {
            expected == results
        } else {
            let digest = crate::stats::fnv1a(results.as_bytes());
            let pinned = PINNED.iter().find(|(s, _)| *s == section).map(|&(_, d)| d);
            if pinned != Some(digest) {
                eprintln!("perfbench: {section} results digest {digest:#018x}, pinned {pinned:x?}");
            }
            pinned == Some(digest)
        };
        if !ok {
            eprintln!("perfbench: {section} results differ from the oracle");
        }
        ok
    }
}
