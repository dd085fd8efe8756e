//! Segment-parallel trace replay.
//!
//! [`compare_segmented`] splits a trace into fixed-size segments and
//! replays them across the [`parallel_map`] worker pool, using the
//! checkpointable steppers ([`StandardSim`] / [`CcrpSim`]):
//!
//! 1. **Recording** — one probe-free serial pass over the trace,
//!    snapshotting both processors at every segment boundary;
//! 2. **Replay** — each segment independently restores its opening
//!    snapshot pair and replays its trace slice, returning its closing
//!    snapshot pair;
//! 3. **Fold** — closing snapshots are checked against the next
//!    segment's recorded opening snapshot *in segment order*, so a
//!    restore that desynchronized is pinned to the segment that broke
//!    ([`SegmentError::Desync`]) instead of corrupting downstream
//!    stats. The final [`Comparison`] is derived from the last
//!    segment's verified closing snapshots.
//!
//! Because every worker starts from a recorded snapshot and the fold
//! runs in segment order, the report is byte-identical across `jobs`
//! settings — the same jobs-independence contract the sweep and
//! difftest campaigns already keep.

use std::fmt;

use ccrp::CompressedImage;

use crate::runner::parallel_map;
use ccrp_sim::{
    CcrpSim, CcrpSimSnapshot, Comparison, SimError, StandardSim, StandardSimSnapshot, SystemConfig,
};

/// Why a segmented replay failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum SegmentError {
    /// The replay was misconfigured (zero segment size).
    Config(String),
    /// The underlying simulation failed (bad geometry, fetch outside
    /// the image).
    Sim(SimError),
    /// A replayed segment's closing state did not match the next
    /// segment's recorded opening snapshot — a checkpointing bug, never
    /// a property of the workload.
    Desync {
        /// Index of the segment whose replay drifted.
        segment: usize,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Config(what) => write!(f, "invalid segmented replay: {what}"),
            SegmentError::Sim(err) => write!(f, "simulation failed: {err}"),
            SegmentError::Desync { segment } => write!(
                f,
                "segment {segment} replay desynchronized from the recorded checkpoint chain"
            ),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Sim(err) => Some(err),
            SegmentError::Config(_) | SegmentError::Desync { .. } => None,
        }
    }
}

impl From<SimError> for SegmentError {
    fn from(err: SimError) -> Self {
        SegmentError::Sim(err)
    }
}

/// A finished segmented replay.
#[derive(Debug, Clone)]
pub struct SegmentReplayReport {
    /// The paper's metrics, identical to
    /// [`Simulation::compare`](ccrp_sim::Simulation::compare) over the
    /// same trace.
    pub comparison: Comparison,
    /// Segments the trace was split into (at least 1).
    pub segments: u64,
}

/// Replays `trace` through both processors in segments of `every`
/// entries fanned across `jobs` workers, verifying the recorded
/// checkpoint chain, and reports the same [`Comparison`] a monolithic
/// [`Simulation::compare`](ccrp_sim::Simulation::compare) produces.
///
/// # Errors
///
/// [`SegmentError::Sim`] when `every == 0`, the configuration is
/// invalid, or the trace fetches outside the image;
/// [`SegmentError::Desync`] when a replayed segment fails to reproduce
/// the next recorded checkpoint.
pub fn compare_segmented(
    image: &CompressedImage,
    trace: &[(u32, u8)],
    config: &SystemConfig,
    every: usize,
    jobs: usize,
) -> Result<SegmentReplayReport, SegmentError> {
    if every == 0 {
        return Err(SegmentError::Config(
            "segment size must be at least 1".to_string(),
        ));
    }

    // Pass 1: serial recording, snapshotting at each segment boundary.
    let mut std_sim = StandardSim::new(config)?;
    let mut ccrp_sim = CcrpSim::new(config)?;
    let mut starts: Vec<(StandardSimSnapshot, CcrpSimSnapshot)> = Vec::new();
    for (index, &(pc, data)) in trace.iter().enumerate() {
        if index % every == 0 {
            starts.push((std_sim.snapshot(), ccrp_sim.snapshot()));
        }
        std_sim.step(pc, data);
        ccrp_sim.step(image, pc, data)?;
    }
    if starts.is_empty() {
        starts.push((std_sim.snapshot(), ccrp_sim.snapshot()));
    }
    let recorded_end = (std_sim.snapshot(), ccrp_sim.snapshot());

    // Pass 2: fan the segments over the worker pool. Each worker owns
    // fresh steppers, restores its opening snapshots, and replays its
    // slice of the trace.
    let indices: Vec<usize> = (0..starts.len()).collect();
    let ends = parallel_map(jobs, &indices, |&segment| {
        let lo = segment * every;
        let hi = trace.len().min(lo + every);
        let mut std_sim = StandardSim::new(config)?;
        let mut ccrp_sim = CcrpSim::new(config)?;
        std_sim.restore(&starts[segment].0);
        ccrp_sim.restore(&starts[segment].1);
        for &(pc, data) in &trace[lo..hi] {
            std_sim.step(pc, data);
            ccrp_sim.step(image, pc, data)?;
        }
        Ok::<_, SimError>((std_sim.snapshot(), ccrp_sim.snapshot()))
    });

    // Pass 3: fold in segment order, verifying each closing snapshot
    // against the next recorded opening (the recording pass's own final
    // state closes the chain).
    let mut last = None;
    for (segment, (result, _wall)) in ends.into_iter().enumerate() {
        let end = result?;
        let expected = starts.get(segment + 1).unwrap_or(&recorded_end);
        if end != *expected {
            return Err(SegmentError::Desync { segment });
        }
        last = Some(end);
    }
    let (std_end, ccrp_end) = last.expect("at least one segment");
    let mut std_sim = StandardSim::new(config)?;
    std_sim.restore(&std_end);
    let mut ccrp_sim = CcrpSim::new(config)?;
    ccrp_sim.restore(&ccrp_end);
    Ok(SegmentReplayReport {
        comparison: Comparison {
            standard: std_sim.stats(),
            ccrp: ccrp_sim.stats(),
        },
        segments: starts.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{sim_cells, Experiment};
    use crate::suite::suite;

    #[test]
    fn segmented_replay_reproduces_tables_1_to_8() {
        // Every third Tables 1–8 cell (the full matrix is swept
        // monolithically elsewhere): segmented replay must reproduce the
        // monolithic RunStats exactly, for both processors.
        let s = suite();
        for cell in sim_cells(Experiment::Tables1To8, s).iter().step_by(3) {
            let monolithic = cell.simulate(s);
            let prepared = s.get(cell.workload);
            let trace: Vec<(u32, u8)> = prepared.workload.trace.iter().collect();
            let every = (trace.len() / 5).max(1);
            let segmented = compare_segmented(&prepared.image, &trace, &cell.config(), every, 2)
                .expect("segmented replay runs");
            assert_eq!(
                segmented.comparison,
                monolithic,
                "cell {} drifted under segmentation",
                cell.label()
            );
            assert_eq!(
                segmented.segments,
                trace.len().div_ceil(every).max(1) as u64
            );
        }
    }

    #[test]
    fn report_is_jobs_independent() {
        let s = suite();
        let cell = &sim_cells(Experiment::Tables1To8, s)[0];
        let prepared = s.get(cell.workload);
        let trace: Vec<(u32, u8)> = prepared.workload.trace.iter().collect();
        let serial = compare_segmented(&prepared.image, &trace, &cell.config(), 1000, 1)
            .expect("serial replay runs");
        let parallel = compare_segmented(&prepared.image, &trace, &cell.config(), 1000, 4)
            .expect("parallel replay runs");
        assert_eq!(serial.comparison, parallel.comparison);
        assert_eq!(serial.segments, parallel.segments);
    }

    #[test]
    fn zero_segment_size_is_rejected() {
        let s = suite();
        let cell = &sim_cells(Experiment::Tables1To8, s)[0];
        let prepared = s.get(cell.workload);
        let result = compare_segmented(&prepared.image, &[], &cell.config(), 0, 1);
        assert!(matches!(result, Err(SegmentError::Config(_))));
    }
}
