//! The unified simulation entry point.
//!
//! [`Simulation`] is the crate's one way to run a simulation: a
//! [`SystemConfig`] plus optional probes and an optional
//! [`StepBudget`], executed over either a live per-fetch trace or a
//! captured [`AccessTrace`] (see [`SimSource`]). Probing and budgeting
//! are builder steps, not separate entry points.
//!
//! ```
//! use ccrp::CompressedImage;
//! use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
//! use ccrp_sim::{AccessTrace, MemoryModel, Simulation, SystemConfig};
//!
//! let text = vec![0u8; 2048];
//! let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
//! let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
//! let trace: Vec<(u32, u8)> =
//!     (0..2).flat_map(|_| (0..2048u32).step_by(4)).map(|pc| (pc, 0)).collect();
//! let config = SystemConfig::new()
//!     .with_cache_bytes(256)
//!     .with_memory(MemoryModel::Eprom);
//!
//! // Live source: re-executes the per-fetch trace.
//! let live = Simulation::new(config).compare(&image, trace.iter().copied())?;
//!
//! // Captured source: capture once, replay for any number of configs.
//! let captured = AccessTrace::capture(trace.iter().copied());
//! let replayed = Simulation::new(config).compare(&image, &captured)?;
//! assert_eq!(live, replayed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ccrp::{CompressedImage, RefillConfig, StepBudget};
use ccrp_probe::{NullProbe, Probe};

use crate::icache::ICache;
use crate::memory::MemoryModel;
use crate::stepper::{CcrpSim, StandardSim};
use crate::system::{Comparison, RunStats, SimError, SystemConfig};
use crate::trace::{AccessTrace, FetchRun};

/// What a [`Simulation`] executes over: a live per-fetch
/// `(pc, data_access_count)` stream, or a captured, run-compacted
/// [`AccessTrace`]. Both produce bit-identical [`RunStats`] and event
/// streams; the captured form replays several times faster.
///
/// Any `(u32, u8)` iterator converts into the live form and an
/// `&AccessTrace` into the captured form, so call sites pass either
/// directly to [`Simulation`]'s execution methods.
#[derive(Debug)]
pub enum SimSource<'t, I: IntoIterator<Item = (u32, u8)> = std::iter::Empty<(u32, u8)>> {
    /// Re-execute a per-fetch trace.
    Live(I),
    /// Replay a captured trace run by run.
    Captured(&'t AccessTrace),
}

impl<'t, I: IntoIterator<Item = (u32, u8)>> From<I> for SimSource<'t, I> {
    fn from(fetches: I) -> Self {
        SimSource::Live(fetches)
    }
}

impl<'t> From<&'t AccessTrace> for SimSource<'t> {
    fn from(trace: &'t AccessTrace) -> Self {
        SimSource::Captured(trace)
    }
}

/// The single entry point for trace-driven system simulation: configure
/// once, optionally attach probes and a budget, then execute.
///
/// * [`standard`](Self::standard) — the uncompressed R2000-style
///   processor;
/// * [`ccrp`](Self::ccrp) — the CCRP, refilling through a
///   [`CompressedImage`]'s LAT/CLB/decoder path;
/// * [`compare`](Self::compare) — both over the same source, one cell
///   of the paper's Tables 1–13;
/// * [`replay_sweep`](Self::replay_sweep) — both processors for *many*
///   configurations in one pass over a captured trace.
///
/// Probes ([`standard_probed`](Self::standard_probed) /
/// [`ccrp_probed`](Self::ccrp_probed)) observe the identical event
/// stream the old `_probed` functions reported; a budget
/// ([`budgeted`](Self::budgeted)) charges the simulated cycles each
/// step consumed, exactly like the old `_budgeted` functions, so a
/// hostile trace or pathological memory model is bounded by fuel.
pub struct Simulation<'e, SP: Probe = NullProbe, CP: Probe = NullProbe> {
    config: SystemConfig,
    standard_probe: Option<&'e mut SP>,
    ccrp_probe: Option<&'e mut CP>,
    budget: Option<&'e mut StepBudget>,
}

impl<'e> Simulation<'e> {
    /// Starts a simulation of `config` with no probes and no budget.
    pub fn new(config: SystemConfig) -> Self {
        Simulation {
            config,
            standard_probe: None,
            ccrp_probe: None,
            budget: None,
        }
    }

    /// Replays a captured trace through both processors for *every*
    /// configuration — the trace-once, replay-many sweep kernel.
    /// Equivalent to (but much faster than) calling
    /// [`compare`](Self::compare) per config.
    ///
    /// The work is proportional to misses, not fetches. Configs are
    /// grouped by cache size, and one tag array per size filters the
    /// trace: every same-size direct-mapped cache misses at exactly the
    /// same runs, because a hit changes no tag. Hits only add to
    /// pending totals, which each simulator state applies in bulk just
    /// before its next miss and at the end of the trace. Duplicate
    /// states are simulated once: the standard processor per (size,
    /// memory) and the CCRP per config with the data cache left out,
    /// since the data cache is only a formula over the final
    /// [`RunStats`].
    ///
    /// # Errors
    ///
    /// As [`compare`](Self::compare); on error the whole sweep is
    /// abandoned, reporting the error of the earliest failing run for
    /// the first config that fails there.
    pub fn replay_sweep(
        image: &CompressedImage,
        trace: &AccessTrace,
        configs: &[SystemConfig],
    ) -> Result<Vec<Comparison>, SimError> {
        let mut groups: Vec<SizeGroup> = Vec::new();
        // Per config: its group and the indices of its two states.
        let mut slots = Vec::with_capacity(configs.len());
        for (index, config) in configs.iter().enumerate() {
            let g = find_or_push(
                &mut groups,
                |group| group.cache_bytes == config.cache_bytes,
                || SizeGroup::new(config.cache_bytes),
            )?;
            let group = &mut groups[g];
            let s = find_or_push(
                &mut group.standard,
                |(memory, _)| *memory == config.memory,
                || Ok((config.memory, StandardSim::new(config)?)),
            )?;
            let key = (config.memory, config.refill);
            let c = find_or_push(
                &mut group.ccrp,
                |state| state.key == key,
                || {
                    Ok(CcrpState {
                        key,
                        first_config: index,
                        sim: CcrpSim::new(config)?,
                    })
                },
            )?;
            slots.push((g, s, c));
        }

        // (run index, config index, error) of the earliest failure.
        let mut failure: Option<(usize, usize, SimError)> = None;
        for group in &mut groups {
            if let Err((run, state, error)) = group.replay(image, trace.runs()) {
                let at = (run, group.ccrp[state].first_config);
                if failure.as_ref().is_none_or(|&(r, c, _)| at < (r, c)) {
                    failure = Some((at.0, at.1, error));
                }
            }
        }
        if let Some((_, _, error)) = failure {
            return Err(error);
        }

        Ok(configs
            .iter()
            .zip(slots)
            .map(|(config, (g, s, c))| {
                let mut standard = groups[g].standard[s].1.stats();
                let mut ccrp = groups[g].ccrp[c].sim.stats();
                standard.data_stall_cycles = config.dcache.stall_cycles(standard.data_accesses);
                ccrp.data_stall_cycles = config.dcache.stall_cycles(ccrp.data_accesses);
                Comparison { standard, ccrp }
            })
            .collect())
    }
}

/// The [`Simulation::replay_sweep`] states sharing one cache size, plus
/// the tag array that tells them where the misses are.
struct SizeGroup {
    cache_bytes: u32,
    filter: ICache,
    /// One standard processor per memory model.
    standard: Vec<(MemoryModel, StandardSim)>,
    /// One CCRP per distinct (memory model, refill config).
    ccrp: Vec<CcrpState>,
}

struct CcrpState {
    key: (MemoryModel, RefillConfig),
    /// The first config in sweep order that maps to this state.
    first_config: usize,
    sim: CcrpSim,
}

/// The index of the first of `items` that `matches` accepts, pushing
/// `make()` when none does.
fn find_or_push<T>(
    items: &mut Vec<T>,
    matches: impl FnMut(&T) -> bool,
    make: impl FnOnce() -> Result<T, SimError>,
) -> Result<usize, SimError> {
    if let Some(index) = items.iter().position(matches) {
        return Ok(index);
    }
    items.push(make()?);
    Ok(items.len() - 1)
}

impl SizeGroup {
    fn new(cache_bytes: u32) -> Result<Self, SimError> {
        Ok(SizeGroup {
            cache_bytes,
            filter: ICache::new(cache_bytes)?,
            standard: Vec::new(),
            ccrp: Vec::new(),
        })
    }

    /// Replays `runs` through every state, stepping the states only at
    /// misses. On a refill error, returns the failing run's index and
    /// the index of the first CCRP state that failed on it.
    fn replay(
        &mut self,
        image: &CompressedImage,
        runs: &[FetchRun],
    ) -> Result<(), (usize, usize, SimError)> {
        let (mut hits, mut data) = (0u64, 0u64);
        for (index, &run) in runs.iter().enumerate() {
            // An empty run replays as a no-op, exactly as in
            // `replay_run_probed`.
            if run.fetches == 0 {
                continue;
            }
            if self.filter.access(run.first_pc) {
                hits += u64::from(run.fetches);
                data += u64::from(run.data);
                continue;
            }
            for (_, sim) in &mut self.standard {
                sim.record_hits(hits, data);
                sim.replay_run_probed(run, &mut NullProbe);
            }
            for (state, ccrp) in self.ccrp.iter_mut().enumerate() {
                ccrp.sim.record_hits(hits, data);
                ccrp.sim
                    .replay_run_probed(image, run, &mut NullProbe)
                    .map_err(|error| (index, state, error))?;
            }
            (hits, data) = (0, 0);
        }
        for (_, sim) in &mut self.standard {
            sim.record_hits(hits, data);
        }
        for ccrp in &mut self.ccrp {
            ccrp.sim.record_hits(hits, data);
        }
        Ok(())
    }
}

impl<'e, SP: Probe, CP: Probe> Simulation<'e, SP, CP> {
    /// Attaches a cooperative budget: every step charges the simulated
    /// cycles it consumed (minimum 1), so refill storms burn fuel
    /// proportionally to the time they model. [`compare`](Self::compare)
    /// charges both runs to the same budget, standard first.
    #[must_use]
    pub fn budgeted(mut self, budget: &'e mut StepBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a probe to the standard processor's run, observing
    /// [`Event::CacheMiss`](ccrp_probe::Event::CacheMiss) and
    /// [`Event::MemoryBurst`](ccrp_probe::Event::MemoryBurst).
    #[must_use]
    pub fn standard_probed<P: Probe>(self, probe: &'e mut P) -> Simulation<'e, P, CP> {
        Simulation {
            config: self.config,
            standard_probe: Some(probe),
            ccrp_probe: self.ccrp_probe,
            budget: self.budget,
        }
    }

    /// Attaches a probe to the CCRP's run, observing the full event
    /// stream: misses plus everything
    /// [`RefillEngine::refill_probed`](ccrp::RefillEngine::refill_probed)
    /// emits (refill start/done, CLB hit/miss/evict, memory bursts).
    #[must_use]
    pub fn ccrp_probed<P: Probe>(self, probe: &'e mut P) -> Simulation<'e, SP, P> {
        Simulation {
            config: self.config,
            standard_probe: self.standard_probe,
            ccrp_probe: Some(probe),
            budget: self.budget,
        }
    }

    /// Simulates the standard (uncompressed) processor over `source`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry;
    /// [`SimError::Budget`] when an attached budget trips.
    pub fn standard<'t, I, S>(self, source: S) -> Result<RunStats, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            standard_probe,
            budget,
            ..
        } = self;
        match standard_probe {
            Some(probe) => drive_standard(&config, source.into(), probe, budget),
            None => drive_standard(&config, source.into(), &mut NullProbe, budget),
        }
    }

    /// Simulates the CCRP over `source`, refilling through `image`'s
    /// LAT/CLB/decoder path.
    ///
    /// # Errors
    ///
    /// As [`standard`](Self::standard), plus [`SimError::Ccrp`] when the
    /// trace fetches outside the compressed image.
    pub fn ccrp<'t, I, S>(self, image: &CompressedImage, source: S) -> Result<RunStats, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            ccrp_probe,
            budget,
            ..
        } = self;
        match ccrp_probe {
            Some(probe) => drive_ccrp(&config, image, source.into(), probe, budget),
            None => drive_ccrp(&config, image, source.into(), &mut NullProbe, budget),
        }
    }

    /// Runs both processors over the same source — one cell of the
    /// paper's Tables 1–13. A live source is iterated twice (hence the
    /// `Clone` bound); a captured trace is replayed twice.
    ///
    /// # Errors
    ///
    /// As [`standard`](Self::standard) and [`ccrp`](Self::ccrp).
    pub fn compare<'t, I, S>(
        self,
        image: &CompressedImage,
        source: S,
    ) -> Result<Comparison, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        I::IntoIter: Clone,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            standard_probe,
            ccrp_probe,
            mut budget,
        } = self;
        let (standard_source, ccrp_source): (
            SimSource<'t, I::IntoIter>,
            SimSource<'t, I::IntoIter>,
        ) = match source.into() {
            SimSource::Live(fetches) => {
                let iter = fetches.into_iter();
                (SimSource::Live(iter.clone()), SimSource::Live(iter))
            }
            SimSource::Captured(trace) => (SimSource::Captured(trace), SimSource::Captured(trace)),
        };
        let standard = match standard_probe {
            Some(probe) => drive_standard(&config, standard_source, probe, budget.as_deref_mut())?,
            None => drive_standard(
                &config,
                standard_source,
                &mut NullProbe,
                budget.as_deref_mut(),
            )?,
        };
        let ccrp = match ccrp_probe {
            Some(probe) => drive_ccrp(&config, image, ccrp_source, probe, budget)?,
            None => drive_ccrp(&config, image, ccrp_source, &mut NullProbe, budget)?,
        };
        // panic-ok: debug-build invariant — both drives replay one trace.
        debug_assert_eq!(
            standard.cache.misses, ccrp.cache.misses,
            "caches see identical streams"
        );
        Ok(Comparison { standard, ccrp })
    }
}

/// The standard-processor driver both source kinds share. Budget
/// charging is per trace entry for a live source (the granularity the
/// old `_budgeted` functions had, which served campaigns depend on) and
/// per run for a captured one; either way the fuel spent equals the
/// simulated cycles consumed, so exhaustion stays deterministic.
fn drive_standard<P, I>(
    config: &SystemConfig,
    source: SimSource<'_, I>,
    probe: &mut P,
    mut budget: Option<&mut StepBudget>,
) -> Result<RunStats, SimError>
where
    P: Probe,
    I: IntoIterator<Item = (u32, u8)>,
{
    let mut sim = StandardSim::new(config)?;
    match source {
        SimSource::Live(fetches) => {
            for (pc, data) in fetches {
                let before = sim.counters().cycle;
                sim.step_probed(pc, data, probe);
                if let Some(budget) = budget.as_deref_mut() {
                    budget.charge((sim.counters().cycle - before).max(1))?;
                }
            }
        }
        SimSource::Captured(trace) => {
            for &run in trace.runs() {
                let before = sim.counters().cycle;
                sim.replay_run_probed(run, probe);
                if let Some(budget) = budget.as_deref_mut() {
                    budget.charge((sim.counters().cycle - before).max(1))?;
                }
            }
        }
    }
    Ok(sim.stats())
}

/// The CCRP driver; see [`drive_standard`] for the budget contract.
fn drive_ccrp<P, I>(
    config: &SystemConfig,
    image: &CompressedImage,
    source: SimSource<'_, I>,
    probe: &mut P,
    mut budget: Option<&mut StepBudget>,
) -> Result<RunStats, SimError>
where
    P: Probe,
    I: IntoIterator<Item = (u32, u8)>,
{
    let mut sim = CcrpSim::new(config)?;
    match source {
        SimSource::Live(fetches) => {
            for (pc, data) in fetches {
                let before = sim.counters().cycle;
                sim.step_probed(image, pc, data, probe)?;
                if let Some(budget) = budget.as_deref_mut() {
                    budget.charge((sim.counters().cycle - before).max(1))?;
                }
            }
        }
        SimSource::Captured(trace) => {
            for &run in trace.runs() {
                let before = sim.counters().cycle;
                sim.replay_run_probed(image, run, probe)?;
                if let Some(budget) = budget.as_deref_mut() {
                    budget.charge((sim.counters().cycle - before).max(1))?;
                }
            }
        }
    }
    Ok(sim.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
    use ccrp_probe::{Event, EventLog};

    fn fixture(code_bytes: usize) -> (CompressedImage, Vec<(u32, u8)>) {
        let mut text = Vec::with_capacity(code_bytes);
        let mut x = 5u32;
        for i in 0..code_bytes {
            x = x.wrapping_mul(48271);
            text.push(match i % 4 {
                0 => (x >> 28) as u8,
                1 => 0,
                2 => 0x42,
                _ => 0x24,
            });
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        let mut trace = Vec::new();
        for _ in 0..8 {
            for pc in (0..code_bytes as u32).step_by(4) {
                trace.push((pc, u8::from(pc % 16 == 0)));
            }
        }
        (image, trace)
    }

    #[test]
    fn captured_source_matches_live_for_every_model() {
        let (image, trace) = fixture(4096);
        let captured = AccessTrace::capture(trace.iter().copied());
        for model in MemoryModel::ALL {
            for cache_bytes in [256u32, 1024] {
                let config = SystemConfig::new()
                    .with_cache_bytes(cache_bytes)
                    .with_memory(model);
                let live = Simulation::new(config)
                    .compare(&image, trace.iter().copied())
                    .unwrap();
                let replayed = Simulation::new(config).compare(&image, &captured).unwrap();
                assert_eq!(live, replayed, "{model:?}/{cache_bytes}");
            }
        }
    }

    #[test]
    fn captured_source_matches_live_for_halfword_strides() {
        // RVC-style traces fetch at 2-byte granularity, so PCs land on
        // arbitrary halfwords; nothing in the capture/replay path may
        // assume the MIPS 4-byte stride.
        let (image, _) = fixture(4096);
        let mut trace = Vec::new();
        for _ in 0..4 {
            for pc in (0..4096u32).step_by(2) {
                trace.push((pc, u8::from(pc % 64 == 30)));
            }
        }
        let captured = AccessTrace::capture(trace.iter().copied());
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(512).with_memory(model);
            let live = Simulation::new(config)
                .compare(&image, trace.iter().copied())
                .unwrap();
            let replayed = Simulation::new(config).compare(&image, &captured).unwrap();
            assert_eq!(live, replayed, "{model:?}");
        }
    }

    #[test]
    fn replay_sweep_matches_per_config_compares() {
        let (image, trace) = fixture(4096);
        let captured = AccessTrace::capture(trace.iter().copied());
        let configs: Vec<SystemConfig> = MemoryModel::ALL
            .into_iter()
            .flat_map(|model| {
                [256u32, 512, 2048].map(|cache_bytes| {
                    SystemConfig::new()
                        .with_cache_bytes(cache_bytes)
                        .with_memory(model)
                })
            })
            .collect();
        let swept = Simulation::replay_sweep(&image, &captured, &configs).unwrap();
        assert_eq!(swept.len(), configs.len());
        for (config, cell) in configs.iter().zip(&swept) {
            let direct = Simulation::new(*config)
                .compare(&image, trace.iter().copied())
                .unwrap();
            assert_eq!(*cell, direct, "{config:?}");
        }
    }

    #[test]
    fn probes_see_identical_streams_from_both_sources() {
        let (image, trace) = fixture(2048);
        let captured = AccessTrace::capture(trace.iter().copied());
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);

        let mut live_std = EventLog::new();
        let mut live_ccrp = EventLog::new();
        let live = Simulation::new(config)
            .standard_probed(&mut live_std)
            .ccrp_probed(&mut live_ccrp)
            .compare(&image, trace.iter().copied())
            .unwrap();

        let mut replay_std = EventLog::new();
        let mut replay_ccrp = EventLog::new();
        let replayed = Simulation::new(config)
            .standard_probed(&mut replay_std)
            .ccrp_probed(&mut replay_ccrp)
            .compare(&image, &captured)
            .unwrap();

        assert_eq!(live, replayed);
        assert_eq!(live_std.events(), replay_std.events());
        assert_eq!(live_ccrp.events(), replay_ccrp.events());
        assert!(live_ccrp
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::RefillDone { .. })));
    }

    #[test]
    fn budget_spend_is_identical_across_sources() {
        let (image, trace) = fixture(2048);
        let captured = AccessTrace::capture(trace.iter().copied());
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);

        let mut live_budget = StepBudget::unlimited();
        let live = Simulation::new(config)
            .budgeted(&mut live_budget)
            .ccrp(&image, trace.iter().copied())
            .unwrap();
        let mut replay_budget = StepBudget::unlimited();
        let replayed = Simulation::new(config)
            .budgeted(&mut replay_budget)
            .ccrp(&image, &captured)
            .unwrap();
        assert_eq!(live, replayed);
        // Fuel equals simulated cycles either way; only the charge
        // granularity (entry vs run) differs.
        assert_eq!(live_budget.spent(), replay_budget.spent());

        // A tight budget trips a replay too, with a typed error.
        let mut tight = StepBudget::limited(200);
        let err = Simulation::new(config)
            .budgeted(&mut tight)
            .ccrp(&image, &captured)
            .unwrap_err();
        assert!(matches!(err, SimError::Budget(_)));
    }

    #[test]
    fn bad_geometry_is_rejected_before_execution() {
        let (image, _) = fixture(256);
        let config = SystemConfig::new().with_cache_bytes(100);
        let err = Simulation::new(config)
            .compare(&image, std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, SimError::Cache(_)));
        assert!(Simulation::replay_sweep(&image, &AccessTrace::default(), &[config]).is_err());
    }
}
