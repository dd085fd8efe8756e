//! Incremental, checkpointable forms of the two trace-driven simulators.
//!
//! [`StandardSim`] and [`CcrpSim`] carry one trace entry's worth of
//! simulation per [`step`](StandardSim::step): exactly the loop body
//! the [`Simulation`](crate::Simulation) entry point drives — a
//! whole-source execution and an equivalent step loop are the same
//! computation, operation for operation. The compacted
//! [`replay_run_probed`](StandardSim::replay_run_probed) fast path
//! folds a [`FetchRun`] into one step plus a bulk hit update, which the
//! trace-replay engine uses to advance many configurations per pass.
//!
//! Each stepper snapshots to a plain value ([`StandardSimSnapshot`] /
//! [`CcrpSimSnapshot`]) capturing every piece of cross-step state: cache
//! tags and counters, the memory model's precharge deadline, the CLB
//! (contents, LRU order, counters), and the running [`SimCounters`].
//! Restoring a snapshot and replaying the remaining trace therefore
//! produces results identical to an unbroken run — the property the
//! segment-parallel replay scheduler in `ccrp-bench` is built on.

use ccrp::{CompressedImage, MemoryTiming, RefillEngine, RefillEngineSnapshot};
use ccrp_probe::{Event, NullProbe, Probe};

use crate::dcache::DataCacheModel;
use crate::icache::{ICache, ICacheSnapshot};
use crate::memory::{MemorySim, MemorySimSnapshot};
use crate::system::{RunStats, SimError, SystemConfig};
use crate::trace::FetchRun;

/// The running totals both steppers accumulate — the mutable scalar half
/// of a simulation snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Current simulated cycle.
    pub cycle: u64,
    /// Cycles spent waiting on line refills.
    pub refill_cycles: u64,
    /// Bytes read from instruction memory.
    pub bytes_from_memory: u64,
    /// Trace entries replayed.
    pub instructions: u64,
    /// Data accesses replayed.
    pub data_accesses: u64,
}

/// The standard (uncompressed) processor, one trace entry at a time.
#[derive(Debug, Clone)]
pub struct StandardSim {
    cache: ICache,
    memory: MemorySim,
    dcache: DataCacheModel,
    /// Scratch for burst arrivals; cleared by every read, never part of
    /// a snapshot.
    arrivals: Vec<u64>,
    counters: SimCounters,
}

impl StandardSim {
    /// Builds a stepper for `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry.
    pub fn new(config: &SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            cache: ICache::new(config.cache_bytes)?,
            memory: config.memory.timing(),
            dcache: config.dcache,
            arrivals: Vec::with_capacity(8),
            counters: SimCounters::default(),
        })
    }

    /// Replays one trace entry, reporting miss and burst events to
    /// `probe`.
    pub fn step_probed<P: Probe>(&mut self, pc: u32, data: u8, probe: &mut P) {
        self.counters.instructions += 1;
        self.counters.data_accesses += u64::from(data);
        self.counters.cycle += 1;
        if !self.cache.access(pc) {
            probe.emit(self.counters.cycle, Event::CacheMiss { address: pc });
            self.memory
                .read_burst(8, self.counters.cycle, &mut self.arrivals);
            let done = *self.arrivals.last().expect("8-word burst");
            probe.emit(self.counters.cycle, Event::MemoryBurst { words: 8, done });
            self.counters.refill_cycles += done - self.counters.cycle;
            self.counters.bytes_from_memory += 32;
            self.counters.cycle = done;
        }
    }

    /// Replays one trace entry without probing.
    pub fn step(&mut self, pc: u32, data: u8) {
        self.step_probed(pc, data, &mut NullProbe);
    }

    /// Replays one compacted [`FetchRun`] — operation for operation the
    /// same computation as stepping each of the run's fetches, because
    /// only the run's first fetch can miss in the direct-mapped cache
    /// (the remaining fetches stay in the just-accessed line) and every
    /// other per-entry update is a sum. Emits the identical event
    /// stream: misses and bursts occur only at run starts.
    pub fn replay_run_probed<P: Probe>(&mut self, run: FetchRun, probe: &mut P) {
        if run.fetches == 0 {
            return;
        }
        self.step_probed(run.first_pc, 0, probe);
        self.record_hits(u64::from(run.fetches) - 1, u64::from(run.data));
    }

    /// Accounts `fetches` instruction-cache hits issuing `data` data
    /// accesses in bulk: one cycle per hit and nothing else, because a
    /// hit changes no tag and touches neither memory nor the refill
    /// path. Callers must know the fetches hit (see
    /// [`ICache::record_hits`]).
    pub(crate) fn record_hits(&mut self, fetches: u64, data: u64) {
        self.counters.instructions += fetches;
        self.counters.data_accesses += data;
        self.counters.cycle += fetches;
        self.cache.record_hits(fetches);
    }

    /// The running totals.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Metrics as of the entries replayed so far, identical to what the
    /// whole-trace simulator reports over the same prefix.
    pub fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.counters.instructions,
            data_accesses: self.counters.data_accesses,
            cache: self.cache.stats(),
            refill_cycles: self.counters.refill_cycles,
            bytes_from_memory: self.counters.bytes_from_memory,
            data_stall_cycles: self.dcache.stall_cycles(self.counters.data_accesses),
            clb: None,
        }
    }

    /// Captures every piece of cross-step state.
    pub fn snapshot(&self) -> StandardSimSnapshot {
        StandardSimSnapshot {
            cache: self.cache.snapshot(),
            memory: self.memory.snapshot(),
            counters: self.counters,
        }
    }

    /// Restores a [`snapshot`](Self::snapshot); subsequent steps behave
    /// as if the run had never been interrupted.
    pub fn restore(&mut self, snapshot: &StandardSimSnapshot) {
        self.cache.restore(&snapshot.cache);
        self.memory.restore(&snapshot.memory);
        self.counters = snapshot.counters;
    }
}

/// The captured state of a [`StandardSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardSimSnapshot {
    /// Instruction-cache tags and counters.
    pub cache: ICacheSnapshot,
    /// Memory-model timing state.
    pub memory: MemorySimSnapshot,
    /// Running totals.
    pub counters: SimCounters,
}

/// The CCRP, one trace entry at a time.
#[derive(Debug, Clone)]
pub struct CcrpSim {
    cache: ICache,
    memory: MemorySim,
    engine: RefillEngine,
    dcache: DataCacheModel,
    counters: SimCounters,
}

impl CcrpSim {
    /// Builds a stepper for `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry, [`SimError::Ccrp`]
    /// for an invalid refill configuration.
    pub fn new(config: &SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            cache: ICache::new(config.cache_bytes)?,
            memory: config.memory.timing(),
            engine: RefillEngine::new(config.refill)?,
            dcache: config.dcache,
            counters: SimCounters::default(),
        })
    }

    /// Replays one trace entry, refilling misses through `image`'s
    /// LAT/CLB/decoder path and reporting the full event stream to
    /// `probe`.
    ///
    /// # Errors
    ///
    /// [`SimError::Ccrp`] when the trace fetches outside the image.
    pub fn step_probed<P: Probe>(
        &mut self,
        image: &CompressedImage,
        pc: u32,
        data: u8,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.counters.instructions += 1;
        self.counters.data_accesses += u64::from(data);
        self.counters.cycle += 1;
        if !self.cache.access(pc) {
            probe.emit(self.counters.cycle, Event::CacheMiss { address: pc });
            let outcome = self.engine.refill_probed(
                image,
                pc,
                self.counters.cycle,
                &mut self.memory,
                probe,
            )?;
            self.counters.refill_cycles += outcome.ready_at - self.counters.cycle;
            self.counters.bytes_from_memory += u64::from(outcome.bytes_fetched);
            self.counters.cycle = outcome.ready_at;
        }
        Ok(())
    }

    /// Replays one trace entry without probing.
    ///
    /// # Errors
    ///
    /// As [`step_probed`](Self::step_probed).
    pub fn step(&mut self, image: &CompressedImage, pc: u32, data: u8) -> Result<(), SimError> {
        self.step_probed(image, pc, data, &mut NullProbe)
    }

    /// Replays one compacted [`FetchRun`]; see
    /// [`StandardSim::replay_run_probed`] for the equivalence argument
    /// (it holds unchanged here — the LAT/CLB/decoder refill path is
    /// only entered on a miss, which only the run's first fetch can
    /// take).
    ///
    /// # Errors
    ///
    /// As [`step_probed`](Self::step_probed).
    pub fn replay_run_probed<P: Probe>(
        &mut self,
        image: &CompressedImage,
        run: FetchRun,
        probe: &mut P,
    ) -> Result<(), SimError> {
        if run.fetches == 0 {
            return Ok(());
        }
        self.step_probed(image, run.first_pc, 0, probe)?;
        self.record_hits(u64::from(run.fetches) - 1, u64::from(run.data));
        Ok(())
    }

    /// Accounts known hits in bulk; see [`StandardSim::record_hits`].
    pub(crate) fn record_hits(&mut self, fetches: u64, data: u64) {
        self.counters.instructions += fetches;
        self.counters.data_accesses += data;
        self.counters.cycle += fetches;
        self.cache.record_hits(fetches);
    }

    /// The running totals.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Metrics as of the entries replayed so far, identical to what the
    /// whole-trace simulator reports over the same prefix.
    pub fn stats(&self) -> RunStats {
        RunStats {
            instructions: self.counters.instructions,
            data_accesses: self.counters.data_accesses,
            cache: self.cache.stats(),
            refill_cycles: self.counters.refill_cycles,
            bytes_from_memory: self.counters.bytes_from_memory,
            data_stall_cycles: self.dcache.stall_cycles(self.counters.data_accesses),
            clb: Some(self.engine.clb_stats()),
        }
    }

    /// Captures every piece of cross-step state, CLB included.
    pub fn snapshot(&self) -> CcrpSimSnapshot {
        CcrpSimSnapshot {
            cache: self.cache.snapshot(),
            memory: self.memory.snapshot(),
            engine: self.engine.snapshot(),
            counters: self.counters,
        }
    }

    /// Restores a [`snapshot`](Self::snapshot); subsequent steps behave
    /// as if the run had never been interrupted.
    pub fn restore(&mut self, snapshot: &CcrpSimSnapshot) {
        self.cache.restore(&snapshot.cache);
        self.memory.restore(&snapshot.memory);
        self.engine.restore(&snapshot.engine);
        self.counters = snapshot.counters;
    }
}

/// The captured state of a [`CcrpSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcrpSimSnapshot {
    /// Instruction-cache tags and counters.
    pub cache: ICacheSnapshot,
    /// Memory-model timing state.
    pub memory: MemorySimSnapshot,
    /// Refill-engine state (the CLB: contents, LRU order, counters).
    pub engine: RefillEngineSnapshot,
    /// Running totals.
    pub counters: SimCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryModel;
    use crate::simulation::Simulation;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

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
        for _ in 0..4 {
            for pc in (0..code_bytes as u32).step_by(4) {
                trace.push((pc, u8::from(pc % 16 == 0)));
            }
        }
        (image, trace)
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // For every memory model: run to a midpoint, snapshot, keep
        // running the original while a fresh stepper restores and
        // replays the tail — stats must match an unbroken run.
        let (image, trace) = fixture(2048);
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(256).with_memory(model);
            let mid = trace.len() / 3;

            let mut std_sim = StandardSim::new(&config).unwrap();
            let mut ccrp_sim = CcrpSim::new(&config).unwrap();
            for &(pc, data) in &trace[..mid] {
                std_sim.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
            }
            let std_snap = std_sim.snapshot();
            let ccrp_snap = ccrp_sim.snapshot();

            let mut std_resumed = StandardSim::new(&config).unwrap();
            std_resumed.restore(&std_snap);
            let mut ccrp_resumed = CcrpSim::new(&config).unwrap();
            ccrp_resumed.restore(&ccrp_snap);
            for &(pc, data) in &trace[mid..] {
                std_sim.step(pc, data);
                std_resumed.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
                ccrp_resumed.step(&image, pc, data).unwrap();
            }
            assert_eq!(std_sim.stats(), std_resumed.stats(), "{model:?}");
            assert_eq!(ccrp_sim.stats(), ccrp_resumed.stats(), "{model:?}");
            assert_eq!(std_sim.snapshot(), std_resumed.snapshot(), "{model:?}");
            assert_eq!(ccrp_sim.snapshot(), ccrp_resumed.snapshot(), "{model:?}");
        }
    }

    #[test]
    fn stepper_matches_whole_trace_simulator() {
        let (image, trace) = fixture(4096);
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(256).with_memory(model);
            let std_whole = Simulation::new(config)
                .standard(trace.iter().copied())
                .unwrap();
            let ccrp_whole = Simulation::new(config)
                .ccrp(&image, trace.iter().copied())
                .unwrap();
            let mut std_sim = StandardSim::new(&config).unwrap();
            let mut ccrp_sim = CcrpSim::new(&config).unwrap();
            for &(pc, data) in &trace {
                std_sim.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
            }
            assert_eq!(std_sim.stats(), std_whole, "{model:?}");
            assert_eq!(ccrp_sim.stats(), ccrp_whole, "{model:?}");
        }
    }
}
