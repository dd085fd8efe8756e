//! The benchmark's own [`Probe`]: host time per refill plus the CLB,
//! bypass and retry counts, stamped where the refill engine emits them.

use std::time::Instant;

use ccrp_probe::{Event, Probe};

/// Times each refill from its `RefillStart` to its `RefillDone` event in
/// host nanoseconds and counts what the completed refills report.
#[derive(Debug, Default)]
pub struct RefillTimer {
    open: Option<Instant>,
    /// Completed refills.
    pub refills: u64,
    /// Host nanoseconds between `RefillStart` and `RefillDone`, summed.
    pub host_ns: u64,
    /// Refills whose LAT entry was already in the CLB.
    pub clb_hits: u64,
    /// Refills of lines stored uncompressed.
    pub bypasses: u64,
    /// Re-reads the degradation policy needed.
    pub retries: u64,
    /// Bytes moved over the instruction-memory bus.
    pub bus_bytes: u64,
}

impl Probe for RefillTimer {
    fn emit(&mut self, _cycle: u64, event: Event) {
        match event {
            Event::RefillStart { .. } => self.open = Some(Instant::now()),
            Event::RefillDone {
                bytes,
                clb_hit,
                bypass,
                retries,
                ..
            } => {
                if let Some(start) = self.open.take() {
                    self.host_ns += start.elapsed().as_nanos() as u64;
                }
                self.refills += 1;
                self.clb_hits += u64::from(clb_hit);
                self.bypasses += u64::from(bypass);
                self.retries += u64::from(retries);
                self.bus_bytes += u64::from(bytes);
            }
            _ => {}
        }
    }
}

impl RefillTimer {
    /// Mean host nanoseconds per refill.
    pub fn ns_per_refill(&self) -> f64 {
        self.host_ns as f64 / self.refills.max(1) as f64
    }

    /// Share of refills that hit the CLB (base: refills).
    pub fn clb_hit_ratio(&self) -> f64 {
        self.clb_hits as f64 / self.refills.max(1) as f64
    }

    /// Share of refills that bypassed the decoder (base: refills).
    pub fn bypass_ratio(&self) -> f64 {
        self.bypasses as f64 / self.refills.max(1) as f64
    }

    /// Bus bytes per refill (base: refills).
    pub fn bus_bytes_per_refill(&self) -> f64 {
        self.bus_bytes as f64 / self.refills.max(1) as f64
    }
}
