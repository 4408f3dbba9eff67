//! Internal-memory metering.
//!
//! Definition 1 bounds the *total space* used on internal-memory tapes.
//! Algorithms in this workspace charge the meter for every live internal
//! variable (registers, buffers, counters) in **bits**; the high-water
//! mark is reported as `internal_space` in [`st_core::ResourceUsage`].
//! One paper "cell" holds one symbol of a constant-size alphabet, so bits
//! and cells agree up to the constant the `O(·)` absorbs.
//!
//! Charging is RAII-based: [`MemoryMeter::charge`] returns a
//! [`MemoryCharge`] guard that releases the bits when dropped, so scoped
//! buffers (e.g. the record buffer of a merge pass) are metered for
//! exactly their live range.

use st_core::pool::lock;
use st_trace::{TraceEvent, Tracer};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    current: u64,
    high: u64,
    tracer: Tracer,
}

/// A shareable internal-memory meter (cheap to clone; all clones feed the
/// same high-water mark).
#[derive(Debug, Clone, Default)]
pub struct MemoryMeter {
    inner: Arc<Mutex<Inner>>,
}

impl MemoryMeter {
    /// A fresh meter with zero usage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh meter that mirrors every charge, release, and peak
    /// observation into `tracer`, so [`st_trace::replay`] can re-derive
    /// the high-water mark from the traffic alone.
    #[must_use]
    pub fn with_tracer(tracer: Tracer) -> Self {
        MemoryMeter {
            inner: Arc::new(Mutex::new(Inner {
                current: 0,
                high: 0,
                tracer,
            })),
        }
    }

    /// Charge `bits` of internal memory for the lifetime of the returned
    /// guard.
    #[must_use]
    pub fn charge(&self, bits: u64) -> MemoryCharge {
        let mut g = lock(&self.inner);
        g.current += bits;
        if g.current > g.high {
            g.high = g.current;
        }
        g.tracer.emit(|| TraceEvent::MemCharge { bits });
        MemoryCharge {
            meter: self.clone(),
            bits,
        }
    }

    /// Charge `bits` permanently (no guard; models state that lives for
    /// the whole run, like the fingerprint registers).
    pub fn charge_static(&self, bits: u64) {
        let mut g = lock(&self.inner);
        g.current += bits;
        if g.current > g.high {
            g.high = g.current;
        }
        g.tracer.emit(|| TraceEvent::MemCharge { bits });
    }

    /// Record that at some instant `bits` were live, without changing the
    /// current level (for one-shot peak observations).
    pub fn note_peak(&self, bits: u64) {
        let mut g = lock(&self.inner);
        let peak = g.current + bits;
        if peak > g.high {
            g.high = peak;
        }
        g.tracer.emit(|| TraceEvent::MemPeak { bits });
    }

    /// Currently-live bits.
    #[must_use]
    pub fn current_bits(&self) -> u64 {
        lock(&self.inner).current
    }

    /// The high-water mark in bits.
    #[must_use]
    pub fn high_water_bits(&self) -> u64 {
        lock(&self.inner).high
    }

    fn release(&self, bits: u64) {
        let mut g = lock(&self.inner);
        debug_assert!(g.current >= bits, "meter release exceeds charge");
        g.current = g.current.saturating_sub(bits);
        g.tracer.emit(|| TraceEvent::MemRelease { bits });
    }
}

/// RAII guard for a scoped memory charge; releases on drop.
#[derive(Debug)]
pub struct MemoryCharge {
    meter: MemoryMeter,
    bits: u64,
}

impl MemoryCharge {
    /// The number of bits this guard holds.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

impl Drop for MemoryCharge {
    fn drop(&mut self) {
        self.meter.release(self.bits);
    }
}

/// Bits needed to hold one machine word holding values up to `max`
/// (`⌈log₂(max+1)⌉`, minimum 1). Algorithms use this to charge counters
/// at their information-theoretic size, the quantity the paper's
/// `O(log N)` bounds refer to.
#[must_use]
pub fn bits_for(max: u64) -> u64 {
    let mut b = 0u64;
    let mut v = max;
    while v > 0 {
        b += 1;
        v >>= 1;
    }
    b.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_tracks_peak_not_current() {
        let m = MemoryMeter::new();
        {
            let _a = m.charge(100);
            {
                let _b = m.charge(50);
                assert_eq!(m.current_bits(), 150);
            }
            assert_eq!(m.current_bits(), 100);
        }
        assert_eq!(m.current_bits(), 0);
        assert_eq!(m.high_water_bits(), 150);
    }

    #[test]
    fn clones_share_the_meter() {
        let m = MemoryMeter::new();
        let m2 = m.clone();
        let _a = m.charge(10);
        let _b = m2.charge(20);
        assert_eq!(m.high_water_bits(), 30);
        assert_eq!(m2.high_water_bits(), 30);
    }

    #[test]
    fn static_charge_never_releases() {
        let m = MemoryMeter::new();
        m.charge_static(64);
        assert_eq!(m.current_bits(), 64);
        assert_eq!(m.high_water_bits(), 64);
    }

    #[test]
    fn note_peak_is_transient() {
        let m = MemoryMeter::new();
        let _a = m.charge(8);
        m.note_peak(100);
        assert_eq!(m.current_bits(), 8);
        assert_eq!(m.high_water_bits(), 108);
    }

    #[test]
    fn traced_high_water_matches_the_meter() {
        let (tracer, buf) = Tracer::in_memory();
        let m = MemoryMeter::with_tracer(tracer);
        {
            let _a = m.charge(100);
            let _b = m.charge(50);
        }
        m.charge_static(30);
        m.note_peak(200);
        let replayed = st_trace::replay(&buf.snapshot());
        assert_eq!(replayed.internal_space, m.high_water_bits());
        assert_eq!(m.high_water_bits(), 230);
    }

    #[test]
    fn untraced_meter_emits_nothing_and_still_meters() {
        let m = MemoryMeter::new();
        let _a = m.charge(10);
        assert_eq!(m.high_water_bits(), 10);
    }

    #[test]
    fn meter_is_sound_across_threads() {
        // Workers of the parallel harness may share a meter through
        // clones: MemoryMeter must be Send + Sync (Arc<std::sync::
        // Mutex<…>> with a Send tracer inside), and concurrent charges
        // must keep the high-water mark consistent.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryMeter>();

        let m = MemoryMeter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        m.charge_static(1);
                    }
                });
            }
        });
        assert_eq!(m.current_bits(), 200);
        assert_eq!(m.high_water_bits(), 200);
    }

    #[test]
    fn bits_for_is_ceil_log2_plus_one_semantics() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }
}
