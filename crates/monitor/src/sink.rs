//! The [`MonitorSink`] adapter: wraps any [`EventSink`] and tees the
//! kernel's per-sample tap into a shared [`MonitorBank`], so one
//! simulation pass produces both the def/use event stream (coverage) and
//! assertion verdicts with zero extra buffering.

use std::sync::{Arc, Mutex};

use tdf_sim::{CompactEvent, EventSink, Interner, Sample, SimTime, Sym};

use crate::bank::MonitorBank;

/// Wraps an inner sink, forwarding def/use events untouched while feeding
/// every tapped sample to a [`MonitorBank`].
///
/// The bank is shared via `Arc<Mutex<_>>` so isolated run paths (which
/// move their sink into `catch_unwind`) can harvest verdicts afterwards;
/// a poisoned lock (the simulation panicked mid-sample) is recovered, not
/// propagated — the partial monitor state is still sound because those
/// runs are finalized as degraded.
pub struct MonitorSink<'a> {
    inner: &'a mut dyn EventSink,
    bank: Arc<Mutex<MonitorBank>>,
}

impl<'a> MonitorSink<'a> {
    /// Tees `bank` off the sample tap while `inner` keeps receiving the
    /// instrumentation event stream.
    pub fn new(inner: &'a mut dyn EventSink, bank: Arc<Mutex<MonitorBank>>) -> MonitorSink<'a> {
        MonitorSink { inner, bank }
    }
}

impl EventSink for MonitorSink<'_> {
    fn record_compact(&mut self, event: CompactEvent, interner: &Interner) {
        self.inner.record_compact(event, interner);
    }

    fn wants_samples(&self) -> bool {
        true
    }

    fn record_sample(&mut self, time: SimTime, signal: Sym, sample: &Sample) {
        let mut bank = self.bank.lock().unwrap_or_else(|p| p.into_inner());
        bank.observe(time, signal, sample);
        if self.inner.wants_samples() {
            self.inner.record_sample(time, signal, sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AssertionExpr, AssertionSpec};

    #[test]
    fn sink_tees_samples_into_the_bank_and_forwards_events() {
        let interner = Interner::new();
        let bank = Arc::new(Mutex::new(MonitorBank::compile(
            &[AssertionSpec::new(
                "cap",
                AssertionExpr::never_above("m.op_y", 2.0),
            )],
            &interner,
        )));
        let sym = interner.intern("m.op_y");
        let mut inner = tdf_sim::NullSink;
        {
            let mut sink = MonitorSink::new(&mut inner, Arc::clone(&bank));
            assert!(sink.wants_samples());
            sink.record_sample(SimTime::ZERO, sym, &Sample::new(1.0));
            sink.record_sample(SimTime::from_us(1), sym, &Sample::new(3.0));
        }
        let mut bank = bank.lock().unwrap();
        assert_eq!(bank.samples_observed(), 2);
        let verdicts = bank.finalize(SimTime::from_us(2), false);
        assert!(verdicts[0].verdict.is_fail());
    }
}
