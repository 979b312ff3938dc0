//! The datagram fault shim on the simulator: after key setup, a
//! [`FaultEngine`] is installed as the simulator's delivery hook
//! (`Simulator::set_delivery_hook`), then a gradient flood and one
//! sealed reading from every sensor run through it.
//!
//! The radio is lossy and recovery is on, so the steady state keeps
//! drawing from the simulator's main RNG (one channel-loss draw per
//! delivery, ARQ backoff jitter). A shim that stole a draw would shift
//! every later loss decision and show up in the trace.
//!
//! Two contracts:
//!
//! 1. **Disabled faults are free**: a run with
//!    [`FaultConfig::disabled()`] installed is *identical* — every trace
//!    record, every counter, the accepted readings, the virtual clock —
//!    to a run with no hook at all. The shim's zero-knob path consumes
//!    no RNG draws, so committed figures cannot shift when the feature
//!    merely exists.
//! 2. **Seeded faults are reproducible**: two runs with the same
//!    [`FaultConfig`] produce the same accepted-reading sequence and the
//!    same fault schedule, and actually perturb the network (something
//!    must drop under a 10% drop schedule). Different seeds produce
//!    different schedules.
//!
//! Fault tallies are read from the trace: one `NetFaultInjected` record
//! per perturbation.

use wsn_core::base_station::Reading;
use wsn_core::config::{ProtocolConfig, RecoveryConfig};
use wsn_core::setup::{Scenario, SetupParams};
use wsn_net::{FaultConfig, FaultEngine};
use wsn_sim::event::SimTime;
use wsn_sim::radio::RadioConfig;
use wsn_trace::{MemorySink, NetFaultKind, TraceEvent, TraceRecord};

const N: usize = 60;
const DENSITY: f64 = 10.0;
const SEED: u64 = 2005;

/// Everything a workout leaves behind that a fault schedule could touch.
struct Outcome {
    received: Vec<Reading>,
    trace: Vec<TraceRecord>,
    tx_msgs: u64,
    rx_msgs: u64,
    events: u64,
    now: SimTime,
}

impl Outcome {
    /// Perturbations of one kind, counted from the trace.
    fn faults(&self, kind: NetFaultKind) -> usize {
        self.trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::NetFaultInjected { fault } if fault == kind))
            .count()
    }

    /// `(drop, duplicate, delay, corrupt)` tallies.
    fn tallies(&self) -> [usize; 4] {
        [
            NetFaultKind::Drop,
            NetFaultKind::Duplicate,
            NetFaultKind::Delay,
            NetFaultKind::Corrupt,
        ]
        .map(|k| self.faults(k))
    }
}

/// Runs setup, installs `faults` (if any) as the delivery hook, then the
/// gradient and a reading from every sensor.
fn workout(faults: Option<FaultConfig>) -> Outcome {
    let mut h = Scenario::new(SetupParams {
        n: N,
        density: DENSITY,
        seed: SEED,
        cfg: ProtocolConfig::default().with_recovery(RecoveryConfig::default()),
    })
    .radio(RadioConfig {
        loss: 0.05,
        ..RadioConfig::default()
    })
    .trace(MemorySink::new())
    .run()
    .handle;
    if let Some(cfg) = faults {
        h.sim_mut().set_delivery_hook(FaultEngine::new(cfg));
    }
    h.establish_gradient();
    for src in h.sensor_ids() {
        h.send_reading(src, vec![src as u8, 0xEE], true);
    }
    let counters = h.sim().counters();
    Outcome {
        received: h.sink(0).received.clone(),
        tx_msgs: counters.total_tx_msgs(),
        rx_msgs: counters.rx_msgs.iter().sum(),
        events: h.sim().events_processed(),
        now: h.sim().now(),
        trace: h.sim_mut().take_trace().expect("trace installed").drain(),
    }
}

#[test]
fn disabled_faults_byte_identical_to_no_faults() {
    let clean = workout(None);
    let shimmed = workout(Some(FaultConfig::disabled()));

    assert_eq!(
        clean.received, shimmed.received,
        "accepted readings diverged"
    );
    assert_eq!(
        (clean.tx_msgs, clean.rx_msgs),
        (shimmed.tx_msgs, shimmed.rx_msgs),
        "radio counters diverged"
    );
    assert_eq!(clean.events, shimmed.events, "event counts diverged");
    assert_eq!(clean.now, shimmed.now, "virtual clocks diverged");
    assert!(clean.trace == shimmed.trace, "trace records diverged");
    assert_eq!(shimmed.tallies(), [0; 4], "disabled engine recorded faults");
}

#[test]
fn same_seed_same_faulty_outcome() {
    let a = workout(Some(FaultConfig::soak(7)));
    let b = workout(Some(FaultConfig::soak(7)));

    assert_eq!(
        a.received, b.received,
        "same seed, different accepted readings"
    );
    assert_eq!(
        (a.tx_msgs, a.rx_msgs, a.events),
        (b.tx_msgs, b.rx_msgs, b.events),
        "same seed, different counters"
    );
    assert_eq!(
        a.tallies(),
        b.tallies(),
        "same seed, different fault tallies"
    );
    assert!(a.trace == b.trace, "same seed, different trace");
    // The schedule must actually bite: a 10% bursty drop over a gradient
    // flood plus a reading from every sensor cannot touch nothing.
    assert!(
        a.faults(NetFaultKind::Drop) > 0,
        "soak schedule dropped nothing"
    );
}

#[test]
fn different_seed_different_schedule() {
    let a = workout(Some(FaultConfig::soak(7)));
    let b = workout(Some(FaultConfig::soak(8)));

    let [a_drop, _, a_delay, _] = a.tallies();
    let [b_drop, _, b_delay, _] = b.tallies();
    assert_ne!(
        (a_drop, a_delay),
        (b_drop, b_delay),
        "different seeds produced the same fault schedule"
    );
}
