//! Replay attacks against forwarded traffic.
//!
//! Step 2 carries a freshness timestamp τ inside the authenticated
//! envelope, and every node keeps a duplicate-suppression cache; the base
//! station additionally enforces monotone end-to-end counters. A recorded
//! frame replayed immediately is absorbed as a duplicate; replayed after
//! the freshness window it is dropped as stale; either way the base
//! station never double-counts a reading.

use bytes::Bytes;
use wsn_core::forward::wrap;
use wsn_core::msg::{DataUnit, Inner};
use wsn_core::setup::NetworkHandle;

/// Builds a bit-faithful copy of the data frame `src` would have sent at
/// time `tau` (the adversary recorded it off the air; we reconstruct it
/// from the same inputs).
pub fn recorded_frame(handle: &NetworkHandle, src: u32, tau: u64, body: &'static [u8]) -> Bytes {
    let keys = handle.sensor(src).extract_keys();
    let (cid, kc) = keys.cluster.expect("clustered sender");
    let unit = DataUnit {
        src,
        ctr: None,
        sealed: false,
        body: Bytes::from_static(body),
    };
    wrap(
        &kc,
        cid,
        src,
        0xBEEF_0000,
        tau,
        u32::MAX,
        &Inner::Data(unit),
    )
    .encode()
}

/// Replays `frame` into `at`'s neighborhood `copies` times and returns the
/// number of *new* readings the base station accepted because of it.
pub fn replay_at(handle: &mut NetworkHandle, at: u32, frame: Bytes, copies: usize) -> usize {
    let before = handle.sink(0).received.len();
    for k in 0..copies {
        handle
            .sim_mut()
            .inject_broadcast_at(at, 0x00AD_0002, 1 + k as u64, frame.clone());
    }
    handle.sim_mut().run();
    handle.sink(0).received.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::prelude::*;

    fn network(seed: u64) -> NetworkHandle {
        let mut o = run_setup(&SetupParams {
            n: 300,
            density: 14.0,
            seed,
            cfg: ProtocolConfig::default(),
        });
        o.handle.establish_gradient();
        o.handle
    }

    #[test]
    fn first_copy_delivers_then_replays_are_absorbed() {
        let mut handle = network(1);
        let src = handle.sensor_ids()[20];
        let frame = recorded_frame(&handle, src, handle.sim().now(), b"reading-X");
        // First injection: a legitimate-looking fresh frame — delivered.
        let first = replay_at(&mut handle, src, frame.clone(), 1);
        assert_eq!(first, 1, "the original transmission delivers once");
        // Ten replays: zero additional readings.
        let extra = replay_at(&mut handle, src, frame, 10);
        assert_eq!(extra, 0, "replays must not double-count readings");
    }

    #[test]
    fn frames_taped_off_the_trace_replay_harmlessly() {
        // The adversary does not reconstruct frames here: it replays the
        // genuine bytes harvested from a recorded trace of the network.
        let mut o = Scenario::new(SetupParams {
            n: 150,
            density: 12.0,
            seed: 5,
            cfg: ProtocolConfig::default(),
        })
        .trace(wsn_trace::MemorySink::new())
        .run();
        o.handle.establish_gradient();
        let src = o.handle.sensor_ids()[20];
        o.handle.send_reading(src, b"reading-Y".to_vec(), false);
        let received = o.handle.sink(0).received.len();
        let records = o
            .handle
            .sim_mut()
            .take_trace()
            .expect("sink installed")
            .drain();
        let tape = crate::eavesdrop::harvest_wrapped(&records);
        assert!(!tape.is_empty());
        // Replay every taped frame right back into the source's
        // neighborhood: dedup caches and the BS counter absorb them all.
        let mut handle = o.handle;
        for (_, frame) in tape {
            let extra = replay_at(&mut handle, src, frame, 2);
            assert_eq!(extra, 0, "replayed tape must not add readings");
        }
        assert_eq!(handle.sink(0).received.len(), received);
    }

    #[test]
    fn stale_replay_dropped_by_freshness_window() {
        let mut handle = network(2);
        let src = handle.sensor_ids()[20];
        // A frame stamped far in the past (beyond the freshness window).
        let window = handle.cfg().freshness_window;
        // Advance simulated time well past the window by idling.
        let frame_tau = handle.sim().now();
        let frame = recorded_frame(&handle, src, frame_tau, b"old-news");
        // Deliver a fresh reading first so time moves on.
        let other = handle.sensor_ids()[40];
        handle.send_reading(other, b"tick".to_vec(), false);
        // Inject the old frame after the window has passed: schedule the
        // replay at now; its τ is ancient relative to sim time only if sim
        // time advanced past τ + window. If not enough virtual time has
        // passed, push the replay's delivery into the future via delay.
        let now = handle.sim().now();
        let delay = (frame_tau + window + 1).saturating_sub(now) + 1;
        handle
            .sim_mut()
            .inject_broadcast_at(src, 0xDEAD, delay, frame);
        let stale_before: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.drops.stale)
            .sum();
        let received_before = handle.sink(0).received.len();
        handle.sim_mut().run();
        let stale_after: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.drops.stale)
            .sum();
        assert!(stale_after > stale_before, "stale drops must register");
        assert_eq!(handle.sink(0).received.len(), received_before);
    }

    #[test]
    fn replayed_sealed_reading_rejected_by_counter() {
        // Even if forwarders cooperate (e.g. caches evicted), the BS
        // counter window refuses a second copy of the same sealed reading.
        let mut handle = network(3);
        let src = handle.sensor_ids()[8];
        handle.send_reading(src, b"secret".to_vec(), true);
        assert_eq!(handle.sink(0).received.len(), 1);
        let dupes_before = handle.sink(0).duplicates;
        // Record the same logical unit and replay it straight at the BS.
        let keys = handle.sensor(src).extract_keys();
        let (cid, kc) = keys.cluster.unwrap();
        let sealed_body = wsn_core::forward::e2e_seal(&keys.ki, src, 0, b"secret");
        let unit = DataUnit {
            src,
            ctr: None,
            sealed: true,
            body: sealed_body,
        };
        let msg = wrap(
            &kc,
            cid,
            src,
            0xABCD_EF00,
            handle.sim().now(),
            u32::MAX,
            &Inner::Data(unit),
        );
        // Inject right next to the BS so it definitely arrives.
        handle
            .sim_mut()
            .inject_broadcast_at(0, 0xDEAD, 1, msg.encode());
        handle.sim_mut().run();
        assert_eq!(handle.sink(0).received.len(), 1, "no double delivery");
        assert!(
            handle.sink(0).duplicates > dupes_before || handle.sink(0).counter_rejects > 0,
            "the replay must be visibly suppressed"
        );
    }
}
