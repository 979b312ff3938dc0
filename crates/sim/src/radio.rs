//! The radio model: timing, loss and energy parameters.
//!
//! A unit-disk broadcast medium: one transmission reaches every node within
//! the communication radius. Defaults approximate the Mica-mote radios of
//! the paper's era (TR1000-class, ~19.2 kbit/s), whose costs motivate the
//! paper's "one transmission per broadcast" design goal.

/// Largest frame any transport must carry, in bytes.
///
/// Shared ceiling between the simulated radio and the real socket
/// backends (`wsn-net`): a datagram the protocol can emit through the
/// simulator must never be rejected by the UDP transport, so both
/// sides size against this one constant. Generously above the
/// largest wrapped protocol frame (header + sealed inner + tag; well
/// under 512 bytes at the default 16-byte-block cipher) while still a
/// single unfragmented UDP payload on any sane MTU path.
pub const MAX_FRAME_BYTES: usize = 1024;

/// Radio timing, loss and energy parameters.
#[derive(Clone, Debug)]
pub struct RadioConfig {
    /// Time to push one byte onto the air, microseconds (19.2 kbit/s ≈
    /// 417 µs/byte).
    pub byte_time_us: u64,
    /// Fixed propagation + processing delay per hop, microseconds.
    pub prop_delay_us: u64,
    /// Independent per-receiver frame-loss probability in `[0, 1)`.
    pub loss: f64,
    /// Transmit energy, microjoules per byte.
    pub tx_uj_per_byte: f64,
    /// Receive energy, microjoules per byte.
    pub rx_uj_per_byte: f64,
    /// Finite per-node transmit queue depth. `None` (the default) keeps
    /// the historical idealized radio: every transmission is scheduled
    /// immediately, none is ever refused. With `Some(cap)`, a node with
    /// `cap` frames already awaiting air *tail-drops* further
    /// transmissions (counted in `Counters::tx_drops`) — a flooding node
    /// saturates its own queue first.
    pub tx_queue_cap: Option<usize>,
    /// Serialize each node's transmissions (airtime contention): a frame
    /// starts only after the node's previous frame has left the air, so
    /// transmission time is a resource a flooder exhausts rather than a
    /// constant per-frame offset. Off by default — the idealized model —
    /// and runs that never queue two frames at once are byte-identical
    /// either way.
    pub contention: bool,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            byte_time_us: 417,
            prop_delay_us: 10,
            loss: 0.0,
            // SPINS-era figures: transmission is the dominant cost, roughly
            // tx ≈ 16 µJ/byte and rx ≈ 12 µJ/byte on the Mica platform.
            tx_uj_per_byte: 16.25,
            rx_uj_per_byte: 12.5,
            tx_queue_cap: None,
            contention: false,
        }
    }
}

impl RadioConfig {
    /// A lossy variant of `self` (for failure-injection experiments).
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = loss;
        self
    }

    /// A variant of `self` with a finite transmit queue of `cap` frames.
    pub fn with_tx_queue(mut self, cap: usize) -> Self {
        assert!(cap > 0, "tx queue capacity must be positive");
        self.tx_queue_cap = Some(cap);
        self
    }

    /// A variant of `self` with per-node airtime contention enabled.
    pub fn with_contention(mut self) -> Self {
        self.contention = true;
        self
    }

    /// Airtime of a frame of `bytes` payload bytes, microseconds.
    pub fn airtime_us(&self, bytes: usize) -> u64 {
        self.prop_delay_us + self.byte_time_us * bytes as u64
    }

    /// Transmit energy of a frame, microjoules.
    pub fn tx_energy_uj(&self, bytes: usize) -> f64 {
        self.tx_uj_per_byte * bytes as f64
    }

    /// Receive energy of a frame, microjoules.
    pub fn rx_energy_uj(&self, bytes: usize) -> f64 {
        self.rx_uj_per_byte * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_with_size() {
        let r = RadioConfig::default();
        assert!(r.airtime_us(100) > r.airtime_us(10));
        assert_eq!(r.airtime_us(0), r.prop_delay_us);
    }

    #[test]
    fn energy_accounting() {
        let r = RadioConfig::default();
        assert!(r.tx_energy_uj(32) > r.rx_energy_uj(32));
        assert_eq!(r.tx_energy_uj(0), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_loss_rejected() {
        let _ = RadioConfig::default().with_loss(1.0);
    }
}
