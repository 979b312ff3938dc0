//! Cipher ablation — the measurement behind the protocol's choice of
//! RC5-class primitives: among symmetric options, the small-block ARX
//! ciphers beat AES in software on mote-class hardware. Times CTR-mode
//! encryption of one radio frame and the key schedule for RC5, Speck,
//! XTEA and AES-128. MAC, HMAC, PRF and AEAD timings live in perfbench's
//! `crypto.*` per-layer metrics.
//!
//! ```text
//! cargo bench -p wsn-bench --bench crypto
//! ```

use std::hint::black_box;
use std::time::Instant;
use wsn_crypto::aes::Aes128;
use wsn_crypto::ctr::Ctr;
use wsn_crypto::rc5::Rc5;
use wsn_crypto::speck::{Speck128_128, Speck64_128};
use wsn_crypto::xtea::Xtea;
use wsn_crypto::{BlockCipher, Key128};

/// A typical radio frame payload.
const FRAME: usize = 64;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 31;

/// Median ns per call of `f`: one calibration call sizes the inner loop
/// to ~2 ms per sample, then the median of [`SAMPLES`] samples.
fn measure<R, F: FnMut() -> R>(mut f: F) -> f64 {
    let start = Instant::now();
    black_box(f());
    let est_ns = (start.elapsed().as_nanos() as f64).max(1.0);
    let iters = ((2_000_000.0 / est_ns) as u64).clamp(1, 1_000_000);
    let mut laps: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    laps.sort_by(|a, b| a.total_cmp(b));
    laps[SAMPLES / 2]
}

fn ctr_encrypt<C: BlockCipher>(name: &str, cipher: C) {
    let ctr = Ctr::new(cipher);
    let mut buf = [0xA5u8; FRAME];
    let ns = measure(|| {
        ctr.apply(black_box(1024), black_box(&mut buf));
        buf
    });
    println!(
        "ctr-encrypt/{name:<14} {ns:>9.1} ns/{FRAME} B  {:>7.1} MB/s",
        FRAME as f64 * 1e3 / ns
    );
}

fn key_schedule<C>(name: &str, new: impl Fn(&Key128) -> C) {
    let key = Key128::from_bytes([9; 16]);
    let ns = measure(|| new(black_box(&key)));
    println!("key-schedule/{name:<13} {ns:>9.1} ns");
}

fn main() {
    let key = Key128::from_bytes([7; 16]);
    ctr_encrypt("rc5-32/12/16", Rc5::new(&key));
    ctr_encrypt("speck64/128", Speck64_128::new(&key));
    ctr_encrypt("speck128/128", Speck128_128::new(&key));
    ctr_encrypt("xtea", Xtea::new(&key));
    ctr_encrypt("aes-128", Aes128::new(&key));
    key_schedule("rc5", Rc5::new);
    key_schedule("speck64", Speck64_128::new);
    key_schedule("aes128", Aes128::new);
}
