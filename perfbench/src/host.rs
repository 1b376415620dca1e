//! The host-speed reference: a fixed kernel timed between the measured
//! operations of a run, so every time the benchmark reports can be
//! scaled to one reference host speed.
//!
//! The VM this benchmark was written on runs each vCPU in one of two
//! speeds that switch every few seconds, and the share of time in the
//! slow one drifts over minutes: the same single-threaded work took
//! from 35 to 65 ms across one five-minute window. No statistic of raw
//! wall times is steady under that. A fixed throughput-bound kernel
//! timed next to the work slows by nearly the same factor (its ratio
//! to dynamics training and to simulation spread 0.04 over 20-s
//! windows, where either alone spread 0.19), so the benchmark times
//! the kernel after every measured unit of work and reports
//! `wall ÷ (kernel time ÷ COMPUTE_REF_S)`: seconds on a host where the
//! kernel takes [`COMPUTE_REF_S`]. Small HTTP requests spend most of
//! their round trip in the network stack and in wake-ups, and large
//! ones in scanning their JSON body, which the kernel does not feel the
//! same way; their probes add a loopback TCP ping-pong or a UTF-8 scan
//! (see [`Probe`]).
//!
//! The kernel is the benchmark's own code and never calls the program,
//! so a change to the program moves the scaled figures, and a change of
//! host speed mostly does not (`perfbench/README.md`, "Measured
//! spreads", gives the figures).

use std::hint::black_box;
use std::time::Instant;

/// Time of one [`kernel`] pass, s, that defines the reference speed:
/// about what a pass takes on a fast vCPU of the two-vCPU VM the
/// benchmark was written on.
pub const COMPUTE_REF_S: f64 = 0.0055;

/// Loopback round trip, s, that defines the reference speed of
/// [`transport_probe`] (same VM).
pub const TRANSPORT_REF_S: f64 = 23e-6;

/// One [`scan_probe`] pass, s, at the reference speed (same VM).
pub const SCAN_REF_S: f64 = 2.2e-6;

/// Bytes per scan-probe pass.
const SCAN_BYTES: usize = 64 * 1024;

/// Passes per scan probe.
const SCAN_PASSES: usize = 2000;

/// Kernel passes per compute probe: one pass is a ~5 ms snapshot of a
/// host that switches speed every few seconds.
const COMPUTE_PASSES: usize = 3;

/// Round trips per transport probe.
const TRANSPORT_ROUND_TRIPS: usize = 300;

/// What a workload's host-speed probe measures: the compute kernel on
/// `threads` threads at once, and, where the workload spends its time
/// there too, a loopback TCP ping-pong (small requests: the network
/// stack and thread wake-ups) and a UTF-8 scan of a 64 KiB buffer
/// (large JSON bodies). The factor is the geometric mean of the parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Threads running the compute kernel at once.
    pub threads: usize,
    /// Include [`transport_probe`].
    pub transport: bool,
    /// Include [`scan_probe`].
    pub scan: bool,
}

impl Probe {
    /// The compute kernel on one thread.
    pub const SINGLE_THREAD: Probe = Probe {
        threads: 1,
        transport: false,
        scan: false,
    };

    /// The host's slowness factor now: 1 on the reference host, 2 on a
    /// host that takes twice as long for the probe's work.
    pub fn measure(self) -> f64 {
        let mut parts = vec![compute_probe(self.threads) / COMPUTE_REF_S];
        if self.transport {
            parts.push(transport_probe(TRANSPORT_ROUND_TRIPS) / TRANSPORT_REF_S);
        }
        if self.scan {
            parts.push(scan_probe(SCAN_PASSES) / SCAN_REF_S);
        }
        parts.iter().product::<f64>().powf(1.0 / parts.len() as f64)
    }
}

/// Dense matrix side for the kernel's matrix product.
const MM_N: usize = 96;
/// Matrix products per pass.
const MM_REPS: usize = 6;
/// Rows through the kernel's small MLP.
const MLP_ROWS: usize = 256;
/// MLP forward passes per pass.
const MLP_REPS: usize = 6;
/// Layer widths of the kernel's MLP.
const MLP_DIMS: [usize; 4] = [8, 64, 64, 1];

/// One pass of the fixed reference work: six 96×96 matrix products and
/// six forward passes of 256 rows through an 8-64-64-1 MLP with a fresh
/// allocation per layer — the mix of vectorised loops, dot-product
/// chains and small allocations the pipeline and the server spend
/// their time in. Returns a checksum so nothing is optimised away.
pub fn kernel() -> f64 {
    let n = MM_N;
    let a: Vec<f64> = (0..n * n).map(|i| (i % 17) as f64 * 0.1).collect();
    let mut c = vec![0.0; n * n];
    for _ in 0..MM_REPS {
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                let (row, out) = (&a[k * n..(k + 1) * n], &mut c[i * n..(i + 1) * n]);
                for (o, b) in out.iter_mut().zip(row) {
                    *o += aik * b;
                }
            }
        }
        black_box(&mut c);
    }
    let weights: Vec<Vec<f64>> = (0..3)
        .map(|l| {
            (0..MLP_DIMS[l] * MLP_DIMS[l + 1])
                .map(|i| ((i * 7919) % 97) as f64 * 1e-3)
                .collect()
        })
        .collect();
    let input: Vec<f64> = (0..MLP_ROWS * MLP_DIMS[0])
        .map(|i| (i % 13) as f64 * 0.1)
        .collect();
    let mut checksum = c[7];
    for _ in 0..MLP_REPS {
        let mut x = input.clone();
        for (l, w) in weights.iter().enumerate() {
            let (width, out) = (MLP_DIMS[l], MLP_DIMS[l + 1]);
            let mut y = vec![0.0; MLP_ROWS * out];
            for b in 0..MLP_ROWS {
                let row = &x[b * width..(b + 1) * width];
                for o in 0..out {
                    let acc: f64 = w[o * width..(o + 1) * width]
                        .iter()
                        .zip(row)
                        .map(|(w, x)| w * x)
                        .sum();
                    y[b * out + o] = if acc > 0.0 { acc } else { 0.01 * acc };
                }
            }
            x = black_box(y);
        }
        checksum += x[0];
    }
    checksum
}

/// Times [`COMPUTE_PASSES`] [`kernel`] passes on each of `threads`
/// threads at once and returns the mean pass time, s. A workload that
/// keeps several vCPUs busy is scaled by the mean speed of as many.
pub fn compute_probe(threads: usize) -> f64 {
    let timed = || {
        let started = Instant::now();
        for _ in 0..COMPUTE_PASSES {
            black_box(kernel());
        }
        started.elapsed().as_secs_f64() / COMPUTE_PASSES as f64
    };
    if threads <= 1 {
        return timed();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Mean round trip, s, of `n` 64-byte ping-pongs between two threads
/// over a loopback TCP connection: the reference for code that spends
/// its time in the kernel's network stack and in thread wake-ups.
pub fn transport_probe(n: usize) -> f64 {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("loopback accept");
            peer.set_nodelay(true).expect("nodelay");
            let mut buf = [0u8; 64];
            for _ in 0..n {
                peer.read_exact(&mut buf).expect("ping");
                peer.write_all(&buf).expect("pong");
            }
        });
        let mut conn = std::net::TcpStream::connect(addr).expect("loopback connect");
        conn.set_nodelay(true).expect("nodelay");
        let mut buf = [7u8; 64];
        let started = Instant::now();
        for _ in 0..n {
            conn.write_all(&buf).expect("ping");
            conn.read_exact(&mut buf).expect("pong");
        }
        started.elapsed().as_secs_f64() / n as f64
    })
}

/// Mean time, s, to validate a 64 KiB JSON-like buffer as UTF-8, over
/// `passes` passes: the reference for code that streams through large
/// request bodies.
pub fn scan_probe(passes: usize) -> f64 {
    let text: Vec<u8> = (0..SCAN_BYTES)
        .map(|i| b"{\"zone_temperature\": 21.5, \"occupied\": true},"[i % 44])
        .collect();
    let started = Instant::now();
    for _ in 0..passes {
        black_box(std::str::from_utf8(black_box(&text)).is_ok());
    }
    started.elapsed().as_secs_f64() / passes as f64
}

/// `seconds` of wall time scaled to the reference host, given the
/// slowness `factor` measured around it.
pub fn scaled(seconds: f64, factor: f64) -> f64 {
    seconds / factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probes_are_positive() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        assert!(compute_probe(1) > 0.0);
        assert!(compute_probe(2) > 0.0);
        assert!(transport_probe(10) > 0.0);
        assert!(scan_probe(10) > 0.0);
        let all = Probe {
            threads: 2,
            transport: true,
            scan: true,
        };
        assert!(all.measure() > 0.0);
    }

    #[test]
    fn scaling_divides_out_the_host_factor() {
        // A host half as fast takes twice the wall and twice the kernel
        // time; the scaled figure is the same.
        let fast = scaled(1.0, 1.0);
        let slow = scaled(2.0, 2.0);
        assert!((fast - 1.0).abs() < 1e-12);
        assert!((slow - fast).abs() < 1e-12);
    }
}
