//! Service-time models for the storage media.
//!
//! The §2.2 testbed's latencies decompose into: position the disk head
//! (seek + rotational latency — the dominant cost for small files), stream
//! the bytes off the platter, or serve straight from the page cache at
//! RAM/CPU speed. The constants below approximate the paper's single
//! 10k-RPM disk per server; every experiment variation (file size, cache
//! ratio) runs on the same disk.

use simcore::dist::{Distribution, Uniform};
use simcore::rng::Rng;

/// Sequential transfer rate off the platter, bytes/second: commodity
/// 2013 SATA streaming.
const DISK_BYTES_PER_SEC: f64 = 100.0e6;

/// Cache-hit service path fixed cost (kernel + Apache + copy), seconds.
const CACHE_HIT_OVERHEAD: f64 = 150.0e-6;

/// Memory bandwidth for cache hits, bytes/second.
const MEM_BYTES_PER_SEC: f64 = 2.0e9;

/// Head positioning time (seek + rotational latency) per disk read.
/// 10k RPM: ~3 ms mean rotational + ~4-10 ms seek. A uniform 3..13 ms
/// spread (mean 8 ms) reproduces the paper's ~8 ms low-load mean for
/// 4 KB reads with a 0.1 cache ratio.
fn position() -> Uniform {
    Uniform::new(3.0e-3, 13.0e-3)
}

/// Samples the disk-read service time for a file of `bytes`.
pub fn disk_read(bytes: u64, rng: &mut Rng) -> f64 {
    position().sample(rng) + bytes as f64 / DISK_BYTES_PER_SEC
}

/// Cache-hit service time for a file of `bytes` (deterministic).
pub fn cache_read(bytes: u64) -> f64 {
    CACHE_HIT_OVERHEAD + bytes as f64 / MEM_BYTES_PER_SEC
}

/// Expected disk-read time for a file of `bytes` — used to convert a
/// target utilization into an arrival rate.
pub fn mean_disk_read(bytes: u64) -> f64 {
    position().mean() + bytes as f64 / DISK_BYTES_PER_SEC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_files_are_seek_dominated() {
        let mut rng = Rng::seed_from(1);
        let t = disk_read(4096, &mut rng);
        // 4 KB transfer adds only ~41 us to a multi-ms positioning time.
        assert!(t > 3.0e-3 && t < 14.0e-3, "t = {t}");
        let transfer_part = 4096.0 / DISK_BYTES_PER_SEC;
        assert!(transfer_part < 0.02 * mean_disk_read(4096));
    }

    #[test]
    fn large_files_pay_transfer() {
        // 400 KB at 100 MB/s = 4 ms of pure transfer.
        let extra = mean_disk_read(400 * 1024) - mean_disk_read(0);
        assert!((extra - 4.096e-3).abs() < 1e-4, "extra = {extra}");
    }

    #[test]
    fn cache_hits_are_orders_faster() {
        assert!(cache_read(4096) < 0.05 * mean_disk_read(4096));
    }

    #[test]
    fn mean_matches_samples() {
        let mut rng = Rng::seed_from(2);
        let n = 100_000;
        let avg: f64 = (0..n).map(|_| disk_read(4096, &mut rng)).sum::<f64>() / n as f64;
        assert!((avg - mean_disk_read(4096)).abs() < 1e-4);
    }
}
