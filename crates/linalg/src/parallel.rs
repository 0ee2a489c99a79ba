//! A small fixed thread-splitter for row-parallel kernels.
//!
//! The streaming data plane's hot loops — cache-blocked matmul, block
//! perturbation, adaptor application, distance/classify kernels — are all
//! *row-parallel*: they write disjoint chunks of one output slice and read
//! shared inputs. [`for_each_chunk_mut`] is the one splitting primitive
//! they share: it carves the output into contiguous chunks, feeds the
//! chunks through a work queue built on the `crossbeam` channel shim, and
//! runs them on a small fixed set of scoped worker threads.
//!
//! # Determinism
//!
//! Every chunk's content depends only on its index and the shared inputs,
//! never on scheduling, so results are **bit-identical** to the serial
//! loop regardless of thread count. That property is what lets session
//! outcomes stay byte-identical at any `block_rows` and any thread count
//! while the math runs in parallel.
//!
//! # Sizing
//!
//! The splitter never spawns more workers than there are chunks, and
//! callers guard small inputs with [`worth_splitting`] so tiny kernels
//! stay on the calling thread. The worker count is
//! `available_parallelism` capped at [`MAX_THREADS`], overridable with the
//! `SAP_LINALG_THREADS` environment variable (`1` forces serial).

use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Hard cap on splitter worker threads.
pub const MAX_THREADS: usize = 8;

/// The configured worker count: `SAP_LINALG_THREADS` if set, else the
/// machine's available parallelism, capped at [`MAX_THREADS`] and floored
/// at 1. Computed once per process.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("SAP_LINALG_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, MAX_THREADS);
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// `true` when a kernel of roughly `flops` floating-point operations is
/// large enough to amortize spawning scoped workers. Below the threshold
/// callers should run serially on their own thread.
pub fn worth_splitting(flops: usize) -> bool {
    worth_splitting_with(threads(), flops)
}

/// [`worth_splitting`] for an explicit worker count instead of the
/// process-global [`threads`] setting — the guard used by kernels that
/// accept a per-call worker override (e.g.
/// [`crate::Matrix::matmul_with_workers`]).
pub fn worth_splitting_with(workers: usize, flops: usize) -> bool {
    workers > 1 && flops >= 1 << 17
}

/// Splits `data` into contiguous chunks of `chunk_len` elements and runs
/// `f(chunk_index, chunk)` for every chunk, in parallel when more than one
/// worker is configured. The final chunk may be shorter.
///
/// Chunks are distributed through a shared work queue (the crossbeam
/// channel shim), so uneven chunks still balance across workers; because
/// each invocation owns a disjoint `&mut` chunk, the result is identical
/// to the serial loop.
///
/// # Panics
///
/// Panics when `chunk_len` is zero.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_mut_with(threads(), data, chunk_len, f);
}

/// [`for_each_chunk_mut`] with an explicit worker count instead of the
/// process-global [`threads`] setting. `workers` is floored at 1 and
/// capped at the chunk count; results are bit-identical to the serial
/// loop for every worker count (each chunk's content depends only on its
/// index and the shared inputs).
///
/// This is the entry point for callers that schedule *tasks* rather than
/// slices — e.g. the privacy optimizer's candidate fan-out, which needs a
/// per-run thread override for its serial-vs-parallel equivalence tests —
/// while [`for_each_chunk_mut`] keeps serving the data-parallel kernels.
///
/// # Panics
///
/// Panics when `chunk_len` is zero.
pub fn for_each_chunk_mut_with<T, F>(workers: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = workers.max(1).min(n_chunks);
    if workers <= 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // Queue every chunk up front, then let scoped workers drain the queue:
    // `try_recv` returning `None` can only mean "empty", never "not yet
    // sent", so workers exit exactly when the work is done.
    let (tx, rx) = channel::unbounded();
    for item in data.chunks_mut(chunk_len).enumerate() {
        assert!(tx.send(item).is_ok(), "receiver alive until scope ends");
    }
    drop(tx);
    let queue = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = queue.lock().try_recv();
                match item {
                    Some((idx, chunk)) => f(idx, chunk),
                    None => break,
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_everything_once() {
        let mut data = vec![0u64; 10_000];
        for_each_chunk_mut(&mut data, 97, |idx, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (idx * 97 + i) as u64 + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }

    #[test]
    fn matches_serial_result() {
        let mut par = vec![0.0f64; 5_000];
        let mut ser = vec![0.0f64; 5_000];
        let kernel = |idx: usize, chunk: &mut [f64]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let x = (idx * 64 + i) as f64;
                *v = (x * 0.25).sin() + x.sqrt();
            }
        };
        for_each_chunk_mut(&mut par, 64, kernel);
        for (idx, chunk) in ser.chunks_mut(64).enumerate() {
            kernel(idx, chunk);
        }
        assert_eq!(par, ser, "parallel split must be bit-identical");
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut data = vec![0u8; 1000];
        for_each_chunk_mut(&mut data, 10, |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn empty_and_single_chunk_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut one = vec![1u8; 3];
        for_each_chunk_mut(&mut one, 8, |idx, chunk| {
            assert_eq!(idx, 0);
            assert_eq!(chunk.len(), 3);
        });
    }

    #[test]
    fn threads_is_positive_and_capped() {
        let t = threads();
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn explicit_worker_counts_are_bit_identical() {
        let kernel = |idx: usize, chunk: &mut [f64]| {
            for (i, v) in chunk.iter_mut().enumerate() {
                let x = (idx * 7 + i) as f64;
                *v = (x * 0.37).cos() * x.sqrt();
            }
        };
        let mut reference = vec![0.0f64; 701];
        for_each_chunk_mut_with(1, &mut reference, 7, kernel);
        for workers in [0usize, 2, 4, 16] {
            let mut out = vec![0.0f64; 701];
            for_each_chunk_mut_with(workers, &mut out, 7, kernel);
            assert_eq!(out, reference, "workers={workers}");
        }
    }
}
