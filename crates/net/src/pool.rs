//! Pooled reusable frame buffers.
//!
//! The [`BufferPool`] keeps ~60 KiB frame buffers off the allocator: the
//! seal path *acquires* a cleared buffer, encodes the envelope straight
//! into it, freezes it into [`Bytes`] for the transport, and once the
//! socket write drops the last reference the allocation is *recycled*
//! back onto a shelf instead of freed.
//!
//! Recycling piggybacks on the vendored `Bytes` shim: a buffer can only
//! be reclaimed when the caller holds the sole reference and the view
//! covers the whole allocation (`Bytes::try_into_vec`), so shared slices
//! — e.g. chunk views into one encoded message — are never corrupted.
//! A failed reclaim simply falls back to the normal drop; pooling is an
//! optimisation, never a correctness requirement.
//!
//! Shelves are bucketed by capacity class and bounded (count and byte
//! capacity) so a burst of giant frames cannot pin unbounded memory.

use std::sync::OnceLock;

use bytes::Bytes;
use parking_lot::Mutex;

/// Capacity-class boundaries (exclusive upper caps). A buffer lands on
/// the shelf of the smallest class that holds its capacity; buffers past
/// the last cap are never pooled.
const CLASS_CAPS: [usize; 4] = [
    4 * 1024,         // control frames, heartbeats
    96 * 1024,        // default 60 KiB chunk + envelope overhead
    1024 * 1024,      // large custom chunk sizes
    16 * 1024 * 1024, // MAX_BLOCK_BYTES-scale payloads
];

/// Per-class shelf depth. Deepest for the hot chunk class.
const CLASS_DEPTH: [usize; 4] = [64, 64, 16, 4];

/// A bounded, capacity-classed shelf of reusable byte buffers. Most code
/// uses the process-wide [`global`] pool.
#[derive(Debug)]
pub struct BufferPool {
    shelves: [Mutex<Vec<Vec<u8>>>; 4],
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool {
            shelves: [
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
                Mutex::new(Vec::new()),
            ],
        }
    }

    /// Smallest class index whose cap covers `capacity`, or `None` when
    /// the buffer is too large to pool.
    fn class_of(capacity: usize) -> Option<usize> {
        CLASS_CAPS.iter().position(|&cap| capacity <= cap)
    }

    /// Hands out a cleared buffer with at least `min_capacity` bytes of
    /// capacity, reusing a shelved allocation when one fits.
    pub fn acquire(&self, min_capacity: usize) -> Vec<u8> {
        if let Some(start) = Self::class_of(min_capacity) {
            for shelf in &self.shelves[start..] {
                let popped = shelf.lock().pop();
                if let Some(mut v) = popped {
                    v.clear();
                    if v.capacity() < min_capacity {
                        v.reserve(min_capacity);
                    }
                    return v;
                }
            }
        }
        Vec::with_capacity(min_capacity)
    }

    /// Returns a buffer's allocation to the pool (contents discarded).
    pub fn recycle_vec(&self, v: Vec<u8>) {
        if let Some(class) = Self::class_of(v.capacity()) {
            let mut shelf = self.shelves[class].lock();
            if shelf.len() < CLASS_DEPTH[class] {
                shelf.push(v);
            }
        }
    }

    /// Attempts to reclaim a frozen frame buffer. Succeeds only when
    /// `frame` is the sole owner of its whole allocation; shared or
    /// sliced handles are dropped normally. Returns whether the
    /// allocation was recovered.
    pub fn recycle(&self, frame: Bytes) -> bool {
        frame.try_into_vec().map(|v| self.recycle_vec(v)).is_ok()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new()
    }
}

static GLOBAL: OnceLock<BufferPool> = OnceLock::new();

/// The process-wide pool shared by the seal path, the reactor, and the
/// node receive path.
pub fn global() -> &'static BufferPool {
    GLOBAL.get_or_init(BufferPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_acquire_reuses_the_allocation() {
        let pool = BufferPool::new();
        let mut a = pool.acquire(1000);
        a.extend_from_slice(&[7u8; 1000]);
        let cap = a.capacity();
        pool.recycle_vec(a);
        let b = pool.acquire(512);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap);
        assert!(pool.shelves.iter().all(|shelf| shelf.lock().is_empty()));
    }

    #[test]
    fn shared_bytes_are_not_reclaimed() {
        let pool = BufferPool::new();
        let frozen = Bytes::from(pool.acquire(64));
        let clone = frozen.clone();
        assert!(!pool.recycle(frozen));
        assert!(pool.recycle(clone));
        assert_eq!(pool.shelves[0].lock().len(), 1);
    }

    #[test]
    fn shelves_are_bounded() {
        let pool = BufferPool::new();
        for _ in 0..CLASS_DEPTH[0] + 5 {
            pool.recycle_vec(Vec::with_capacity(128));
        }
        assert_eq!(pool.shelves[0].lock().len(), CLASS_DEPTH[0]);
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        let pool = BufferPool::new();
        pool.recycle_vec(Vec::with_capacity(64 * 1024 * 1024));
        assert!(pool.shelves.iter().all(|shelf| shelf.lock().is_empty()));
    }

    #[test]
    fn class_routing_prefers_tight_fit() {
        let pool = BufferPool::new();
        pool.recycle_vec(Vec::with_capacity(2 * 1024));
        pool.recycle_vec(Vec::with_capacity(80 * 1024));
        // A 60 KiB ask must skip the 2 KiB shelf and hit the 96 KiB one.
        let v = pool.acquire(60 * 1024);
        assert!(v.capacity() >= 80 * 1024);
        assert_eq!(pool.shelves[0].lock().len(), 1);
    }
}
