//! Pooled buffers for the zero-copy frame plane (DESIGN.md §10).
//!
//! The message hot path — engine outbox → wire frame → router/channel →
//! receiver — used to allocate a fresh buffer per frame and a fresh
//! `Vec` per routed sub-batch. The two pools here recycle exactly those
//! allocations:
//!
//! * [`BufPool`] — frame buffers ([`bytes::BytesMut`]) for the
//!   length-prefixed [`MuxBatch`](crate::MuxBatch) encoding. Acquired
//!   buffers are RAII guards ([`PooledBuf`]): dropping one clears it and
//!   returns it to the pool, so a warm pool makes frame encoding allocate
//!   **nothing** per frame (let alone per message).
//! * [`MuxPool`] — topic-tagged entry vectors
//!   (`Vec<(TopicId, WireMessage)>`) for routed sub-batches. The
//!   simulator's transmit path draws from one of these instead of
//!   calling `Vec::new` per delivery event.
//!
//! Both pools are cheaply clonable handles over shared state
//! (`Arc`-backed), so one pool can serve every thread of a runtime
//! cluster; returns from any thread land back in the same free list.
//!
//! ## Lifecycle and ownership rules
//!
//! 1. A pooled object is owned by exactly one party at a time: the pool
//!    (idle, cleared) or the borrower (in use, arbitrary contents).
//! 2. Returning always clears: a recycled buffer is indistinguishable
//!    from a fresh one except for its retained capacity.
//! 3. The pool retains at most `max_retained` idle objects; surplus
//!    returns are dropped (counted in [`PoolStats::discarded`]), which
//!    bounds worst-case memory under load spikes.
//! 4. Losing a pooled object (dropping a [`MuxPool`] vector instead of
//!    calling [`MuxPool::release`]) is safe — it merely forfeits the
//!    recycling; nothing dangles.
//!
//! [`PoolStats`] makes the steady-state claim testable: once a workload
//! is warm, `created` must stop growing while `recycled` keeps counting
//! (asserted by `pool_reaches_steady_state` below and by the sim/runtime
//! integration tests).

use crate::ids::TopicId;
use crate::wire::WireMessage;
use bytes::BytesMut;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cumulative counters of one pool. Snapshot via [`BufPool::stats`] /
/// [`MuxPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total acquisitions (`recycled + created`).
    pub acquired: u64,
    /// Acquisitions that had to allocate a fresh object (pool empty).
    pub created: u64,
    /// Acquisitions served from the free list — the zero-allocation path.
    pub recycled: u64,
    /// Objects returned to the free list.
    pub returned: u64,
    /// Returns dropped because the pool was at `max_retained`.
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served without allocating (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.acquired == 0 {
            0.0
        } else {
            self.recycled as f64 / self.acquired as f64
        }
    }
}

/// Shared interior of a pool of `T`.
struct Shelf<T> {
    idle: Mutex<Vec<T>>,
    max_retained: usize,
    created: AtomicU64,
    recycled: AtomicU64,
    returned: AtomicU64,
    discarded: AtomicU64,
}

impl<T> Shelf<T> {
    fn new(max_retained: usize) -> Self {
        Shelf {
            idle: Mutex::new(Vec::new()),
            max_retained,
            created: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    fn take(&self, fresh: impl FnOnce() -> T) -> T {
        let popped = self.idle.lock().expect("pool lock").pop();
        match popped {
            Some(t) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                fresh()
            }
        }
    }

    fn put(&self, t: T) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < self.max_retained {
            idle.push(t);
            self.returned.fetch_add(1, Ordering::Relaxed);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> PoolStats {
        let created = self.created.load(Ordering::Relaxed);
        let recycled = self.recycled.load(Ordering::Relaxed);
        PoolStats {
            acquired: created + recycled,
            created,
            recycled,
            returned: self.returned.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    fn idle_count(&self) -> usize {
        self.idle.lock().expect("pool lock").len()
    }
}

/// Default retention bound used by [`BufPool::default`]: generous enough
/// for one object per node of a large cluster, small enough to bound idle
/// memory.
pub const DEFAULT_MAX_RETAINED: usize = 64;

/// A pool of recycled frame buffers for the wire codec.
///
/// Cloning the handle is cheap and shares the pool. See the module docs
/// for the lifecycle rules.
///
/// ```
/// use urb_types::{BufPool, MuxBatch, Payload, Tag, TopicId, WireMessage};
///
/// let pool = BufPool::default();
/// let msg = WireMessage::Msg { tag: Tag(7), payload: Payload::from("m") };
/// let mux = MuxBatch::from_entries(&[(TopicId::ZERO, msg)]);
/// {
///     let mut frame = pool.acquire();
///     mux.encode_into(&mut frame);
///     assert_eq!(&frame[..], &mux.encode()[..], "same bytes as the allocating encode");
/// } // dropping the guard returns the buffer
/// let _second = pool.acquire(); // ← recycled, not allocated
/// assert_eq!(pool.stats().recycled, 1);
/// ```
#[derive(Clone)]
pub struct BufPool {
    shelf: Arc<Shelf<BytesMut>>,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_RETAINED)
    }
}

impl BufPool {
    /// A pool retaining at most `max_retained` idle buffers.
    pub fn new(max_retained: usize) -> Self {
        BufPool {
            shelf: Arc::new(Shelf::new(max_retained)),
        }
    }

    /// Acquires an empty buffer (recycled when possible). The returned
    /// guard dereferences to [`BytesMut`] and returns the buffer to the
    /// pool when dropped.
    pub fn acquire(&self) -> PooledBuf {
        PooledBuf {
            buf: Some(self.shelf.take(BytesMut::new)),
            pool: self.clone(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.shelf.stats()
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.shelf.idle_count()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("idle", &self.idle())
            .field("stats", &self.stats())
            .finish()
    }
}

/// RAII guard over a pooled frame buffer: dereferences to [`BytesMut`];
/// dropping it clears the buffer (retaining capacity) and returns it to
/// the [`BufPool`] it came from. Safe to move across threads — the
/// return lands in the shared pool regardless of where the drop happens.
pub struct PooledBuf {
    buf: Option<BytesMut>,
    pool: BufPool,
}

impl Deref for PooledBuf {
    type Target = BytesMut;
    fn deref(&self) -> &BytesMut {
        self.buf.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut BytesMut {
        self.buf.as_mut().expect("present until drop")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(mut buf) = self.buf.take() {
            buf.clear();
            self.pool.shelf.put(buf);
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len())
            .finish()
    }
}

/// A pool of recycled `Vec<(TopicId, WireMessage)>` entry vectors for
/// routed sub-batches (topic-tagged entries of the multiplexed frame
/// plane, DESIGN.md §12).
///
/// Unlike [`BufPool`] this hands out plain vectors (they typically move
/// *into* an event and come back much later via [`MuxPool::release`]),
/// so recycling is explicit rather than RAII; dropping a vector instead
/// of releasing it is safe and merely forfeits the reuse.
#[derive(Clone)]
pub struct MuxPool {
    shelf: Arc<Shelf<Vec<(TopicId, WireMessage)>>>,
}

impl MuxPool {
    /// A pool retaining at most `max_retained` idle vectors.
    pub fn new(max_retained: usize) -> Self {
        MuxPool {
            shelf: Arc::new(Shelf::new(max_retained)),
        }
    }

    /// Acquires an empty vector (recycled when possible).
    pub fn acquire(&self) -> Vec<(TopicId, WireMessage)> {
        self.shelf.take(Vec::new)
    }

    /// Returns a vector to the pool (cleared here; capacity retained).
    pub fn release(&self, mut v: Vec<(TopicId, WireMessage)>) {
        v.clear();
        self.shelf.put(v);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.shelf.stats()
    }

    /// Vectors currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.shelf.idle_count()
    }
}

impl std::fmt::Debug for MuxPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxPool")
            .field("idle", &self.idle())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tag;
    use crate::payload::Payload;
    use bytes::BufMut;

    #[test]
    fn buf_pool_recycles_and_clears() {
        let pool = BufPool::new(4);
        {
            let mut a = pool.acquire();
            a.put_slice(b"some frame bytes");
            assert_eq!(a.len(), 16);
        }
        let b = pool.acquire();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 16, "…but keep their capacity");
        let s = pool.stats();
        assert_eq!(s.created, 1);
        assert_eq!(s.recycled, 1);
        assert_eq!(s.acquired, 2);
    }

    #[test]
    fn pool_reaches_steady_state() {
        // The satellite claim: under steady-state load the pool stops
        // allocating — `created` plateaus while `recycled` keeps growing.
        let pool = BufPool::new(8);
        for round in 0..100u64 {
            let mut held: Vec<PooledBuf> = (0..3).map(|_| pool.acquire()).collect();
            for buf in &mut held {
                buf.put_slice(&round.to_be_bytes());
            }
            drop(held);
            if round == 10 {
                assert_eq!(pool.stats().created, 3, "warm after the first round");
            }
        }
        let s = pool.stats();
        assert_eq!(s.created, 3, "no growth under steady-state load");
        assert_eq!(s.acquired, 300);
        assert_eq!(s.recycled, 297);
        assert_eq!(s.discarded, 0);
        assert!(s.hit_rate() > 0.98);
    }

    #[test]
    fn retention_bound_discards_surplus() {
        let pool = BufPool::new(2);
        let held: Vec<PooledBuf> = (0..5).map(|_| pool.acquire()).collect();
        drop(held);
        let s = pool.stats();
        assert_eq!(pool.idle(), 2);
        assert_eq!(s.returned, 2);
        assert_eq!(s.discarded, 3);
    }

    #[test]
    fn mux_pool_recycles_tagged_entry_vectors() {
        let pool = MuxPool::new(4);
        let mut v = pool.acquire();
        v.push((
            TopicId(1),
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("m"),
            },
        ));
        pool.release(v);
        let v2 = pool.acquire();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn clones_share_one_pool_across_threads() {
        let pool = BufPool::new(16);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut b = p.acquire();
                        b.put_u8(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.acquired, 200);
        assert!(
            s.created <= 16,
            "at most one live buffer per thread plus races: created {}",
            s.created
        );
        assert_eq!(s.acquired, s.created + s.recycled);
    }

    #[test]
    fn stats_hit_rate_handles_idle_pool() {
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
