//! Recycled buffer pools for the streaming decode hot path.
//!
//! Every chunk a reader decodes needs two transient buffers: the
//! compressed blob fetched off the source and (in ordered delivery or
//! boundary crops) a decoded scratch slab. Allocating both per chunk puts
//! one `malloc`/`free` pair *per chunk* on the critical path and, worse,
//! inside [`ConcurrentReader`](crate::ConcurrentReader)'s source lock.
//! These pools let the engines check a buffer out, use it, and check it
//! back in — steady-state decoding touches the allocator zero times.
//!
//! **Dirty-buffer contract.** Pooled buffers are handed back *without
//! being cleared*: a recycled blob buffer still holds the previous
//! chunk's compressed bytes, a recycled slab the previous chunk's decoded
//! values. That is deliberate — zeroing a window of megabyte slabs per
//! chunk would cost more than the allocations the pool removes — and it
//! is sound because every consumer fully overwrites what it reads:
//! `read_exact` fills the whole blob buffer or errors, and both chunk
//! codecs write every element of the output slab (the zfp decoder stores
//! explicit zeros for empty blocks rather than assuming a zeroed
//! destination). The poisoning tests in `stream.rs` seed the pools with
//! garbage and assert decode output is byte-identical anyway.
//!
//! Pools retain at most [`MAX_POOLED`] buffers; anything beyond that is
//! dropped, so an idle reader does not pin a high-water mark of slabs.
//! In-flight memory is still bounded by the engine's schedules — one
//! chunk per slice worker, a window of `2 × threads` chunks in ordered
//! delivery — the pool only recycles buffers they already paid for.

use rq_grid::Scalar;
use std::sync::Mutex;

/// Most buffers a pool will hold on to while idle. The ordered decode
/// window is `2 × threads` chunks (couple dozen at most in practice);
/// retaining more than this would only serve pathological churn.
const MAX_POOLED: usize = 32;

/// A recycler of `Vec<u8>` blob buffers. `get` returns a buffer of
/// exactly the requested length whose *contents are unspecified* (see
/// the module docs); `put` returns it for reuse.
#[derive(Default)]
pub(crate) struct BytePool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BytePool {
    pub fn new() -> Self {
        BytePool::default()
    }

    /// Check out a buffer of length `len` (dirty; callers must fully
    /// overwrite it before reading).
    pub fn get(&self, len: usize) -> Vec<u8> {
        let mut buf = {
            let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
            bufs.pop().unwrap_or_default()
        };
        if len <= buf.len() {
            buf.truncate(len);
        } else {
            buf.resize(len, 0);
        }
        buf
    }

    /// Return a buffer to the pool (its capacity is kept, its contents
    /// left as-is).
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
        if bufs.len() < MAX_POOLED {
            bufs.push(buf);
        }
    }

    /// Number of buffers currently idle in the pool (test observability).
    #[cfg(test)]
    pub fn idle(&self) -> usize {
        self.bufs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

/// A recycler of decoded-slab `Vec<T>` buffers, same contract as
/// [`BytePool`]: returned slabs are dirty and must be fully overwritten
/// by the decoder (growing a slab zero-fills only the grown tail).
pub(crate) struct SlabPool<T> {
    bufs: Mutex<Vec<Vec<T>>>,
}

impl<T: Scalar> Default for SlabPool<T> {
    fn default() -> Self {
        SlabPool { bufs: Mutex::new(Vec::new()) }
    }
}

impl<T: Scalar> SlabPool<T> {
    pub fn new() -> Self {
        SlabPool::default()
    }

    /// Check out a slab of `len` elements (dirty where recycled).
    pub fn get(&self, len: usize) -> Vec<T> {
        let mut buf = {
            let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
            bufs.pop().unwrap_or_default()
        };
        if len <= buf.len() {
            buf.truncate(len);
        } else {
            buf.resize(len, T::zero());
        }
        buf
    }

    /// Return a slab for reuse.
    pub fn put(&self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
        if bufs.len() < MAX_POOLED {
            bufs.push(buf);
        }
    }

    /// Pre-seed the pool with `bufs` (poisoning tests hand in
    /// garbage-filled slabs to prove decode overwrites everything).
    #[cfg(test)]
    pub fn seed(&self, seeded: Vec<Vec<T>>) {
        let mut bufs = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
        bufs.extend(seeded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_pool_recycles_and_resizes_dirty() {
        let pool = BytePool::new();
        let mut a = pool.get(8);
        a.copy_from_slice(&[0xAB; 8]);
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        // Shrinking reuse keeps the dirty prefix.
        let b = pool.get(4);
        assert_eq!(pool.idle(), 0);
        assert_eq!(&b[..], &[0xAB; 4]);
        pool.put(b);
        // Growing reuse keeps the dirty prefix, zero-fills the tail.
        let c = pool.get(6);
        assert_eq!(&c[..4], &[0xAB; 4]);
        assert_eq!(&c[4..], &[0, 0]);
    }

    #[test]
    fn pools_cap_retained_buffers() {
        let pool = BytePool::new();
        for _ in 0..MAX_POOLED + 10 {
            pool.put(vec![0u8; 16]);
        }
        assert_eq!(pool.idle(), MAX_POOLED);
        // Zero-capacity buffers are not worth keeping.
        pool.put(Vec::new());
        assert_eq!(pool.idle(), MAX_POOLED);
    }

    #[test]
    fn slab_pool_recycles() {
        let pool: SlabPool<f32> = SlabPool::new();
        pool.put(vec![7.0f32; 10]);
        let s = pool.get(10);
        assert_eq!(s, vec![7.0f32; 10], "same-size reuse must stay dirty");
        pool.put(s);
        let s = pool.get(12);
        assert_eq!(&s[..10], &[7.0f32; 10][..]);
        assert_eq!(&s[10..], &[0.0f32; 2][..]);
    }
}
