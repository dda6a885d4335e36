//! Cacheline padding for hot shared state.
//!
//! Writers on different shards (each behind its own writer lock) must
//! not steal each other's cachelines: a counter that shares
//! a line with a neighbouring shard's counter turns independent writes
//! into coherence-protocol ping-pong. [`CachePadded`] aligns its
//! contents to 128 bytes — two 64-byte lines, because adjacent-line
//! prefetchers on x86 pull cachelines in pairs — so each padded value
//! owns its lines outright.

/// Pads and aligns a value to 128 bytes (an adjacent-line-prefetch
/// pair), so two `CachePadded` values never share a cacheline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value` out to its own cacheline pair.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consume the padding, returning the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_size() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        // A large value still gets its own line pair at both ends.
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 130]>>(), 256);
    }

    #[test]
    fn deref_round_trip() {
        let mut p = CachePadded::new(41u64);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
        assert_eq!(*CachePadded::from(7u32), 7);
    }

    #[test]
    fn array_elements_never_share_lines() {
        let a = [CachePadded::new(0u8), CachePadded::new(1u8)];
        let p0 = &a[0] as *const _ as usize;
        let p1 = &a[1] as *const _ as usize;
        assert!(p1 - p0 >= 128);
    }
}
