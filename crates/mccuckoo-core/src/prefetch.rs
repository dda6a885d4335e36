//! Software prefetch, and the window every batched pipeline runs on:
//! the software analogue of the paper's FPGA pipeline keeping many keys
//! in flight. Stage 1 hashes a key and hints its candidates' lines,
//! deciding nothing; stage 2 is the single-key op on those candidates.
//!
//! Prefetching is purely a *hint*: it never faults, never changes
//! results, and never changes the modelled access counts. On x86_64 it
//! lowers to `_mm_prefetch(T0)`, on aarch64 to `prfm pldl1keep`; on
//! every other target — and under the `no_prefetch` feature, which CI
//! uses to keep the portable fallback green — it compiles to nothing.
//!
//! The allocation hint beside them, [`huge_plane`], serves the same
//! misses from the other side: a table plane built through it asks the
//! kernel for transparent huge pages, so a probed line in a DRAM-sized
//! plane no longer costs a TLB miss and a page walk of its own
//! (*Cuckoo Hashing with Pages*, arXiv 1104.5111, counts pages, not
//! buckets). It too is advisory only.

use crate::engine::MAX_D;

/// Jobs per window of the batched pipelines: a 32-key request is staged
/// whole, so all its DRAM misses overlap, while a longer batch (a bulk
/// load) is windowed so its hints are still cached when stage 2 reaches
/// them (32 keys × 3 candidates is 96 slot lines, far inside L1d).
pub(crate) const PIPELINE_WINDOW: usize = 32;

/// Stage 1 of a pipeline over jobs `0..jobs` (`stage(j)` stages job
/// `j` and returns its candidates), run a window ahead of stage 2: each
/// job is staged once, before its stage 2, and at most one window ahead.
pub(crate) struct Window<F> {
    jobs: usize,
    /// Jobs `..staged` have been staged.
    staged: usize,
    stage: F,
    cands: [[usize; MAX_D]; PIPELINE_WINDOW],
}

impl<F: FnMut(usize) -> [usize; MAX_D]> Window<F> {
    pub(crate) fn new(jobs: usize, stage: F) -> Self {
        Window {
            jobs,
            staged: 0,
            stage,
            cands: [[usize::MAX; MAX_D]; PIPELINE_WINDOW],
        }
    }

    /// Job `j`'s candidates, staging `j`'s whole window first if `j`
    /// opens it. Asking again stages nothing; asking out of order panics,
    /// as it would hand a writer another job's candidates.
    #[inline]
    pub(crate) fn cands(&mut self, j: usize) -> &[usize; MAX_D] {
        if j == self.staged {
            let hi = self.jobs.min(j + PIPELINE_WINDOW);
            for (i, c) in (j..hi).zip(self.cands.iter_mut()) {
                *c = (self.stage)(i);
            }
            self.staged = hi;
        }
        assert!(j < self.staged && self.staged - j <= PIPELINE_WINDOW);
        &self.cands[j % PIPELINE_WINDOW]
    }
}

/// Hint the CPU to pull the cache line containing `p` toward L1.
///
/// Safe for any pointer value, including dangling or null: the
/// underlying instructions are architectural no-ops on unmapped
/// addresses and the pointer is never dereferenced.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(feature = "no_prefetch")))]
    // SAFETY: _mm_prefetch has no memory effects visible to the program;
    // it is a hint and cannot fault regardless of the address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(all(target_arch = "aarch64", not(feature = "no_prefetch")))]
    // SAFETY: PRFM is a hint instruction; it cannot fault and has no
    // architectural side effects beyond cache state.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        feature = "no_prefetch"
    ))]
    let _ = p;
}

/// Prefetch a slice element (bounds-unchecked on purpose: an
/// out-of-range index only wastes the hint).
#[inline(always)]
pub fn prefetch_index<T>(slice: &[T], index: usize) {
    // Pointer arithmetic without `get_unchecked`: wrapping add keeps
    // this sound for any index, the resulting pointer is never read.
    prefetch_read(slice.as_ptr().wrapping_add(index));
}

/// Bytes of one transparent huge page (x86_64 and 4 KiB-page aarch64).
const HUGE_PAGE: usize = 2 << 20;

/// A table plane of `len` elements made by `fill`, whose memory asks
/// for transparent huge pages before the fill first touches it: on
/// Linux the 2 MiB-aligned interior of the fresh buffer is advised
/// `MADV_HUGEPAGE`, and a kernel whose THP mode is `madvise` (or
/// `always`) then backs it with huge pages. A plane with no whole
/// aligned huge page inside it is advised nothing and pays no syscall;
/// on other targets this is a plain fill.
///
/// Advisory only: the contents, the layout, every metered count and the
/// resident size are a plain fill's, since only memory the fill writes
/// anyway is advised, and a refused advice is ignored.
pub fn huge_plane<T>(len: usize, fill: impl FnMut() -> T) -> Vec<T> {
    let mut plane = Vec::with_capacity(len);
    let bytes = len * std::mem::size_of::<T>();
    if let Some((start, bytes)) = huge_interior(plane.as_ptr() as usize, bytes) {
        advise_huge(start, bytes);
    }
    plane.resize_with(len, fill);
    plane
}

/// The whole huge pages of the buffer `[addr, addr + bytes)`, as
/// `(start, bytes)`, or `None` when it holds none.
fn huge_interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(bytes)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

#[cfg(target_os = "linux")]
fn advise_huge(start: usize, bytes: usize) {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    /// The `<asm-generic/mman-common.h>` value (every Linux
    /// architecture but parisc).
    const MADV_HUGEPAGE: i32 = 14;
    // SAFETY: `[start, start + bytes)` lies inside an allocation this
    // caller owns and has not yet written; MADV_HUGEPAGE only marks the
    // range eligible for huge pages and changes no byte of it.
    let _ = unsafe { madvise(start as *mut std::ffi::c_void, bytes, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge(_start: usize, _bytes: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Call {
        Stage1(usize),
        Stage2(usize),
    }

    /// Drive a window over `jobs` jobs the way the pipelines do (stage 2
    /// of every job in order), logging every call of both stages.
    fn drive(jobs: usize) -> Vec<Call> {
        let log = std::cell::RefCell::new(Vec::new());
        let mut window = Window::new(jobs, |i| {
            log.borrow_mut().push(Call::Stage1(i));
            [i; MAX_D]
        });
        for j in 0..jobs {
            let cands = *window.cands(j);
            assert_eq!(cands, [j; MAX_D], "job {j} got another job's candidates");
            log.borrow_mut().push(Call::Stage2(j));
        }
        log.into_inner()
    }

    #[test]
    fn window_stages_each_job_once_and_at_most_one_window_ahead() {
        for jobs in [0, 1, 31, 32, 33, 97] {
            let log = drive(jobs);
            let mut staged = vec![0usize; jobs];
            let mut next_stage2 = 0;
            for call in &log {
                match *call {
                    Call::Stage1(i) => {
                        staged[i] += 1;
                        assert!(
                            i < next_stage2 + PIPELINE_WINDOW,
                            "{jobs} jobs: job {i} staged while job {next_stage2} awaits stage 2"
                        );
                    }
                    Call::Stage2(j) => {
                        assert_eq!(j, next_stage2, "{jobs} jobs: stage 2 out of order");
                        assert_eq!(staged[j], 1, "{jobs} jobs: job {j} not staged once");
                        // Stage 2 waits for its whole window: the pipeline
                        // keeps a window of keys in flight.
                        let window_end = jobs.min((j / PIPELINE_WINDOW + 1) * PIPELINE_WINDOW);
                        let in_flight = staged.iter().filter(|&&n| n > 0).count();
                        assert_eq!(in_flight, window_end, "{jobs} jobs: at job {j}");
                        next_stage2 += 1;
                    }
                }
            }
            assert_eq!(next_stage2, jobs);
            assert!(
                staged.iter().all(|&n| n == 1),
                "{jobs} jobs: stage counts {staged:?}"
            );
        }
    }

    #[test]
    fn huge_interior_is_the_whole_aligned_pages_inside() {
        const H: usize = HUGE_PAGE;
        // Empty, sub-huge-page and unaligned buffers hold no whole page.
        assert_eq!(huge_interior(0, 0), None);
        assert_eq!(huge_interior(H, 0), None);
        assert_eq!(huge_interior(H, H - 1), None);
        assert_eq!(huge_interior(H + 64, H), None);
        assert_eq!(huge_interior(H + 64, 2 * H - 65), None);
        // Exactly one page, aligned or with ragged ends.
        assert_eq!(huge_interior(H, H), Some((H, H)));
        assert_eq!(huge_interior(H + 64, 2 * H - 64), Some((2 * H, H)));
        assert_eq!(huge_interior(H - 1, 2 * H + 5), Some((H, 2 * H)));
        // A buffer running off the address space advises nothing.
        assert_eq!(huge_interior(usize::MAX - H, 2 * H), None);
    }

    #[test]
    fn huge_plane_equals_a_plain_collect() {
        // Empty, small, exact and ragged sizes around one and two huge
        // pages of `u64`s, plus a zero-sized element type.
        let words = HUGE_PAGE / 8;
        for len in [0, 1, 1000, words - 1, words, words + 1, 2 * words + 3] {
            let mut n = 0u64;
            let plane = huge_plane(len, || {
                n += 1;
                n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            let want: Vec<u64> = (1..=len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            assert_eq!(plane, want, "len {len}");
        }
        assert_eq!(huge_plane(5, || ()), vec![(); 5]);
        let opts: Vec<Option<(u64, u64)>> = huge_plane(3 * words, || None);
        assert!(opts.len() == 3 * words && opts.iter().all(Option::is_none));
    }

    #[test]
    fn prefetch_tolerates_any_pointer() {
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(core::ptr::null::<u64>());
        prefetch_read(usize::MAX as *const u64);
        prefetch_index(&v, 0);
        prefetch_index(&v, 1_000_000); // far out of range: still a no-op
    }
}
