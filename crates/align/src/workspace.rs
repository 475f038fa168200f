//! Reusable DP scratch memory.
//!
//! The paper bounds GST construction so that pairwise alignment becomes
//! the throughput-limiting phase; rebuilding the DP row vectors on every
//! call is pure overhead there. An [`AlignWorkspace`] owns every scratch
//! buffer the kernels in this crate need — the banded M/X/Y band rows,
//! the six rolling Gotoh rows and the Myers match masks — so
//! a slave allocates **once per rank** and every subsequent pair reuses
//! the same capacity (`clear` + `resize` never shrink a `Vec`).

/// Scratch buffers shared by all alignment kernels.
///
/// Create one per worker (rank/thread) and pass it to the `*_with`
/// kernel variants. Buffers grow to the high-water mark of the inputs
/// seen and are reused thereafter; the struct is cheap to create but
/// each fresh instance costs the allocations the reuse is meant to
/// avoid.
#[derive(Debug, Default)]
pub struct AlignWorkspace {
    /// Banded Gotoh matrices, row-major `(la + 1) × (2·radius + 1)`.
    pub(crate) band_m: Vec<i32>,
    pub(crate) band_x: Vec<i32>,
    pub(crate) band_y: Vec<i32>,
    /// Rolling Gotoh rows (previous / current) for the full-matrix
    /// score kernel (`nw`).
    pub(crate) m_prev: Vec<i32>,
    pub(crate) x_prev: Vec<i32>,
    pub(crate) y_prev: Vec<i32>,
    pub(crate) m_cur: Vec<i32>,
    pub(crate) x_cur: Vec<i32>,
    pub(crate) y_cur: Vec<i32>,
    /// Reversed anchor prefixes for the anchored kernel's left extension,
    /// so the DP scans contiguous forward slices.
    pub(crate) rev_a: Vec<u8>,
    pub(crate) rev_b: Vec<u8>,
    /// Per-symbol match bitmasks for the Myers bit-parallel kernel,
    /// `distinct symbols × word count` words, plus the symbol→slot map.
    pub(crate) myers_peq: Vec<u64>,
    pub(crate) myers_slots: Vec<u16>,
    /// Number of kernel invocations served (diagnostics/tests).
    uses: u64,
}

impl AlignWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AlignWorkspace::default()
    }

    /// Number of kernel calls this workspace has served.
    #[inline]
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Total scratch capacity currently held, in bytes (diagnostics).
    pub fn capacity_bytes(&self) -> usize {
        let i32s = self.band_m.capacity()
            + self.band_x.capacity()
            + self.band_y.capacity()
            + self.m_prev.capacity()
            + self.x_prev.capacity()
            + self.y_prev.capacity()
            + self.m_cur.capacity()
            + self.x_cur.capacity()
            + self.y_cur.capacity();
        i32s * std::mem::size_of::<i32>()
            + self.rev_a.capacity()
            + self.rev_b.capacity()
            + self.myers_peq.capacity() * std::mem::size_of::<u64>()
            + self.myers_slots.capacity() * std::mem::size_of::<u16>()
    }

    /// Take the reversed-prefix buffers out (cleared), freeing `self`
    /// for a nested kernel call; return them with [`put_rev`](Self::put_rev).
    #[inline]
    pub(crate) fn take_rev(&mut self) -> (Vec<u8>, Vec<u8>) {
        let mut a = std::mem::take(&mut self.rev_a);
        let mut b = std::mem::take(&mut self.rev_b);
        a.clear();
        b.clear();
        (a, b)
    }

    /// Return the buffers taken by [`take_rev`](Self::take_rev) so their
    /// capacity is reused by the next call.
    #[inline]
    pub(crate) fn put_rev(&mut self, a: Vec<u8>, b: Vec<u8>) {
        self.rev_a = a;
        self.rev_b = b;
    }

    /// Reset the three band matrices to `fill` at `size` cells each.
    #[inline]
    pub(crate) fn reset_band(&mut self, size: usize, fill: i32) {
        self.uses += 1;
        for band in [&mut self.band_m, &mut self.band_x, &mut self.band_y] {
            band.clear();
            band.resize(size, fill);
        }
    }

    /// Reset the six rolling rows to `fill` at `len` cells each.
    #[inline]
    pub(crate) fn reset_rows(&mut self, len: usize, fill: i32) {
        self.uses += 1;
        for row in [
            &mut self.m_prev,
            &mut self.x_prev,
            &mut self.y_prev,
            &mut self.m_cur,
            &mut self.x_cur,
            &mut self.y_cur,
        ] {
            row.clear();
            row.resize(len, fill);
        }
    }

    /// Reset the Myers match-mask scratch: clears the per-symbol bitmask
    /// pool and the symbol→slot map (capacity is kept).
    #[inline]
    pub(crate) fn reset_myers(&mut self) {
        self.uses += 1;
        self.myers_peq.clear();
        if self.myers_slots.len() != 256 {
            self.myers_slots.clear();
            self.myers_slots.resize(256, u16::MAX);
        } else {
            self.myers_slots.fill(u16::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_keep_capacity_across_resets() {
        let mut ws = AlignWorkspace::new();
        ws.reset_band(1024, -1);
        let cap = ws.band_m.capacity();
        assert!(cap >= 1024);
        ws.reset_band(16, 0);
        assert_eq!(ws.band_m.len(), 16);
        assert_eq!(ws.band_m.capacity(), cap, "shrank instead of reusing");
        assert!(ws.band_m.iter().all(|&v| v == 0));
        assert_eq!(ws.uses(), 2);
    }

    #[test]
    fn reset_rows_fills_fresh_values() {
        let mut ws = AlignWorkspace::new();
        ws.reset_rows(8, 7);
        ws.m_prev[3] = 99;
        ws.reset_rows(8, 7);
        assert!(ws.m_prev.iter().all(|&v| v == 7), "stale state leaked");
    }

    #[test]
    fn capacity_accounting_grows() {
        let mut ws = AlignWorkspace::new();
        assert_eq!(ws.capacity_bytes(), 0);
        ws.reset_band(100, 0);
        ws.reset_rows(50, 0);
        assert!(ws.capacity_bytes() >= (300 + 300) * 4);
    }
}
