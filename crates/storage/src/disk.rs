//! The modelled device: a two-parameter cost model (random seek +
//! sequential transfer), the classic first-order model of rotating
//! storage used throughout the spatial indexing literature the paper
//! builds on, and a [`PageIo`] wrapper that charges it to a clock
//! instead of waiting.

use crate::fault::PageIo;
use crate::file::StorageError;
use std::sync::Mutex;

/// Cost model parameters, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of a random page read (seek + rotation + transfer).
    pub random_read_ms: f64,
    /// Cost of reading the page physically following the previous one.
    pub sequential_read_ms: f64,
}

impl Default for CostModel {
    /// 2007-era enterprise disk: ~8 ms random, ~0.1 ms sequential per 8 KiB
    /// page — the hardware class of the original FLAT experiments. The
    /// absolute values only scale reported stall times; all comparisons in
    /// the experiments are ratios.
    fn default() -> Self {
        CostModel { random_read_ms: 8.0, sequential_read_ms: 0.1 }
    }
}

impl CostModel {
    /// An SSD-like model (uniform, fast reads) for sensitivity analysis.
    pub fn ssd() -> Self {
        CostModel { random_read_ms: 0.15, sequential_read_ms: 0.05 }
    }

    /// Nanoseconds charged for reading `page` when the device last read
    /// `prev`: the sequential cost if `page` physically follows `prev`
    /// (pages live in one linear address space), the random cost
    /// otherwise. The first read and a re-read of the same page are
    /// random.
    pub fn read_ns(&self, prev: Option<u64>, page: u64) -> u64 {
        let sequential = prev.is_some_and(|p| p.checked_add(1) == Some(page));
        let ms = if sequential { self.sequential_read_ms } else { self.random_read_ms };
        (ms * 1e6).round() as u64
    }
}

/// A [`PageIo`] that behaves like a device of the given [`CostModel`]
/// without taking its time: every successful read is delegated to the
/// inner reader and its modelled cost is added to the wrapper's own
/// clock ([`PageIo::clock_ns`]). Only a read moves the clock, so what an
/// engine measures against it is a function of the reads it issues and
/// nothing else: the deterministic yardstick the prefetching tables are
/// scored with.
#[derive(Debug)]
pub struct ModelledDevice<F> {
    inner: F,
    cost: CostModel,
    /// (page last read, clock in nanoseconds).
    state: Mutex<(Option<u64>, u64)>,
}

impl<F: PageIo> ModelledDevice<F> {
    /// Wrap `inner`; the clock starts at zero with the head nowhere.
    pub fn new(inner: F, cost: CostModel) -> Self {
        ModelledDevice { inner, cost, state: Mutex::new((None, 0)) }
    }
}

impl<F: PageIo> PageIo for ModelledDevice<F> {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.inner.read_page_into(page, buf)?;
        // Both fields are updated together, so a reader that panicked
        // elsewhere cannot have left them inconsistent.
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.1 += self.cost.read_ns(state.0, page);
        state.0 = Some(page);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn meta(&self) -> &[u8] {
        self.inner.meta()
    }

    fn clock_ns(&self) -> Option<u64> {
        Some(self.state.lock().unwrap_or_else(|p| p.into_inner()).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pages` empty pages that always read.
    struct Blank(u64);

    impl PageIo for Blank {
        fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
            buf.clear();
            if page < self.0 {
                Ok(())
            } else {
                Err(StorageError::PageOutOfRange { page, count: self.0 })
            }
        }

        fn page_count(&self) -> u64 {
            self.0
        }

        fn page_size(&self) -> usize {
            0
        }

        fn meta(&self) -> &[u8] {
            &[]
        }
    }

    fn read(d: &ModelledDevice<Blank>, page: u64) -> Result<(), StorageError> {
        d.read_page_into(page, &mut Vec::new())
    }

    #[test]
    fn classifies_sequential_vs_random() {
        let d = ModelledDevice::new(Blank(1000), CostModel::default());
        assert_eq!(d.clock_ns(), Some(0));
        for page in [10, 11, 12, 5, 7] {
            // first read, two sequential, backwards, gap
            read(&d, page).unwrap();
        }
        assert_eq!(d.clock_ns(), Some(3 * 8_000_000 + 2 * 100_000));
    }

    #[test]
    fn rereading_same_page_is_random() {
        // Same page again is not "successor", so it costs a random read
        // (a buffer pool is what's supposed to absorb these).
        let cost = CostModel::default();
        assert_eq!(cost.read_ns(Some(3), 3), 8_000_000);
        assert_eq!(cost.read_ns(Some(3), 4), 100_000);
        assert_eq!(cost.read_ns(None, 4), 8_000_000);
        assert_eq!(cost.read_ns(Some(u64::MAX), 0), 8_000_000);
    }

    #[test]
    fn out_of_range_rejected() {
        let d = ModelledDevice::new(Blank(10), CostModel::default());
        assert!(read(&d, 10).is_err());
        assert!(read(&d, 9).is_ok());
        // A failed read takes no modelled time and does not move the head.
        assert_eq!(d.clock_ns(), Some(8_000_000));
    }

    #[test]
    fn shared_across_threads() {
        let d = ModelledDevice::new(Blank(u64::MAX), CostModel::ssd());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let d = &d;
                scope.spawn(move || {
                    // Stride 2: no read follows its predecessor, whatever
                    // the interleaving.
                    for i in 0..100 {
                        read(d, t * 1000 + 2 * i).unwrap();
                    }
                });
            }
        });
        assert_eq!(d.clock_ns(), Some(400 * 150_000));
    }
}
