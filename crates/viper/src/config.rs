//! Store construction parameters: record layout, device sizing, update
//! strategy and the optional durability region.

use li_nvm::NvmConfig;

use crate::checkpoint::DurabilityConfig;
use crate::layout::RecordLayout;

/// Store construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub layout: RecordLayout,
    pub nvm: NvmConfig,
    /// Perform updates out of place (append + retire) instead of in place.
    /// Out-of-place updates survive a crash mid-update — recovery keeps
    /// either the complete old or the complete new record — at the cost of
    /// extra NVM traffic. In-place updates (the default, matching the
    /// paper's setup) can lose the record to quarantine if a crash tears
    /// the value mid-write.
    pub crash_safe_updates: bool,
    /// When set, a slice at the top of the device is carved into a WAL
    /// ring plus two checkpoint slots; every put/delete is logged
    /// before it is acknowledged and recovery prefers checkpoint + log
    /// replay over the full page rescan. `None` (the default) keeps the
    /// pre-durability behaviour exactly.
    pub durability: Option<DurabilityConfig>,
}

impl StoreConfig {
    /// Device bytes needed for `n` records under `layout`, with headroom
    /// `n / headroom_div` plus `pad` records of rounding slack and
    /// `slack_pages` whole pages for allocator breathing room — the one
    /// sizing formula every config flavour shares.
    fn bytes_for(
        layout: RecordLayout,
        n: usize,
        headroom_div: usize,
        pad: usize,
        slack_pages: usize,
    ) -> usize {
        (n + n / headroom_div + pad) / layout.slots_per_page() * layout.page_size
            + slack_pages * layout.page_size
    }

    /// Paper-style store: 200-byte values on an Optane-like device sized
    /// for `n` records (with 30% headroom).
    pub fn paper(n: usize) -> Self {
        let layout = RecordLayout::paper_default();
        let bytes = Self::bytes_for(layout, n, 3, 1024, 64);
        StoreConfig {
            layout,
            nvm: NvmConfig::optane(bytes),
            crash_safe_updates: false,
            durability: None,
        }
    }

    /// Small, latency-free store for tests (50% headroom).
    pub fn test(n: usize) -> Self {
        let layout = RecordLayout::small();
        let bytes = Self::bytes_for(layout, n, 2, 64, 16);
        StoreConfig {
            layout,
            nvm: NvmConfig::fast(bytes),
            crash_safe_updates: false,
            durability: None,
        }
    }

    /// Switches update strategy (see [`StoreConfig::crash_safe_updates`]).
    #[must_use]
    pub fn with_crash_safe_updates(mut self, on: bool) -> Self {
        self.crash_safe_updates = on;
        self
    }

    /// Enables WAL + checkpoint durability, growing the device by the
    /// region's (page-rounded) footprint so the heap keeps the record
    /// capacity this config was sized for.
    #[must_use]
    pub fn with_durability(mut self, d: DurabilityConfig) -> Self {
        let page = self.layout.page_size;
        self.nvm.capacity += d.region_bytes().div_ceil(page) * page + page;
        self.durability = Some(d);
        self
    }
}
