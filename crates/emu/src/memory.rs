use std::fmt;

/// Byte-addressed little-endian memory, paged so sparse address spaces
/// (text at 0, data at 4 MB, stack near the top) stay cheap.
///
/// The 4 KiB pages sit behind a two-level page table over the 20-bit
/// page number: a directory indexed by its top 12 bits, grown only as
/// far as the highest 1 MiB region mapped, and one 256-entry table per
/// region that holds a mapped page. An access that stays inside one
/// page costs one walk and one slice copy; only an access that
/// straddles two pages goes byte by byte, with addresses wrapping at
/// the top of the address space.
///
/// Pages are never unmapped, so the table's shape follows from the set
/// of mapped pages alone, and equality compares mapped pages and their
/// bytes whatever order they were mapped in.
///
/// Reads from pages that were never written return `None`, which the
/// emulator turns into an [`UnmappedRead`](crate::EmuError::UnmappedRead)
/// fault — catching workload bugs instead of silently reading zeros.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Memory {
    /// One entry per 1 MiB region, up to the highest region mapped.
    dir: Vec<Option<Box<Table>>>,
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Low page-number bits that index a region's table.
const TABLE_BITS: u32 = 8;
const TABLE_LEN: usize = 1 << TABLE_BITS;

/// Size of one memory page in bytes; the granularity at which
/// checkpoints serialize memory.
pub const PAGE_BYTES: usize = PAGE_SIZE;

/// Number of pages a 32-bit address can reach; page indices run
/// `0..PAGE_COUNT`.
pub(crate) const PAGE_COUNT: u32 = 1 << (32 - PAGE_BITS);

type Page = [u8; PAGE_SIZE];
type Table = [Option<Box<Page>>; TABLE_LEN];

/// Byte offset of `addr` within its page.
fn offset(addr: u32) -> usize {
    (addr as usize) & (PAGE_SIZE - 1)
}

/// Directory and table indices of the page holding `addr`.
fn walk(addr: u32) -> (usize, usize) {
    let number = (addr >> PAGE_BITS) as usize;
    (number >> TABLE_BITS, number & (TABLE_LEN - 1))
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies `bytes` into memory starting at `base`, mapping pages as
    /// needed.
    pub fn load(&mut self, base: u32, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = offset(addr);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let (region, index) = walk(addr);
        self.dir.get(region)?.as_ref()?[index].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let (region, index) = walk(addr);
        if region >= self.dir.len() {
            self.dir.resize_with(region + 1, || None);
        }
        let table = self.dir[region].get_or_insert_with(|| Box::new([const { None }; TABLE_LEN]));
        table[index].get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads `N` consecutive bytes: one page walk when they share a
    /// page, byte by byte (wrapping) when they straddle two.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let off = offset(addr);
        let mut bytes = [0; N];
        if off <= PAGE_SIZE - N {
            bytes.copy_from_slice(&self.page(addr)?[off..off + N]);
        } else {
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32))?;
            }
        }
        Some(bytes)
    }

    /// Writes `bytes` at `addr`, the store twin of
    /// [`read_bytes`](Self::read_bytes).
    #[inline]
    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = offset(addr);
        if off <= PAGE_SIZE - N {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads one byte; `None` if the page was never mapped.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Option<u8> {
        self.page(addr).map(|p| p[offset(addr)])
    }

    /// Writes one byte, mapping the page on demand.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[offset(addr)] = value;
    }

    /// Reads a little-endian halfword. The caller checks alignment.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Option<u16> {
        self.read_bytes(addr).map(u16::from_le_bytes)
    }

    /// Writes a little-endian halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian word. The caller checks alignment.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        self.read_bytes(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Number of mapped pages (for resource accounting in tests).
    pub fn mapped_pages(&self) -> usize {
        self.pages().count()
    }

    /// Iterates `(page_index, page_bytes)` for every mapped page in
    /// ascending page-index order — a deterministic order, so memory
    /// serializes identically across runs. A page's base address is
    /// `page_index << 12`.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8; PAGE_BYTES])> + '_ {
        let tables = self.dir.iter().enumerate();
        let tables =
            tables.filter_map(|(region, table)| Some((region << TABLE_BITS, table.as_ref()?)));
        tables.flat_map(|(first, table)| {
            let pages = table.iter().enumerate();
            pages.filter_map(move |(i, page)| Some(((first | i) as u32, &**page.as_ref()?)))
        })
    }

    /// Installs a full page at `page_index`, replacing any existing
    /// mapping — the rebuild half of [`pages`](Self::pages).
    ///
    /// # Panics
    ///
    /// If `page_index` is 2²⁰ or more: no 32-bit address reaches such
    /// a page.
    pub fn install_page(&mut self, page_index: u32, bytes: &[u8; PAGE_BYTES]) {
        // panic-ok: documented contract; checkpoint restore rejects such indices first.
        assert!(
            page_index < PAGE_COUNT,
            "page index {page_index:#x} is unreachable"
        );
        *self.page_mut(page_index << PAGE_BITS) = *bytes;
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.pages()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_are_none() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), None);
        assert_eq!(m.read_u32(0x123456), None);
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        m.write_u32(addr, 0xAABB_CCDD);
        assert_eq!(m.read_u32(addr), Some(0xAABB_CCDD));
        assert_eq!(m.read_u8(addr), Some(0xDD)); // little-endian
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn load_places_bytes() {
        let mut m = Memory::new();
        m.load(0x100, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0x100), Some(0x0403_0201));
    }

    #[test]
    fn load_spans_pages_and_wraps() {
        let mut m = Memory::new();
        let bytes: Vec<u8> = (0..=255).cycle().take(3 * PAGE_SIZE).collect();
        m.load(0x0FF0, &bytes);
        assert_eq!(m.mapped_pages(), 4);
        assert_eq!(m.read_u8(0x0FF0), Some(0));
        assert_eq!(m.read_u8(0x0FF0 + 300), Some(44)); // 300 mod 256
        m.load(0xFFFF_FFFE, &[7, 8, 9]);
        assert_eq!(m.read_u8(0xFFFF_FFFF), Some(8));
        assert_eq!(m.read_u8(0), Some(9));
    }

    #[test]
    fn sparse_mapping_is_cheap() {
        let mut m = Memory::new();
        m.write_u8(0, 1);
        m.write_u8(0x00FF_FFF0, 2);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn straddling_word_wraps_at_the_top() {
        let mut m = Memory::new();
        m.write_u32(0xFFFF_FFFE, 0x4433_2211);
        assert_eq!(m.mapped_pages(), 2);
        assert_eq!(m.read_u16(0xFFFF_FFFF), Some(0x3322));
        assert_eq!(m.read_u8(1), Some(0x44));
        assert_eq!(m.read_u32(0xFFFF_FFFE), Some(0x4433_2211));
    }
}
