//! Userspace memory image passed to the virtual kernel.

/// Sparse byte map: the fuzzer's encoder allocates segments, the kernel
/// reads them (`copy_from_user`).
///
/// Segments are kept in a flat vector sorted by start address, so the
/// hot lookup ("greatest segment start ≤ addr") is a binary search
/// with no per-call allocation — the encoder already emits segments in
/// ascending address order, which [`MemMap::load`] exploits to rebuild
/// an image from a finished encoder without sorting or copying bytes.
#[derive(Debug, Clone, Default)]
pub struct MemMap {
    /// `(start, bytes)`, sorted ascending by start, unique starts.
    segments: Vec<(u64, Vec<u8>)>,
}

impl MemMap {
    /// Empty map.
    #[must_use]
    pub fn new() -> MemMap {
        MemMap::default()
    }

    /// Build from `(address, bytes)` segments (encoder output). Later
    /// entries replace earlier ones with the same start address.
    #[must_use]
    pub fn from_segments(segments: Vec<(u64, Vec<u8>)>) -> MemMap {
        let mut m = MemMap::new();
        for (addr, bytes) in segments {
            m.write(addr, bytes);
        }
        m
    }

    /// Install bytes at an address (overwrites overlaps segment-wise).
    pub fn write(&mut self, addr: u64, bytes: Vec<u8>) {
        match self.segments.binary_search_by_key(&addr, |s| s.0) {
            Ok(i) => self.segments[i].1 = bytes,
            Err(i) => self.segments.insert(i, (addr, bytes)),
        }
    }

    /// Replace the whole image with already-sorted segments, swapping
    /// vectors so the previous storage flows back to the caller for
    /// recycling. Falls back to sorting if the input is unordered.
    pub fn load(&mut self, segments: &mut Vec<(u64, Vec<u8>)>) {
        std::mem::swap(&mut self.segments, segments);
        if !self.segments.windows(2).all(|w| w[0].0 < w[1].0) {
            self.segments.sort_by_key(|s| s.0);
            self.segments.dedup_by(|later, kept| {
                if later.0 == kept.0 {
                    // Last write wins, as with repeated `write`s.
                    std::mem::swap(&mut kept.1, &mut later.1);
                    true
                } else {
                    false
                }
            });
        }
    }

    /// Drop every segment, retaining storage.
    pub fn clear(&mut self) {
        self.segments.clear();
    }

    /// Index of the segment with the greatest start ≤ `addr`.
    fn seg_at_or_before(&self, addr: u64) -> Option<usize> {
        let i = self.segments.partition_point(|s| s.0 <= addr);
        i.checked_sub(1)
    }

    /// Read `len` bytes at `addr` into `out` (cleared first), possibly
    /// spanning adjacent segments. Returns `false` (an `EFAULT`) if
    /// any byte is unmapped; `out` contents are unspecified then.
    pub fn read_into(&self, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        out.clear();
        if len == 0 {
            return true;
        }
        let mut cur = addr;
        let Some(end) = addr.checked_add(len as u64) else {
            return false;
        };
        while cur < end {
            let Some(i) = self.seg_at_or_before(cur) else {
                return false;
            };
            let (seg_start, seg) = &self.segments[i];
            let Ok(off) = usize::try_from(cur - seg_start) else {
                return false;
            };
            if off >= seg.len() {
                return false;
            }
            let take = (seg.len() - off).min((end - cur) as usize);
            out.extend_from_slice(&seg[off..off + take]);
            cur += take as u64;
        }
        true
    }

    /// Borrow `len` bytes at `addr` without copying, when the whole
    /// range lies inside one segment (the common case: the encoder
    /// emits each struct argument as a single segment). Returns `None`
    /// when the range crosses a segment boundary or is unmapped —
    /// callers fall back to the copying [`MemMap::read_into`], which
    /// also distinguishes those two cases.
    #[must_use]
    pub fn slice_at(&self, addr: u64, len: usize) -> Option<&[u8]> {
        if len == 0 {
            return Some(&[]);
        }
        let i = self.seg_at_or_before(addr)?;
        let (seg_start, seg) = &self.segments[i];
        let off = usize::try_from(addr - seg_start).ok()?;
        let end = off.checked_add(len)?;
        seg.get(off..end)
    }

    /// Read `len` bytes at `addr`, possibly spanning adjacent segments.
    /// Returns `None` (an `EFAULT`) if any byte is unmapped.
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out).then_some(out)
    }

    /// Whether `len` bytes at `addr` are fully mapped (readability
    /// probe without materializing the bytes).
    #[must_use]
    pub fn is_mapped(&self, addr: u64, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let mut cur = addr;
        let Some(end) = addr.checked_add(len as u64) else {
            return false;
        };
        while cur < end {
            let Some(i) = self.seg_at_or_before(cur) else {
                return false;
            };
            let (seg_start, seg) = &self.segments[i];
            let Ok(off) = usize::try_from(cur - seg_start) else {
                return false;
            };
            if off >= seg.len() {
                return false;
            }
            cur += (seg.len() - off).min((end - cur) as usize) as u64;
        }
        true
    }

    /// The single byte at `addr`, if mapped.
    #[must_use]
    pub fn byte_at(&self, addr: u64) -> Option<u8> {
        let i = self.seg_at_or_before(addr)?;
        let (seg_start, seg) = &self.segments[i];
        seg.get(usize::try_from(addr - seg_start).ok()?).copied()
    }

    /// The bytes of the NUL-terminated string at `addr` (terminator
    /// excluded), reading at most `max` bytes. A string may also end
    /// where its mapping does: exact-size allocations carry no NUL.
    /// `None` (an `EFAULT`) when not even the first byte is mapped.
    ///
    /// Borrowed from the image when the string and its NUL lie in one
    /// segment — the encoder's layout; anything else (no NUL before
    /// the segment or `max` ends, a string running on into an adjacent
    /// segment) is gathered into `spill` byte by byte.
    #[must_use]
    pub fn cstr_at<'a>(
        &'a self,
        addr: u64,
        max: usize,
        spill: &'a mut Vec<u8>,
    ) -> Option<&'a [u8]> {
        if let Some(text) = self.cstr_in_segment(addr, max) {
            return Some(text);
        }
        spill.clear();
        for i in 0..max as u64 {
            match addr.checked_add(i).and_then(|a| self.byte_at(a)) {
                Some(0) => return Some(spill),
                Some(b) => spill.push(b),
                None => break,
            }
        }
        (!spill.is_empty()).then_some(spill)
    }

    /// [`MemMap::cstr_at`] for the encoder's layout: the string and
    /// its NUL sit in the segment holding `addr`, and no later segment
    /// starts among them (it would supply those bytes instead).
    fn cstr_in_segment(&self, addr: u64, max: usize) -> Option<&[u8]> {
        let i = self.seg_at_or_before(addr)?;
        let (seg_start, seg) = &self.segments[i];
        let tail = seg.get(usize::try_from(addr - seg_start).ok()?..)?;
        let len = tail.iter().take(max).position(|b| *b == 0)?;
        let nul_addr = addr.checked_add(len as u64)?;
        self.segments
            .get(i + 1)
            .is_none_or(|next| next.0 > nul_addr)
            .then_some(&tail[..len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_within_segment() {
        let mut m = MemMap::new();
        m.write(0x1000, vec![1, 2, 3, 4]);
        assert_eq!(m.read(0x1000, 4), Some(vec![1, 2, 3, 4]));
        assert_eq!(m.read(0x1001, 2), Some(vec![2, 3]));
        assert_eq!(m.read(0x1003, 2), None); // runs past the end
        assert_eq!(m.read(0x2000, 1), None);
        assert!(m.is_mapped(0x1000, 4));
        assert!(!m.is_mapped(0x1003, 2));
        assert_eq!(m.byte_at(0x1002), Some(3));
        assert_eq!(m.byte_at(0x0fff), None);
    }

    #[test]
    fn read_spans_adjacent_segments() {
        let mut m = MemMap::new();
        m.write(0x1000, vec![1, 2]);
        m.write(0x1002, vec![3, 4]);
        assert_eq!(m.read(0x1000, 4), Some(vec![1, 2, 3, 4]));
    }

    #[test]
    fn slice_at_borrows_within_one_segment_only() {
        let mut m = MemMap::new();
        m.write(0x1000, vec![1, 2, 3, 4]);
        m.write(0x1004, vec![5, 6]);
        assert_eq!(m.slice_at(0x1000, 4), Some(&[1, 2, 3, 4][..]));
        assert_eq!(m.slice_at(0x1001, 2), Some(&[2, 3][..]));
        assert_eq!(m.slice_at(0x1000, 0), Some(&[][..]));
        // Crossing the boundary is readable (read spans) but not
        // borrowable — the caller must take the copy path.
        assert_eq!(m.read(0x1002, 4), Some(vec![3, 4, 5, 6]));
        assert_eq!(m.slice_at(0x1002, 4), None);
        // Unmapped or overflowing ranges are never borrowable.
        assert_eq!(m.slice_at(0x2000, 1), None);
        assert_eq!(m.slice_at(u64::MAX, 2), None);
        assert_eq!(m.slice_at(0x1000, usize::MAX), None);
    }

    #[test]
    fn write_same_addr_replaces() {
        let mut m = MemMap::new();
        m.write(0x1000, vec![1, 2]);
        m.write(0x1000, vec![9]);
        assert_eq!(m.read(0x1000, 1), Some(vec![9]));
        assert_eq!(m.read(0x1001, 1), None);
    }

    #[test]
    fn load_swaps_storage_and_sorts_if_needed() {
        let mut m = MemMap::new();
        let mut segs = vec![(0x2000u64, vec![3u8]), (0x1000, vec![1, 2])];
        m.load(&mut segs);
        assert!(segs.is_empty());
        assert_eq!(m.read(0x1000, 2), Some(vec![1, 2]));
        assert_eq!(m.read(0x2000, 1), Some(vec![3]));
        // Ascending input takes the no-sort path.
        let mut sorted = vec![(0x10u64, vec![7u8]), (0x20, vec![8u8])];
        m.load(&mut sorted);
        assert_eq!(m.byte_at(0x20), Some(8));
        // Previous storage flowed back for reuse.
        assert_eq!(sorted.len(), 2);
    }

    /// The byte-at-a-time definition `cstr_at` must agree with.
    fn cstr_bytewise(m: &MemMap, addr: u64, max: usize) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            match addr.checked_add(i).and_then(|a| m.byte_at(a)) {
                Some(0) => return Some(out),
                Some(b) => out.push(b),
                None => break,
            }
        }
        (!out.is_empty()).then_some(out)
    }

    fn cstr(m: &MemMap, addr: u64, max: usize) -> Option<Vec<u8>> {
        let mut spill = vec![0xAA; 3]; // stale content must not leak
        let got = m.cstr_at(addr, max, &mut spill).map(<[u8]>::to_vec);
        assert_eq!(got, cstr_bytewise(m, addr, max), "addr {addr:#x} max {max}");
        got
    }

    #[test]
    fn cstring_reads_to_nul() {
        let mut m = MemMap::new();
        m.write(0x1000, b"/dev/x\0garbage".to_vec());
        assert_eq!(cstr(&m, 0x1000, 64), Some(b"/dev/x".to_vec()));
        assert_eq!(cstr(&m, 0x1004, 64), Some(b"/x".to_vec()));
        // An empty string is a string; an unmapped pointer is not.
        assert_eq!(cstr(&m, 0x1006, 64), Some(Vec::new()));
        assert_eq!(cstr(&m, 0x0fff, 64), None);
        assert_eq!(cstr(&m, 0x100e, 64), None);
        assert_eq!(cstr(&m, u64::MAX, 64), None);
        // `max` cuts a string short, NUL or not.
        assert_eq!(cstr(&m, 0x1000, 4), Some(b"/dev".to_vec()));
        assert_eq!(cstr(&m, 0x1000, 6), Some(b"/dev/x".to_vec()));
        assert_eq!(cstr(&m, 0x1000, 0), None);
    }

    #[test]
    fn cstring_unterminated_at_segment_end() {
        let mut m = MemMap::new();
        m.write(0x1000, b"/dev/x".to_vec());
        assert_eq!(cstr(&m, 0x1000, 64), Some(b"/dev/x".to_vec()));
        // A segment far away changes nothing ...
        m.write(0x2000, b"y\0".to_vec());
        assert_eq!(cstr(&m, 0x1000, 64), Some(b"/dev/x".to_vec()));
        // ... an adjacent one continues the string ...
        m.write(0x1006, b"yz\0".to_vec());
        assert_eq!(cstr(&m, 0x1000, 64), Some(b"/dev/xyz".to_vec()));
        assert_eq!(cstr(&m, 0x1000, 7), Some(b"/dev/xy".to_vec()));
        // ... and one that starts inside the first shadows its tail.
        m.write(0x1003, b"!\0".to_vec());
        assert_eq!(cstr(&m, 0x1000, 64), Some(b"/de!".to_vec()));
        assert_eq!(cstr(&m, 0x1000, 3), Some(b"/de".to_vec()));
    }

    #[test]
    fn zero_len_read_ok() {
        let m = MemMap::new();
        assert_eq!(m.read(0x1000, 0), Some(vec![]));
        assert!(m.is_mapped(0x1000, 0));
    }
}
