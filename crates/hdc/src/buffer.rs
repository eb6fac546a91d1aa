//! An 8-byte-aligned, reference-counted, read-only byte buffer.
//!
//! [`WordBuffer`] backs the zero-copy index load path: a whole `.hdx`
//! file is read (or mapped) into **one** allocation whose base address is
//! `u64`-aligned, so any 8-aligned byte range inside it can be handed out
//! directly as a `&[u64]` hypervector word slice — the packed words the
//! distance kernels scan *are* the file bytes, with no per-reference
//! materialisation.
//!
//! Alignment is guaranteed by construction: the owned storage is a
//! `Vec<u64>` viewed as bytes (never the other way round), and the
//! optional `mmap` storage (feature `mmap`, 64-bit Unix only — the
//! hand-declared FFI signature assumes 64-bit `off_t`/`size_t`) is
//! page-aligned by the kernel.

use std::fmt;
use std::io::Read;
use std::sync::Arc;

/// The storage behind a [`WordBuffer`].
enum Storage {
    /// Heap storage: a `u64` vector viewed as bytes (base is 8-aligned
    /// because the allocation was made *as* `u64`s).
    Owned(Vec<u64>),
    /// A read-only file mapping (page-aligned, unmapped on drop).
    #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
    Mapped(mmap::Mapping),
}

/// A shared, immutable, 8-byte-aligned byte buffer that hands out `u64`
/// word slices at aligned offsets.
///
/// Cloning is cheap (one `Arc` bump) and every clone views the same
/// bytes — compare handles with [`WordBuffer::ptr_eq`].
#[derive(Clone)]
pub struct WordBuffer {
    storage: Arc<Storage>,
    /// Logical length in bytes (the storage may be padded to a whole
    /// number of words).
    len: usize,
}

impl WordBuffer {
    /// Read exactly `len` bytes from `reader` into one aligned buffer.
    ///
    /// # Errors
    ///
    /// Propagates read failures (including a short stream).
    pub(crate) fn from_reader<R: Read>(mut reader: R, len: usize) -> std::io::Result<WordBuffer> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the view covers exactly `words`' allocation
        // (`words.len() * 8` bytes, all initialised — zeroed just above),
        // `u8` needs no alignment beyond the `u64`s' and has no invalid
        // values, and `words` is not touched while `bytes` lives, so the
        // mutable view is the allocation's only access.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        reader.read_exact(&mut bytes[..len])?;
        Ok(WordBuffer {
            storage: Arc::new(Storage::Owned(words)),
            len,
        })
    }

    /// Copy `bytes` into an aligned buffer (tests and in-memory loads;
    /// the zero-copy path uses `WordBuffer::from_reader` so the file is
    /// read straight into place).
    pub fn from_bytes(bytes: &[u8]) -> WordBuffer {
        WordBuffer::from_reader(bytes, bytes.len()).expect("reading from a slice cannot fail")
    }

    /// Map the file at `path` read-only into memory (no copy at all; the
    /// kernel pages bytes in on demand).
    ///
    /// # Errors
    ///
    /// Propagates open/stat/map failures.
    #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
    pub fn map_file(path: &std::path::Path) -> std::io::Result<WordBuffer> {
        let mapping = mmap::Mapping::open(path)?;
        let len = mapping.len();
        Ok(WordBuffer {
            storage: Arc::new(Storage::Mapped(mapping)),
            len,
        })
    }

    /// The heap words back, when this handle is the only one on heap
    /// storage — the in-place growth path of a reference table. A file
    /// mapping cannot grow and a buffer other handles still view must
    /// not move under them, so both come back untouched as `Err`.
    pub fn into_heap_words(self) -> Result<Vec<u64>, WordBuffer> {
        let len = self.len;
        match Arc::try_unwrap(self.storage) {
            Ok(Storage::Owned(words)) => Ok(words),
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Ok(mapped @ Storage::Mapped(_)) => Err(WordBuffer {
                storage: Arc::new(mapped),
                len,
            }),
            Err(storage) => Err(WordBuffer { storage, len }),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer contents as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &*self.storage {
            Storage::Owned(words) => {
                // SAFETY: the view covers exactly `words`' initialised
                // allocation, as `u8`s (no alignment or validity
                // requirement), and borrows it from `&self`: the storage
                // is immutable behind the `Arc` and outlives the view.
                let all = unsafe {
                    std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8)
                };
                &all[..self.len]
            }
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Storage::Mapped(mapping) => mapping.as_bytes(),
        }
    }

    /// The `count` words starting at `byte_offset`.
    ///
    /// # Panics
    ///
    /// Panics unless `byte_offset` is 8-aligned and the range lies inside
    /// the buffer.
    pub fn words(&self, byte_offset: usize, count: usize) -> &[u64] {
        assert_eq!(byte_offset % 8, 0, "word slices need an 8-aligned offset");
        // Checked arithmetic: a huge offset must fail here, not wrap
        // past the bound and reach the unsafe pointer math below.
        let end = count
            .checked_mul(8)
            .and_then(|len| byte_offset.checked_add(len));
        assert!(
            end.is_some_and(|end| end <= self.len),
            "word slice {byte_offset}+{count}w out of bounds for {} bytes",
            self.len
        );
        match &*self.storage {
            Storage::Owned(words) => &words[byte_offset / 8..byte_offset / 8 + count],
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Storage::Mapped(mapping) => mapping.words(byte_offset, count),
        }
    }

    /// Whether the buffer is a file mapping (whose resident pages can be
    /// released with [`WordBuffer::release_range`]).
    pub fn is_mapped(&self) -> bool {
        match &*self.storage {
            Storage::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Storage::Mapped(_) => true,
        }
    }

    /// Release the resident pages backing `len` bytes at `byte_offset`
    /// back to the kernel (`madvise(MADV_DONTNEED)`), returning how many
    /// bytes of whole pages were dropped. The bytes stay addressable —
    /// the mapping is read-only and private, so the next access simply
    /// faults the page back in from the file. This is the shard-eviction
    /// primitive: cold shards give their memory back, and "reload" is a
    /// free page fault.
    ///
    /// Only whole pages inside the range are dropped (the range is
    /// shrunk to page boundaries; partial edge pages stay resident
    /// because neighbouring data shares them). Returns 0 — releasing
    /// nothing — on owned storage, on a sub-page range, or if the
    /// kernel refuses the advice.
    ///
    /// # Panics
    ///
    /// Panics when the range lies outside the buffer.
    pub fn release_range(&self, byte_offset: usize, len: usize) -> usize {
        let end = byte_offset
            .checked_add(len)
            .expect("release range must not overflow");
        assert!(
            end <= self.len,
            "release range {byte_offset}+{len} out of bounds for {} bytes",
            self.len
        );
        match &*self.storage {
            Storage::Owned(_) => 0,
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Storage::Mapped(mapping) => mapping.release_range(byte_offset, len),
        }
    }

    /// Whether two handles view the same storage.
    pub fn ptr_eq(a: &WordBuffer, b: &WordBuffer) -> bool {
        Arc::ptr_eq(&a.storage, &b.storage)
    }

    /// Number of live handles on this buffer's storage.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.storage)
    }
}

impl From<Vec<u64>> for WordBuffer {
    /// Heap storage over whole words, without copying them.
    fn from(words: Vec<u64>) -> WordBuffer {
        let len = words.len() * 8;
        WordBuffer {
            storage: Arc::new(Storage::Owned(words)),
            len,
        }
    }
}

impl fmt::Debug for WordBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &*self.storage {
            Storage::Owned(_) => "owned",
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Storage::Mapped(_) => "mmap",
        };
        write!(f, "WordBuffer({kind}, {} bytes)", self.len)
    }
}

#[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
mod mmap {
    //! A minimal read-only `mmap` wrapper declared straight against the
    //! C library (the workspace builds offline, so the `libc` crate is
    //! not available — the two syscalls it would wrap are declared here
    //! instead).

    use std::os::fd::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    /// A read-only private file mapping, unmapped on drop.
    pub(super) struct Mapping {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: `ptr` is the base of a `PROT_READ` mapping that no code
    // writes through and that only `Drop` (by value, so with no borrow
    // left) unmaps, and `len` is a plain integer; a mapping belongs to
    // the process, not to the thread that made it.
    unsafe impl Send for Mapping {}
    // SAFETY: no `&self` method writes a field or a mapped byte — each
    // reads `ptr`, `len` and the mapping (or drops whole clean pages that
    // refault with the same bytes, `release_range`) — so concurrent
    // shared access is concurrent reads.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn open(path: &std::path::Path) -> std::io::Result<Mapping> {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: a null hint lets the kernel place the mapping, `len`
            // is the file's non-zero size (checked above), the descriptor
            // is open for the whole call, and a failure comes back as
            // `MAP_FAILED` (-1), which is checked before the pointer is
            // kept.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        pub(super) fn as_bytes(&self) -> &[u8] {
            // SAFETY: `open` mapped `len` readable bytes at `ptr`, and
            // they stay mapped while `&self` lives (only `Drop` unmaps).
            // This program never writes a mapped file in place (images
            // are written to a temporary file and renamed over), so the
            // bytes do not change under the view; a file truncated by
            // another process is outside this invariant.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }

        pub(super) fn words(&self, byte_offset: usize, count: usize) -> &[u64] {
            // SAFETY: `WordBuffer::words`, the only caller, checks that
            // `byte_offset` is 8-aligned and that `byte_offset + 8 *
            // count` lies within `len` without overflow; the base is
            // page-aligned, so the `u64`s are aligned, inside the mapping
            // and initialised (see `as_bytes` for why they stay put).
            unsafe {
                std::slice::from_raw_parts(self.ptr.cast::<u8>().add(byte_offset).cast(), count)
            }
        }

        /// Drop the whole pages inside `[byte_offset, byte_offset+len)`
        /// from residency; returns the bytes released. See
        /// [`super::WordBuffer::release_range`] for the contract.
        pub(super) fn release_range(&self, byte_offset: usize, len: usize) -> usize {
            // SAFETY: `getpagesize` takes no arguments and has no
            // preconditions.
            let page = unsafe { getpagesize() }.max(1) as usize;
            // Shrink to whole pages: the first page boundary at or after
            // the start, the last at or before the end. Edge pages are
            // shared with neighbouring data and must stay resident.
            let start = byte_offset.div_ceil(page) * page;
            let end = (byte_offset + len) / page * page;
            if start >= end {
                return 0;
            }
            // SAFETY: `start..end` is whole pages inside the mapping
            // (`WordBuffer::release_range`, the only caller, checks
            // `byte_offset + len <= self.len`; the base is page-aligned).
            // MADV_DONTNEED on a read-only private file mapping cannot
            // lose data or move bytes under a live view: there are no
            // dirty pages, so the next access refaults the same bytes
            // straight from the file.
            let rc = unsafe {
                madvise(
                    self.ptr.cast::<u8>().add(start).cast(),
                    end - start,
                    MADV_DONTNEED,
                )
            };
            if rc == 0 {
                end - start
            } else {
                0
            }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr` and `len` are exactly what `open`'s `mmap`
            // returned and was asked for, and this runs once, when the
            // last handle is gone, so no view of the bytes is left.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_bytes_and_words() {
        let mut bytes = Vec::new();
        for w in [1u64, u64::MAX, 0x0123_4567_89ab_cdef] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.push(7); // a trailing partial word
        let buffer = WordBuffer::from_bytes(&bytes);
        assert_eq!(buffer.len(), 25);
        assert_eq!(buffer.as_bytes(), &bytes[..]);
        assert_eq!(buffer.words(0, 2), &[1, u64::MAX]);
        assert_eq!(buffer.words(8, 2), &[u64::MAX, 0x0123_4567_89ab_cdef]);
    }

    #[test]
    fn base_is_word_aligned() {
        let buffer = WordBuffer::from_bytes(&[0u8; 17]);
        assert_eq!(buffer.as_bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn clones_share_storage() {
        let buffer = WordBuffer::from_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let other = buffer.clone();
        assert!(WordBuffer::ptr_eq(&buffer, &other));
        assert_eq!(buffer.handle_count(), 2);
        assert_eq!(other.as_bytes(), buffer.as_bytes());
    }

    #[test]
    fn heap_words_come_back_only_to_a_sole_holder() {
        let buffer = WordBuffer::from(vec![1u64, 2, 3]);
        assert_eq!(buffer.len(), 24);
        let other = buffer.clone();
        let buffer = buffer
            .into_heap_words()
            .expect_err("another handle views it");
        drop(other);
        assert_eq!(buffer.into_heap_words().expect("sole holder"), [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "8-aligned")]
    fn misaligned_word_slice_rejected() {
        let buffer = WordBuffer::from_bytes(&[0u8; 32]);
        let _ = buffer.words(4, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_word_slice_rejected() {
        let buffer = WordBuffer::from_bytes(&[0u8; 15]);
        let _ = buffer.words(8, 1);
    }

    #[test]
    fn short_reader_is_an_error() {
        let bytes = [0u8; 4];
        assert!(WordBuffer::from_reader(&bytes[..], 8).is_err());
    }

    #[test]
    fn owned_storage_releases_nothing() {
        let buffer = WordBuffer::from_bytes(&[7u8; 64]);
        assert!(!buffer.is_mapped());
        assert_eq!(buffer.release_range(0, 64), 0);
        assert_eq!(buffer.as_bytes(), &[7u8; 64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn release_range_checks_bounds() {
        let buffer = WordBuffer::from_bytes(&[0u8; 16]);
        let _ = buffer.release_range(8, 16);
    }

    #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
    #[test]
    fn released_mapped_pages_refault_from_the_file() {
        // Map a multi-page file, drop the middle pages, and read the
        // whole buffer back: the kernel must refault the released pages
        // from the file with the original bytes intact.
        let path = std::env::temp_dir().join(format!("hdoms-madv-{}.bin", std::process::id()));
        let bytes: Vec<u8> = (0..64 * 1024usize).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let mapped = WordBuffer::map_file(&path).unwrap();
        assert!(mapped.is_mapped());
        let released = mapped.release_range(4096, 3 * 4096);
        assert!(released > 0, "whole pages inside the range were dropped");
        assert!(released <= 3 * 4096);
        assert_eq!(mapped.as_bytes(), &bytes[..], "refaulted bytes differ");
        // A sub-page range has no whole page to drop.
        assert_eq!(mapped.release_range(1, 16), 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
    #[test]
    fn mapped_file_reads_like_owned() {
        let path = std::env::temp_dir().join(format!("hdoms-mmap-{}.bin", std::process::id()));
        let bytes: Vec<u8> = (0..100u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let mapped = WordBuffer::map_file(&path).unwrap();
        assert_eq!(mapped.as_bytes(), &bytes[..]);
        assert_eq!(
            mapped.words(8, 1),
            WordBuffer::from_bytes(&bytes).words(8, 1)
        );
        assert!(mapped.into_heap_words().is_err(), "a mapping cannot grow");
        std::fs::remove_file(&path).ok();
    }
}
