//! Image surgery shared by the index test binaries: the header's fields
//! found by their decode-error labels and re-sealed, and the legacy
//! sketch section (docs/FORMAT.md, "The legacy sketch section") located,
//! spliced out or encoded and spliced back in.

#![allow(dead_code)] // each test binary uses its own subset

use hdoms_index::format::{pad_to_8, CHECKSUM_SEED};
use hdoms_index::wire::WireError;
use hdoms_index::xxhash::xxh64;
use hdoms_index::{IndexError, LibraryIndex};
use std::ops::Range;

/// The header section's length, from the preamble.
fn header_len(image: &[u8]) -> usize {
    u64::from_le_bytes(image[12..20].try_into().unwrap()) as usize
}

/// Write `header` into `image` as its header section: length, bytes,
/// and a checksum that holds.
pub fn seal_header(image: &mut Vec<u8>, header: &[u8]) {
    let old_len = header_len(image);
    let mut sealed = header.to_vec();
    sealed.extend(xxh64(header, CHECKSUM_SEED).to_le_bytes());
    image[12..20].copy_from_slice(&(header.len() as u64).to_le_bytes());
    image.splice(20..20 + old_len + 8, sealed);
}

/// Offset, inside the header section of `image`, of the field the
/// decoder labels `label` (`"encoder.q_levels"`) — read off the field
/// list through its decode-error labels: a header cut exactly where a
/// field starts fails reading that field with nothing available.
pub fn header_offset_of(image: &[u8], label: &str) -> usize {
    let header = image[20..20 + header_len(image)].to_vec();
    (0..header.len())
        .find(|&cut| {
            let mut cut_image = image.to_vec();
            seal_header(&mut cut_image, &header[..cut]);
            matches!(
                LibraryIndex::from_bytes(&cut_image, 1),
                Err(IndexError::Wire(WireError::UnexpectedEnd { what, available: 0, .. }))
                    if what == label
            )
        })
        .unwrap_or_else(|| panic!("no header field is labelled {label:?}"))
}

/// The `u64` header field `label` of `image`.
pub fn header_u64(image: &[u8], label: &str) -> u64 {
    let at = 20 + header_offset_of(image, label);
    u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
}

/// Overwrite the `u64` header field `label` of `image` with `value` and
/// re-seal the header checksum, so only what reads the field can object.
pub fn patch_header(image: &mut Vec<u8>, label: &str, value: u64) {
    let at = header_offset_of(image, label);
    let mut header = image[20..20 + header_len(image)].to_vec();
    header[at..at + 8].copy_from_slice(&value.to_le_bytes());
    seal_header(image, &header);
}

/// Where a v2+ image's section after the header and the MLC section
/// starts: its payload's absolute offset (the frames are padded to 8).
fn after_mlc(image: &[u8]) -> usize {
    let mut at = 20 + header_len(image) + 8;
    let mlc_len = header_u64(image, "header.mlc_len") as usize;
    if mlc_len > 0 {
        at += pad_to_8(at) + mlc_len + 8;
    }
    at + pad_to_8(at)
}

/// The payload of a v3 image's legacy sketch section (its checksum
/// follows it).
pub fn sketch_payload(image: &[u8]) -> Range<usize> {
    let len = header_u64(image, "header.sketch_len") as usize;
    assert!(len > 0, "the image carries no sketch section");
    let start = after_mlc(image);
    start..start + len
}

/// Re-seal the checksum of the sketch section at `payload`.
pub fn reseal_sketch(image: &mut [u8], payload: Range<usize>) {
    let sealed = xxh64(&image[payload.clone()], CHECKSUM_SEED);
    image[payload.end..payload.end + 8].copy_from_slice(&sealed.to_le_bytes());
}

/// `image` as this writer lays it out: the legacy sketch frame cut out
/// (the first shard's frame moves up to the 8-aligned offset it stood
/// at, so every later pad keeps its length) and `header.sketch_len`
/// zeroed, the header re-sealed.
pub fn without_sketch(image: &[u8]) -> Vec<u8> {
    let payload = sketch_payload(image);
    let frame_end = payload.end + 8;
    let mut cut = [
        &image[..payload.start],
        &image[frame_end + pad_to_8(frame_end)..],
    ]
    .concat();
    patch_header(&mut cut, "header.sketch_len", 0);
    cut
}

/// The section an earlier v3 writer stored for `index`, in the layout
/// docs/FORMAT.md keeps for readers of old files: `u64 full_words ·
/// u32[] selected · u64 slots · u64[] present · u64[] table`, the
/// presence bits and the rows by slot id.
pub fn legacy_sketch_section(index: &LibraryIndex) -> Vec<u8> {
    let sketch = index.sketch_index();
    let slots = sketch.len();
    let mut present = vec![0u64; slots.div_ceil(64)];
    for id in (0..slots as u32).filter(|&id| sketch.is_present(id)) {
        present[id as usize / 64] |= 1 << (id % 64);
    }
    let rows: Vec<u64> = (0..slots as u32)
        .flat_map(|id| sketch.signature(id).to_vec())
        .collect();
    let le = |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let selected = sketch.selected().iter().flat_map(|w| w.to_le_bytes());
    [
        le(&[sketch.full_words() as u64, sketch.selected().len() as u64]),
        selected.collect(),
        le(&[slots as u64, present.len() as u64]),
        le(&present),
        le(&[rows.len() as u64]),
        le(&rows),
    ]
    .concat()
}

/// `image` — written by this writer — with `section` spliced back in as
/// its legacy sketch section: the frame the earlier writer put between
/// the MLC and shard sections, and its length in the header.
pub fn with_sketch(image: &[u8], section: &[u8]) -> Vec<u8> {
    assert_eq!(header_u64(image, "header.sketch_len"), 0);
    let start = after_mlc(image);
    let mut frame = section.to_vec();
    frame.extend(xxh64(section, CHECKSUM_SEED).to_le_bytes());
    frame.resize(frame.len() + pad_to_8(start + frame.len()), 0);
    let mut spliced = [&image[..start], &frame[..], &image[start..]].concat();
    patch_header(&mut spliced, "header.sketch_len", section.len() as u64);
    spliced
}
