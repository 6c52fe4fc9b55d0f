//! Container hardening: a seeded corruption barrage against the framed
//! container format. Whatever the corruption — truncation at any byte
//! boundary, bit flips anywhere, directory entries lying about offsets,
//! sizes or modes — [`Engine::decompress`] must return an error or
//! decode to *some* full-size buffer. It must never panic unguarded,
//! read out of bounds, or allocate from a lying length field.

use slc::slc_compress::bdi::Bdi;
use slc::slc_compress::e2mc::{E2mc, E2mcConfig};
use slc::slc_compress::rans::Rans;
use slc::slc_engine::{
    frame_info, ContainerError, Engine, StorageMode, DIR_ENTRY_BYTES, HEADER_BYTES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Deterministic corruption source (xorshift64*), so a failing flip is
/// reproducible from the test output alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Mixed stream: compressible f32 ramp with a noise stripe, so the
/// container carries both coded and raw chunks.
fn sample_stream() -> Vec<u8> {
    let mut out: Vec<u8> =
        (0..512u32).flat_map(|i| (((i * 3) % 257) as f32).to_le_bytes()).collect();
    let mut state = 0x0dd_ba11u64;
    for b in out[768..1536].iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
    out
}

fn bdi_engine() -> Engine {
    Engine::new(Arc::new(Bdi::new())).with_chunk_bytes(256)
}

/// One corrupted decode attempt: Ok must mean a full-size buffer, Err is
/// fine, an unguarded panic fails the test with the corruption context.
fn assert_contained(engine: &Engine, container: &[u8], expect_len: usize, what: &str) {
    for workers in [1, 3] {
        let engine = engine.clone().with_workers(workers);
        let result = catch_unwind(AssertUnwindSafe(|| engine.decompress(container)));
        match result {
            Err(_) => panic!("{what}: unguarded panic escaped the decode path"),
            Ok(Err(_)) => {}
            Ok(Ok(out)) => assert_eq!(
                out.len(),
                expect_len,
                "{what}: a successful decode must be a full-size buffer"
            ),
        }
    }
}

#[test]
fn truncation_at_every_header_and_directory_boundary() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress(&data);
    let info = frame_info(&container).unwrap();
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;
    // Every byte boundary of the header + directory: all structurally
    // fatal, so the parse must error (no partial metadata is usable).
    for cut in 0..dir_end {
        assert!(
            engine.decompress(&container[..cut]).is_err(),
            "cut at metadata byte {cut} must be an error"
        );
    }
    // Payload truncation, every boundary: the directory now points past
    // the end, which parse rejects up front.
    for cut in dir_end..container.len() {
        assert_contained(&engine, &container[..cut], data.len(), &format!("payload cut {cut}"));
        assert!(
            engine.decompress(&container[..cut]).is_err(),
            "payload cut {cut} leaves a dangling directory span"
        );
    }
    assert_eq!(engine.decompress(&container).unwrap(), data, "uncut container still decodes");
}

#[test]
fn seeded_bit_flip_barrage_is_contained() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress(&data);
    let mut rng = Rng(0xc0de_f11b_5eed);
    let mut errors = 0u32;
    const FLIPS: usize = 512;
    for i in 0..FLIPS {
        let mut corrupt = container.clone();
        let bit = (rng.next() as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_contained(&engine, &corrupt, data.len(), &format!("flip {i} (bit {bit})"));
        if engine.decompress(&corrupt).is_err() {
            errors += 1;
        }
    }
    // Sanity: some flips must trip validation (header/directory bits are
    // ~7% of this container). Most flips land in payload bytes, where a
    // changed-but-full-size decode is the correct contained outcome —
    // flipping a verbatim byte simply decodes to different data.
    assert!(errors > 0, "no flip was ever detected ({FLIPS} tried)");
    assert_eq!(engine.decompress(&container).unwrap(), data, "pristine container unaffected");
}

#[test]
fn double_flips_across_trained_codec_payloads_are_contained() {
    // E2MC's decode path (Huffman tables + escapes) sees the barrage
    // too: flips in coded payloads must surface as ChunkCorrupt, not as
    // an unwind out of a worker thread.
    let training: Vec<u8> =
        (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
    let engine = Engine::new(Arc::new(E2mc::train_on_bytes(&training, &E2mcConfig::default())))
        .with_chunk_bytes(256);
    let data = sample_stream();
    let container = engine.compress(&data);
    let info = frame_info(&container).unwrap();
    assert!(info.coded_chunks > 0, "need coded chunks to corrupt");
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;
    let mut rng = Rng(0x5eed_cafe);
    for i in 0..128 {
        let mut corrupt = container.clone();
        let payload_bits = (corrupt.len() - dir_end) * 8;
        for _ in 0..2 {
            let bit = dir_end * 8 + (rng.next() as usize) % payload_bits;
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
        assert_contained(&engine, &corrupt, data.len(), &format!("payload flip pair {i}"));
    }
}

#[test]
fn rans_chunk_streams_survive_the_barrage() {
    // The whole-chunk rANS path decodes through the chunk-coder dispatch
    // (table parse + interleaved stream walk), not the per-block tag
    // walk: flips and truncations in its payload must surface as
    // ChunkCorrupt or decode to a full-size buffer — never as an unwind
    // out of a worker or an out-of-bounds read.
    let engine = Engine::new(Arc::new(Rans::new())).with_chunk_bytes(256);
    let data = sample_stream();
    let container = engine.compress(&data);
    let info = frame_info(&container).unwrap();
    assert!(info.coded_chunks > 0, "need rANS-coded chunks to corrupt");
    let dir_end = HEADER_BYTES + info.chunk_count as usize * DIR_ENTRY_BYTES;

    // Payload truncation at every byte boundary.
    for cut in dir_end..container.len() {
        assert_contained(&engine, &container[..cut], data.len(), &format!("rans cut {cut}"));
    }

    // Seeded single flips across the whole container, plus double flips
    // confined to the payload (past the metadata validation).
    let mut rng = Rng(0xa125_0b5e_55ed);
    for i in 0..256 {
        let mut corrupt = container.clone();
        let bit = (rng.next() as usize) % (corrupt.len() * 8);
        corrupt[bit / 8] ^= 1 << (bit % 8);
        assert_contained(&engine, &corrupt, data.len(), &format!("rans flip {i} (bit {bit})"));
    }
    for i in 0..128 {
        let mut corrupt = container.clone();
        let payload_bits = (corrupt.len() - dir_end) * 8;
        for _ in 0..2 {
            let bit = dir_end * 8 + (rng.next() as usize) % payload_bits;
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
        assert_contained(&engine, &corrupt, data.len(), &format!("rans payload pair {i}"));
    }
    assert_eq!(engine.decompress(&container).unwrap(), data, "pristine rANS container decodes");
}

#[test]
fn lying_directory_entries_are_rejected_or_contained() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress(&data);
    let info = frame_info(&container).unwrap();
    assert!(info.chunk_count >= 2);
    let entry_at = |chunk: usize| HEADER_BYTES + chunk * DIR_ENTRY_BYTES;

    // Offset pointing far past the payload.
    let mut lying = container.clone();
    lying[entry_at(0)..entry_at(0) + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        engine.decompress(&lying),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // encoded_bits puffed up beyond the payload section.
    let mut lying = container.clone();
    lying[entry_at(0) + 8..entry_at(0) + 12].copy_from_slice(&(!7u32).to_le_bytes());
    assert!(matches!(
        engine.decompress(&lying),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // encoded_bits not byte-aligned.
    let mut lying = container.clone();
    lying[entry_at(0) + 8..entry_at(0) + 12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        engine.decompress(&lying),
        Err(ContainerError::InvalidEntry { chunk: 0, .. })
    ));

    // Unknown storage mode byte.
    let mut lying = container.clone();
    lying[entry_at(1) + 12] = 0x7e;
    assert!(matches!(
        engine.decompress(&lying),
        Err(ContainerError::InvalidEntry { chunk: 1, .. })
    ));

    // A coded entry relabelled Raw with the wrong length for its chunk.
    let coded_chunk = (0..info.chunk_count as usize)
        .find(|&c| {
            let mode = container[entry_at(c) + 12];
            mode == StorageMode::Coded.as_u8()
        })
        .expect("a coded chunk exists");
    let mut lying = container.clone();
    lying[entry_at(coded_chunk) + 12] = StorageMode::Raw.as_u8();
    assert_contained(&engine, &lying, data.len(), "coded chunk relabelled raw");

    // Lying chunk_count (header) — inconsistent with total_len.
    let mut lying = container.clone();
    lying[12..16].copy_from_slice(&(info.chunk_count + 1).to_le_bytes());
    assert!(matches!(engine.decompress(&lying), Err(ContainerError::BadChunkCount { .. })));

    // Two entries aliasing the same span: structurally valid (both in
    // bounds) — must decode to a full-size buffer or error, never OOB.
    let mut aliased = container.clone();
    let (a, b) = (entry_at(0), entry_at(1));
    let first: Vec<u8> = aliased[a..a + DIR_ENTRY_BYTES].to_vec();
    aliased[b..b + DIR_ENTRY_BYTES].copy_from_slice(&first);
    assert_contained(&engine, &aliased, data.len(), "aliased directory entries");
}

#[test]
fn header_field_tampering_is_rejected() {
    let engine = bdi_engine();
    let data = sample_stream();
    let container = engine.compress(&data);

    let mut bad = container.clone();
    bad[0..4].copy_from_slice(b"SLX1");
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::BadMagic(_))));

    let mut bad = container.clone();
    bad[4] = 99;
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::BadVersion(_))));

    let mut bad = container.clone();
    bad[6] = 200;
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::UnknownCodec(200))));

    let mut bad = container.clone();
    bad[7] = 1;
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::BadFlags(1))));

    // Wrong-but-known codec byte: the engine must refuse to decode a
    // container labelled for a different codec.
    let mut bad = container.clone();
    bad[6] = slc::slc_compress::CodecId::Fpc.as_u8();
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::CodecMismatch { .. })));

    // total_len tampering desynchronises the chunk-count invariant.
    let mut bad = container.clone();
    bad[16..24].copy_from_slice(&(data.len() as u64 * 1000).to_le_bytes());
    assert!(matches!(engine.decompress(&bad), Err(ContainerError::BadChunkCount { .. })));
}
