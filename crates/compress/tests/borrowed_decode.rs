//! Pins the borrowed block decode (`decompress_into`) byte-identical to
//! the owned path (`decompress`) for **every** codec, across random
//! blocks and the codecs' own verbatim fallbacks — and the encode side's
//! mirror image: `compress_into` appending onto a non-empty buffer emits
//! exactly the owned `compress` stream and leaves the prefix alone, even
//! when a codec overshoots the raw size mid-encode and falls back to
//! storing the block verbatim.
//!
//! The output buffer is pre-filled with a dirty pattern on purpose:
//! `decompress_into` writes into caller-owned storage, so any arm that
//! relies on a zeroed canvas without establishing one (the historic
//! hazard is BDI's zero-run and masked-delta encodings) shows up as a
//! mismatch here, not as silent corruption in an arena reuser.

use proptest::prelude::*;
use slc_compress::bdi::Bdi;
use slc_compress::bpc::Bpc;
use slc_compress::cpack::Cpack;
use slc_compress::e2mc::{E2mc, E2mcConfig};
use slc_compress::fpc::Fpc;
use slc_compress::hycomp::{FpH, HyComp};
use slc_compress::rans::Rans;
use slc_compress::sc2::Sc2;
use slc_compress::{BlockCodec, BLOCK_BYTES};
use std::sync::{Arc, OnceLock};

fn codecs() -> &'static [Arc<dyn BlockCodec>] {
    static CODECS: OnceLock<Vec<Arc<dyn BlockCodec>>> = OnceLock::new();
    CODECS.get_or_init(|| {
        let bytes: Vec<u8> =
            (0..1u32 << 14).flat_map(|i| ((i % 257) as f32).to_le_bytes()).collect();
        vec![
            Arc::new(Bdi::new()),
            Arc::new(Fpc::new()),
            Arc::new(Cpack::new()),
            Arc::new(Bpc::new()),
            Arc::new(E2mc::train_on_bytes(&bytes, &E2mcConfig::default())),
            Arc::new(Sc2::train_on_bytes(&bytes, slc_compress::sc2::DEFAULT_TOP_K)),
            Arc::new(FpH::train_on_bytes(&bytes)),
            Arc::new(HyComp::train_on_bytes(&bytes)),
            Arc::new(Rans::new()),
        ]
    })
}

fn check_block(block: &[u8; BLOCK_BYTES]) {
    const PREFIX: [u8; 3] = [0x5a; 3];
    for codec in codecs() {
        let c = codec.compress(block);
        let size_bytes = c.size_bytes() as usize;
        assert_eq!(c.payload().len(), size_bytes, "{}: owned payload is exact", codec.name());
        let mut out = PREFIX.to_vec();
        let got = codec.compress_into(block, &mut out);
        assert_eq!(got, (c.size_bits(), c.is_compressed()), "{}: encode verdict", codec.name());
        assert_eq!(out[..3], PREFIX, "{}: prefix must stay untouched", codec.name());
        assert_eq!(out[3..], c.payload()[..size_bytes], "{}: appended stream", codec.name());
        assert_eq!(out.len(), 3 + size_bytes, "{}: no flush slack survives", codec.name());
        let owned = codec.decompress(&c);
        assert_eq!(&owned, block, "{}: owned roundtrip", codec.name());
        let mut borrowed = [0xa5u8; BLOCK_BYTES];
        codec.decompress_into(c.size_bits(), c.is_compressed(), c.payload(), &mut borrowed);
        assert_eq!(borrowed, owned, "{}: borrowed decode must equal owned", codec.name());
    }
}

#[test]
fn canonical_shapes_decode_identically() {
    // Zeros (BDI zero-run), a constant (repeated-value arms), a narrow
    // ramp (delta arms), and f32 ramps (FPC/E2MC material).
    check_block(&[0u8; BLOCK_BYTES]);
    check_block(&[0x42u8; BLOCK_BYTES]);
    let mut ramp = [0u8; BLOCK_BYTES];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = (i / 8) as u8;
    }
    check_block(&ramp);
    let mut floats = [0u8; BLOCK_BYTES];
    for i in 0..BLOCK_BYTES / 4 {
        floats[i * 4..i * 4 + 4].copy_from_slice(&(i as f32 * 0.25).to_le_bytes());
    }
    check_block(&floats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_borrowed_equals_owned(data in proptest::collection::vec(any::<u8>(), BLOCK_BYTES)) {
        check_block(&data.try_into().expect("exactly one block"));
    }

    #[test]
    fn prop_compressible_blocks_too(base in any::<u32>(), step in 0u32..16) {
        // Random noise mostly hits the verbatim fallback; also exercise
        // blocks every codec genuinely codes.
        let mut block = [0u8; BLOCK_BYTES];
        for i in 0..BLOCK_BYTES / 4 {
            let w = base.wrapping_add(i as u32 * step);
            block[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        check_block(&block);
    }
}
