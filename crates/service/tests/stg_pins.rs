//! Golden hashes of everything the `PetriNet` storage layout could
//! leak into: the wire encoding of a request, the memo-cache key
//! (`Stg::content_hash`) and the structural conflict groups (whose
//! per-place order breaks CSC candidate ties). The constants were taken
//! from the per-row `Vec` layout; any storage change must reproduce
//! them bit for bit.

use rt_service::proto::encode_request;
use rt_service::Request;
use rt_stg::stg::Stg;
use rt_stg::{corpus, models};

/// Every model the pins cover: the `.g` corpus, the wide nets, the full
/// model sweep, and generated rings, adders and fabrics at a few sizes.
fn pinned_models() -> Vec<(String, Stg)> {
    let mut out: Vec<(String, Stg)> = corpus::all()
        .into_iter()
        .map(|(name, text)| {
            let stg = corpus::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (format!("corpus:{name}"), stg)
        })
        .collect();
    out.extend(corpus::wide());
    out.extend(corpus::sweep());
    for (n, k) in [(4, 1), (12, 3), (52, 51)] {
        out.push((format!("ring{n}_{k}"), models::ring_stg(n, k)));
    }
    for (stages, depth) in [(2, 1), (5, 3), (9, 0)] {
        out.push((
            format!("adder{stages}_links{depth}"),
            corpus::adder_rt_with_links(stages, depth),
        ));
    }
    for (rows, cols, depth) in [(2, 2, 1), (2, 3, 0), (3, 3, 2)] {
        out.push((
            format!("fabric{rows}x{cols}_links{depth}"),
            corpus::fabric_stg(rows, cols, depth),
        ));
    }
    out
}

/// 64-bit FNV-1a: tiny, platform-independent and stable by definition.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

#[test]
fn request_encodings_are_pinned() {
    let mut hash = Fnv::new();
    for (_, stg) in pinned_models() {
        let bytes = encode_request(&Request::csc_check(stg));
        hash.u64(bytes.len() as u64);
        hash.bytes(&bytes);
    }
    assert_eq!(
        hash.0, 0x3673344112f0f5fa,
        "wire encoding of the pinned models changed"
    );
}

#[test]
fn content_hashes_are_pinned() {
    let mut hash = Fnv::new();
    for (_, stg) in pinned_models() {
        hash.u64(stg.content_hash());
    }
    assert_eq!(
        hash.0, 0x94d8b093d90b2d41,
        "content hash of the pinned models changed"
    );
}

#[test]
fn conflict_groups_are_pinned() {
    let mut hash = Fnv::new();
    let mut with_choice = 0;
    for (_, stg) in pinned_models() {
        let groups = stg.net().conflict_groups();
        with_choice += usize::from(!groups.is_empty());
        hash.u64(groups.len() as u64);
        for group in groups {
            hash.u64(group.len() as u64);
            for transition in group {
                hash.u64(u64::from(transition.0));
            }
        }
    }
    assert!(with_choice >= 2, "the pins need nets with choice places");
    assert_eq!(
        hash.0, 0x20b5df44d3676f25,
        "conflict groups of the pinned models changed"
    );
}
