//! One canonical digest per result, whatever route computed it.
//!
//! A campaign's outcome is reduced to FNV-1a over a fixed field order
//! so two routes (sequential, sharded, resumed, through the fabric)
//! agree exactly when every result-bearing field agrees: coverage,
//! crashes, execs, corpus size, the triage report and the fuel count.

use kgpt_fuzzer::{CampaignResult, TraceStore};
use kgpt_vkernel::CrashSignature;

/// The fields of one result, in a fixed order; its digest is the
/// repository's own FNV-1a over them.
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn new() -> Digest {
        Digest(Vec::new())
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        self.0.extend_from_slice(bytes);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        kgpt_trace::fnv1a(&self.0)
    }
}

fn signature(d: &mut Digest, sig: &CrashSignature) {
    d.u64(u64::from(sig.sysno.as_index()))
        .u64(u64::from(sig.chain_depth))
        .u64(u64::from(sig.sanitizer.as_index()))
        .u64(sig.site);
}

/// Canonical digest of a campaign result.
pub fn campaign(result: &CampaignResult) -> u64 {
    let mut d = Digest::new();
    // Set blocks, not bitmap words: two maps holding the same blocks
    // may differ in trailing capacity.
    d.u64(result.coverage.len() as u64);
    for block in result.coverage.iter() {
        d.u64(block);
    }
    d.u64(result.crashes.len() as u64);
    for (title, (count, cve)) in &result.crashes {
        d.str(title).u64(*count).str(cve.as_deref().unwrap_or(""));
    }
    d.u64(result.execs)
        .u64(result.corpus_size as u64)
        .u64(result.fuel_exhausted)
        .u64(result.triage.len() as u64);
    for e in result.triage.entries() {
        signature(&mut d, &e.signature);
        d.str(&e.title)
            .str(e.cve.as_deref().unwrap_or(""))
            .u64(e.first_epoch)
            .u64(u64::from(e.first_shard))
            .u64(e.count)
            .u64(e.minimize_execs)
            .u64(u64::from(e.reproducible));
        for p in [&e.raw, &e.minimized] {
            let mut prog = Vec::new();
            p.encode_into(&mut prog);
            d.u64(prog.len() as u64).bytes(&prog);
        }
    }
    d.finish()
}

/// Canonical digest of the flight recorder's per-shard stores, in
/// shard-id order (their serialized form is already canonical).
pub fn stores(stores: &[TraceStore]) -> u64 {
    let mut d = Digest::new();
    d.u64(stores.len() as u64);
    for s in stores {
        let bytes = s.to_bytes();
        d.u64(bytes.len() as u64).bytes(&bytes);
    }
    d.finish()
}

/// Digest of anything through its `Debug` form — for report types
/// that derive `Debug` and `PartialEq` but expose no byte encoding.
pub fn debug(value: &impl std::fmt::Debug) -> u64 {
    Digest::new()
        .bytes(format!("{value:?}").as_bytes())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgpt_fuzzer::TriageReport;
    use kgpt_vkernel::CoverageMap;

    fn sample() -> CampaignResult {
        let mut coverage = CoverageMap::new();
        for b in [3, 64, 65, 900] {
            coverage.insert(b);
        }
        let mut crashes = std::collections::BTreeMap::new();
        crashes.insert("KASAN: demo".to_string(), (2, Some("CVE-0".to_string())));
        CampaignResult {
            coverage,
            crashes,
            execs: 1000,
            corpus_size: 17,
            triage: TriageReport::new(),
            fuel_exhausted: 0,
        }
    }

    #[test]
    fn equal_results_digest_equally_whatever_the_bitmap_capacity() {
        let a = sample();
        let mut b = sample();
        // Same blocks, more trailing words.
        b.coverage.insert(50_000);
        let mut c = sample();
        c.coverage = CoverageMap::with_capacity(50_000);
        for blk in a.coverage.iter() {
            c.coverage.insert(blk);
        }
        assert_eq!(campaign(&a), campaign(&c));
        assert_ne!(campaign(&a), campaign(&b));
    }

    #[test]
    fn one_flipped_coverage_bit_changes_the_digest() {
        let a = sample();
        let mut b = sample();
        b.coverage.insert(4);
        assert_ne!(campaign(&a), campaign(&b));
    }

    #[test]
    fn every_scalar_field_is_covered() {
        let base = campaign(&sample());
        let mut r = sample();
        r.execs += 1;
        assert_ne!(campaign(&r), base);
        let mut r = sample();
        r.corpus_size += 1;
        assert_ne!(campaign(&r), base);
        let mut r = sample();
        r.fuel_exhausted = 1;
        assert_ne!(campaign(&r), base);
        let mut r = sample();
        r.crashes.get_mut("KASAN: demo").unwrap().0 = 3;
        assert_ne!(campaign(&r), base);
    }
}
