//! Assembly of the full synthetic kernel: blueprints → emitted C files
//! → parsed/indexed corpus + constant table + spec suites + census.

use crate::blueprint::{Blueprint, ExistingSpec};
use crate::emit::emit_blueprint;
use crate::flagship;
use crate::index::Corpus;
use crate::parser::cparse;
use crate::synth::{self, SynthPlan};
use kgpt_syzlang::{ConstDb, SpecFile};

/// Census rows backing Table 1 and Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    /// Total driver operation handlers scanned (`allyesconfig`).
    pub drivers_total: usize,
    /// Driver handlers loaded under the syzbot configuration.
    pub drivers_loaded: usize,
    /// Loaded driver handlers missing ≥1 syscall description.
    pub drivers_incomplete: usize,
    /// Loaded driver handlers with no descriptions at all.
    pub drivers_none: usize,
    /// Same fields for sockets.
    pub sockets_total: usize,
    /// Loaded socket handlers.
    pub sockets_loaded: usize,
    /// Loaded socket handlers missing ≥1 syscall description.
    pub sockets_incomplete: usize,
    /// Loaded socket handlers missing >80% of their syscalls.
    pub sockets_mostly_missing: usize,
}

/// The complete synthetic kernel: blueprints, parsed source corpus,
/// constant table.
#[derive(Debug, Clone)]
pub struct KernelCorpus {
    blueprints: Vec<Blueprint>,
    corpus: Corpus,
    consts: ConstDb,
}

/// Baseline constants every suite needs (open flags, dirfd sentinels).
#[must_use]
pub fn base_consts() -> ConstDb {
    let mut db = ConstDb::new();
    db.define("AT_FDCWD", 0xffff_ff9c);
    db.define("O_RDONLY", 0);
    db.define("O_WRONLY", 1);
    db.define("O_RDWR", 2);
    db.define("O_NONBLOCK", 0x800);
    db
}

impl KernelCorpus {
    /// Build from an explicit blueprint set.
    ///
    /// # Panics
    ///
    /// If a file [`emit_blueprint`] wrote does not parse. Emitter and
    /// parser are two halves of this crate: that is a bug in one of
    /// them, not a condition a caller can meet or handle (the parser
    /// itself is total: hostile text gets an `Err`).
    #[must_use]
    pub fn from_blueprints(blueprints: Vec<Blueprint>) -> KernelCorpus {
        let mut files = Vec::with_capacity(blueprints.len());
        for bp in &blueprints {
            let src = emit_blueprint(bp);
            let file = cparse(&bp.source_file, &src)
                .unwrap_or_else(|e| panic!("emitted source for {} fails to parse: {e}", bp.id));
            files.push(file);
        }
        let corpus = Corpus::build(files);
        let mut consts = base_consts();
        for bp in &blueprints {
            for (k, v) in bp.const_entries() {
                consts.define(k, v);
            }
        }
        KernelCorpus {
            blueprints,
            corpus,
            consts,
        }
    }

    /// Flagship targets only — fast; used by tests, examples and the
    /// per-driver experiments (Tables 4–6).
    #[must_use]
    pub fn flagship_only() -> KernelCorpus {
        KernelCorpus::from_blueprints(flagship::all_flagships())
    }

    /// Flagships plus the full procedurally-generated population — the
    /// Table 1 / Figure 7 / Table 2 census corpus.
    #[must_use]
    pub fn full(seed: u64) -> KernelCorpus {
        let mut bps = flagship::all_flagships();
        bps.extend(synth::generate(&SynthPlan::paper_defaults(), seed));
        KernelCorpus::from_blueprints(bps)
    }

    /// All blueprints.
    #[must_use]
    pub fn blueprints(&self) -> &[Blueprint] {
        &self.blueprints
    }

    /// Look up a blueprint by id.
    #[must_use]
    pub fn blueprint(&self, id: &str) -> Option<&Blueprint> {
        self.blueprints.iter().find(|b| b.id == id)
    }

    /// The parsed, indexed C corpus (what the analyzers query).
    #[must_use]
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The symbolic constant table (syz-extract analogue).
    #[must_use]
    pub fn consts(&self) -> &ConstDb {
        &self.consts
    }

    /// Blueprints loaded under the syzbot configuration.
    pub fn loaded(&self) -> impl Iterator<Item = &Blueprint> {
        self.blueprints.iter().filter(|b| b.loaded)
    }

    /// The pre-existing "Syzkaller" spec suite (partial by design).
    #[must_use]
    pub fn existing_suite(&self) -> Vec<SpecFile> {
        self.blueprints
            .iter()
            .filter(|b| b.loaded)
            .filter_map(Blueprint::existing_spec_file)
            .collect()
    }

    /// The full ground-truth suite for loaded handlers.
    #[must_use]
    pub fn ground_truth_suite(&self) -> Vec<SpecFile> {
        self.blueprints
            .iter()
            .filter(|b| b.loaded)
            .map(Blueprint::ground_truth_spec)
            .collect()
    }

    /// Fraction of a handler's ground-truth syscalls that the existing
    /// specs do **not** describe (0.0 = fully described, 1.0 = nothing).
    #[must_use]
    pub fn missing_fraction(&self, bp: &Blueprint) -> f64 {
        let total = bp.ground_truth_spec().syscalls().count();
        if total == 0 {
            return 0.0;
        }
        let described = bp.existing_spec_file().map_or(0, |f| f.syscalls().count());
        1.0 - (described.min(total) as f64 / total as f64)
    }

    /// Compute the Table 1 / Figure 7 census.
    #[must_use]
    pub fn census(&self) -> Census {
        let mut c = Census {
            drivers_total: 0,
            drivers_loaded: 0,
            drivers_incomplete: 0,
            drivers_none: 0,
            sockets_total: 0,
            sockets_loaded: 0,
            sockets_incomplete: 0,
            sockets_mostly_missing: 0,
        };
        for bp in &self.blueprints {
            let is_driver = bp.driver().is_some();
            if is_driver {
                c.drivers_total += 1;
            } else {
                c.sockets_total += 1;
            }
            if !bp.loaded {
                continue;
            }
            if is_driver {
                c.drivers_loaded += 1;
            } else {
                c.sockets_loaded += 1;
            }
            let missing = self.missing_fraction(bp);
            let incomplete = missing > 0.0;
            if is_driver {
                if incomplete {
                    c.drivers_incomplete += 1;
                }
                if matches!(bp.existing, ExistingSpec::None) {
                    c.drivers_none += 1;
                }
            } else {
                if incomplete {
                    c.sockets_incomplete += 1;
                }
                if missing > 0.8 {
                    c.sockets_mostly_missing += 1;
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flagship_corpus_builds_and_indexes() {
        let kc = KernelCorpus::flagship_only();
        assert!(kc.blueprint("dm").is_some());
        // The dm dispatcher function is findable by name.
        assert!(kc.corpus().function("dm_ctl_ioctl").is_some());
        // And its macro table resolves.
        assert!(kc.consts().contains("DM_DEV_CREATE"));
        assert!(kc.consts().contains("AT_FDCWD"));
    }

    #[test]
    fn missing_fraction_bounds() {
        let kc = KernelCorpus::flagship_only();
        for bp in kc.blueprints() {
            let f = kc.missing_fraction(bp);
            assert!((0.0..=1.0).contains(&f), "{}: {f}", bp.id);
        }
        // dm has no existing spec → fully missing.
        let dm = kc.blueprint("dm").unwrap();
        assert!((kc.missing_fraction(dm) - 1.0).abs() < 1e-9);
        // i2c is fully described → nothing missing.
        let i2c = kc.blueprint("i2c").unwrap();
        assert!(kc.missing_fraction(i2c).abs() < 1e-9);
    }

    #[test]
    fn full_census_matches_paper_table1() {
        let kc = KernelCorpus::full(0);
        let c = kc.census();
        assert_eq!(c.drivers_total, 666, "paper: 666 driver handlers");
        assert_eq!(c.sockets_total, 85, "paper: 85 socket handlers");
        assert_eq!(c.drivers_loaded, 278, "paper: 278 loaded drivers");
        assert_eq!(c.sockets_loaded, 81, "paper: 81 loaded sockets");
        assert_eq!(c.drivers_incomplete, 75, "paper: 75 incomplete drivers");
        assert_eq!(c.sockets_incomplete, 66, "paper: 66 incomplete sockets");
        assert_eq!(c.drivers_none, 45, "paper: 45 drivers without specs");
        assert!(
            c.sockets_mostly_missing >= 15,
            "paper: 22 sockets >80% missing; got {}",
            c.sockets_mostly_missing
        );
    }

    #[test]
    fn existing_suite_validates() {
        let kc = KernelCorpus::flagship_only();
        let db = kgpt_syzlang::SpecDb::from_files(kc.existing_suite());
        let errors = kgpt_syzlang::validate::validate(&db, kc.consts());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn ground_truth_suite_validates() {
        let kc = KernelCorpus::flagship_only();
        let db = kgpt_syzlang::SpecDb::from_files(kc.ground_truth_suite());
        let errors = kgpt_syzlang::validate::validate(&db, kc.consts());
        assert!(errors.is_empty(), "{errors:?}");
    }
}
