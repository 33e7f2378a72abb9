//! Capability profiles emulating the LLMs of the paper's §5.2.3
//! model-choice ablation.

use serde::{Deserialize, Serialize};

/// Which model the oracle emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// GPT-4 — the paper's default.
    Gpt4,
    /// GPT-4o — comparable capability, cheaper.
    Gpt4o,
    /// GPT-3.5 — markedly weaker (85 vs 143 syscalls in the ablation).
    Gpt35,
}

impl ModelKind {
    /// API-style model id.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            ModelKind::Gpt4 => "gpt-4-0613",
            ModelKind::Gpt4o => "gpt-4o-2024-05-13",
            ModelKind::Gpt35 => "gpt-3.5-turbo",
        }
    }

    /// The capability profile for this model.
    #[must_use]
    pub fn capability(self) -> Capability {
        match self {
            ModelKind::Gpt4 => Capability {
                context_tokens: 128_000,
                follows_transforms: true,
                len_inference: true,
                nodename_aware: true,
                flags_inference: true,
                cmd_recall_bp: 10_000,
                err_ident_bp: 90, // ≈0.9% wrong identifiers (§5.1.3)
                err_type_bp: 290, // ≈2.9% wrong types (9 of 313)
                defect_bp: 4_000, // ≈40% of handlers need one repair
                cost_in_per_mtok_cents: 3_000,
                cost_out_per_mtok_cents: 6_000,
            },
            ModelKind::Gpt4o => Capability {
                context_tokens: 128_000,
                follows_transforms: true,
                len_inference: true,
                nodename_aware: true,
                flags_inference: true,
                cmd_recall_bp: 9_900,
                err_ident_bp: 110,
                err_type_bp: 320,
                defect_bp: 4_200,
                cost_in_per_mtok_cents: 250,
                cost_out_per_mtok_cents: 1_000,
            },
            ModelKind::Gpt35 => Capability {
                context_tokens: 16_000,
                follows_transforms: false,
                len_inference: false,
                nodename_aware: false,
                flags_inference: false,
                cmd_recall_bp: 6_000, // drops ~40% of commands
                err_ident_bp: 800,
                err_type_bp: 1_500,
                defect_bp: 6_000,
                cost_in_per_mtok_cents: 50,
                cost_out_per_mtok_cents: 150,
            },
        }
    }
}

/// What a model can and cannot do, plus its seeded error rates.
///
/// Rates are in basis points (1/10000) so profiles stay `Eq` and
/// deterministic hashing stays exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capability {
    /// Context window in tokens; longer prompts are truncated (the
    /// all-in-one ablation loses commands this way).
    pub context_tokens: usize,
    /// Understands command transforms (`_IOC_NR`, masks) and names the
    /// *original* macro (the paper's Figure 2 capability).
    pub follows_transforms: bool,
    /// Infers `len[...]`/`bytesize[...]` relations between fields
    /// (Figure 5).
    pub len_inference: bool,
    /// Prefers `.nodename` over `.name` when both are present.
    pub nodename_aware: bool,
    /// Recovers `flags[...]` sets from mask checks + nearby macros.
    pub flags_inference: bool,
    /// Probability (bp) that each discovered command is reported.
    pub cmd_recall_bp: u32,
    /// Probability (bp) of reporting a wrong identifier value for a
    /// transform-obscured command.
    pub err_ident_bp: u32,
    /// Probability (bp) of a wrong field type in a struct.
    pub err_type_bp: u32,
    /// Probability (bp) that a handler's first-pass spec contains one
    /// repairable defect (fixed on the repair attempt).
    pub defect_bp: u32,
    /// Input cost, cents per million tokens.
    pub cost_in_per_mtok_cents: u64,
    /// Output cost, cents per million tokens.
    pub cost_out_per_mtok_cents: u64,
}

impl Capability {
    /// Deterministic Bernoulli draw: true with probability `bp`/10000,
    /// keyed by an arbitrary string (handler id + item + purpose).
    #[must_use]
    pub fn draw(bp: u32, key: &str, seed: u64) -> bool {
        stable_hash(key, seed) % 10_000 < u64::from(bp)
    }
}

/// FNV-1a over the key mixed with the seed — stable across runs and
/// platforms (unlike `DefaultHasher`).
#[must_use]
pub fn stable_hash(key: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_ordered_by_capability() {
        let g4 = ModelKind::Gpt4.capability();
        let g35 = ModelKind::Gpt35.capability();
        assert!(g4.follows_transforms && !g35.follows_transforms);
        assert!(g4.cmd_recall_bp > g35.cmd_recall_bp);
        assert!(g4.context_tokens > g35.context_tokens);
    }

    #[test]
    fn draws_are_deterministic_and_seeded() {
        let a = Capability::draw(5_000, "dm:DM_VERSION", 1);
        let b = Capability::draw(5_000, "dm:DM_VERSION", 1);
        assert_eq!(a, b);
        // Extreme rates behave as expected.
        assert!(!Capability::draw(0, "x", 0));
        assert!(Capability::draw(10_000, "x", 0));
    }

    #[test]
    fn draw_rate_roughly_matches() {
        let hits = (0..10_000)
            .filter(|i| Capability::draw(3_000, &format!("k{i}"), 42))
            .count();
        assert!((2_400..=3_600).contains(&hits), "hits={hits}");
    }

    #[test]
    fn model_ids() {
        assert_eq!(ModelKind::Gpt4.id(), "gpt-4-0613");
        assert!(ModelKind::Gpt4o.id().contains("4o"));
    }
}
