//! What generation produces, pinned on values recorded at commit
//! `3166654` — the last one whose oracle parsed every prompt's joined
//! source text from scratch.
//!
//! A cell is `(model kind, strategy, seed)` over the 48 flagship
//! handlers: the FNV-1a of the `GenerationReport`'s `Debug` text, the
//! model's `Usage` totals, and the sum of the FNV-1a of every
//! `(prompt, response, attempt)` the model served (a sum, so the order
//! worker threads ask in does not matter). The report digest says the
//! pipeline's result is unchanged; the transcript says every rendered
//! prompt and every `ChatResponse::text` is byte-identical to what
//! that commit exchanged — with a fresh model, on two threads, and
//! from a model that has already served a pass and answers the second
//! from the parses it kept.
//!
//! The two full-corpus cells (751 handlers) run in release builds
//! only; CI's "Differential crate tests (release)" step runs them.

use kernelgpt::core::{GenerationReport, KernelGpt, Strategy};
use kernelgpt::csrc::KernelCorpus;
use kernelgpt::extractor::{find_handlers, OpHandler};
use kernelgpt::llm::{ChatRequest, ChatResponse, LanguageModel, ModelKind, OracleModel, Usage};
use kernelgpt::syzlang::codec::fnv1a;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use ModelKind::{Gpt35, Gpt4, Gpt4o};
use Strategy::{AllInOne, Iterative};

struct Cell {
    kind: ModelKind,
    strategy: Strategy,
    seed: u64,
    report: u64,
    usage: Usage,
    transcript: u64,
}

#[allow(clippy::too_many_arguments)]
const fn cell(
    kind: ModelKind,
    strategy: Strategy,
    seed: u64,
    report: u64,
    input_tokens: u64,
    output_tokens: u64,
    requests: u64,
    transcript: u64,
) -> Cell {
    Cell {
        kind,
        strategy,
        seed,
        report,
        usage: Usage {
            input_tokens,
            output_tokens,
            requests,
        },
        transcript,
    }
}

#[rustfmt::skip]
const FLAGSHIP: [Cell; 18] = [
    cell(Gpt4, Iterative, 1, 0x909120a329760f03, 262404, 31635, 339, 0xfcb6b689d91ff6e9),
    cell(Gpt4, Iterative, 7, 0xea8ce8cc59357d64, 278400, 33228, 343, 0xc3172c1dfeb0a9da),
    cell(Gpt4, Iterative, 99, 0x6f4acb271beef514, 275565, 33286, 341, 0x85602d420f7013c3),
    cell(Gpt4, AllInOne, 1, 0x3692024a906f89d9, 74606, 15076, 72, 0xd1e04aec6ab04956),
    cell(Gpt4, AllInOne, 7, 0x150432dcde5f091d, 77892, 15723, 73, 0xc13df6b1464f0641),
    cell(Gpt4, AllInOne, 99, 0xa94af77e14a5bc56, 78010, 15562, 73, 0xc2917443546f313f),
    cell(Gpt4o, Iterative, 1, 0xed33fd3049d743f8, 262219, 31585, 339, 0x36b3b440d063fae1),
    cell(Gpt4o, Iterative, 7, 0x3658ac332acc4167, 281894, 33692, 348, 0xe524f99107042268),
    cell(Gpt4o, Iterative, 99, 0xb500c4c64d0b3dc4, 273909, 33031, 341, 0x7e5a9a19812772f1),
    cell(Gpt4o, AllInOne, 1, 0x620b23e96419d1ae, 74606, 15051, 72, 0x3bea50f0a3f1bcc3),
    cell(Gpt4o, AllInOne, 7, 0xc3913a41d15828a7, 78848, 15918, 74, 0x455825b367552c96),
    cell(Gpt4o, AllInOne, 99, 0x23fe66916ed07b7c, 78010, 15507, 73, 0x9a88a53ce0389a31),
    cell(Gpt35, Iterative, 1, 0x836d0b528c1f5adc, 225364, 22625, 346, 0xee9b80b82a0b0bd2),
    cell(Gpt35, Iterative, 7, 0x06a687289a18694f, 256144, 25154, 371, 0xa8fc555e4e890e31),
    cell(Gpt35, Iterative, 99, 0x7b4db7d30cc7f337, 243438, 23838, 363, 0xd6a30b3c7e6abd54),
    cell(Gpt35, AllInOne, 1, 0x56a6b8dc9bb8aa64, 79169, 11573, 77, 0xeb31c09e510c6c11),
    cell(Gpt35, AllInOne, 7, 0xdd189ffcf7158a5d, 84910, 12299, 81, 0xd095a22e79e74507),
    cell(Gpt35, AllInOne, 99, 0x9d8f68f5ef3645e2, 83261, 11777, 79, 0xb5c11d187db3d217),
];

/// `KernelCorpus::full(1)`: 666 drivers + 85 sockets.
#[rustfmt::skip]
const FULL: [Cell; 2] = [
    cell(Gpt4, Iterative, 1, 0x04e602aa78338803, 3666404, 359987, 5772, 0),
    cell(Gpt4, AllInOne, 1, 0x358d7e781840d912, 1047329, 191266, 1161, 0),
];

/// Passes every request through and sums what it sees.
struct Recording<'a> {
    inner: &'a OracleModel,
    transcript: AtomicU64,
}

impl LanguageModel for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let response = self.inner.chat(request);
        let mut exchange = Vec::with_capacity(request.prompt.len() + response.text.len() + 6);
        exchange.extend_from_slice(request.prompt.as_bytes());
        exchange.push(0);
        exchange.extend_from_slice(response.text.as_bytes());
        exchange.push(0);
        exchange.extend_from_slice(&request.attempt.to_le_bytes());
        self.transcript.fetch_add(fnv1a(&exchange), Relaxed);
        response
    }

    fn total_usage(&self) -> Usage {
        self.inner.total_usage()
    }
}

fn digest(report: &GenerationReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// One pass of `cell`'s strategy through `model`; the report's digest
/// and the transcript sum of the pass.
fn pass(
    kc: &KernelCorpus,
    handlers: &[OpHandler],
    cell: &Cell,
    model: &OracleModel,
    threads: usize,
) -> (u64, u64) {
    let recording = Recording {
        inner: model,
        transcript: AtomicU64::new(0),
    };
    let report = KernelGpt::new(&recording, kc.corpus())
        .with_strategy(cell.strategy)
        .with_threads(threads)
        .generate_all(handlers, kc.consts());
    (digest(&report), recording.transcript.load(Relaxed))
}

fn times(usage: Usage, n: u64) -> Usage {
    Usage {
        input_tokens: usage.input_tokens * n,
        output_tokens: usage.output_tokens * n,
        requests: usage.requests * n,
    }
}

#[test]
fn flagship_generation_is_what_the_joined_parse_oracle_produced() {
    let kc = KernelCorpus::flagship_only();
    let handlers = find_handlers(kc.corpus());
    assert_eq!(handlers.len(), 48);
    for cell in &FLAGSHIP {
        let name = format!("{:?} {:?} seed {}", cell.kind, cell.strategy, cell.seed);
        // A fresh model on one thread, then the same model again: the
        // second pass is answered from the parses the first one left.
        let model = OracleModel::new(cell.kind, cell.seed);
        let expected = (cell.report, cell.transcript);
        assert_eq!(
            pass(&kc, &handlers, cell, &model, 1),
            expected,
            "{name}, cold"
        );
        assert_eq!(model.total_usage(), cell.usage, "{name}, cold");
        let cold = model.reading();
        assert_eq!(
            pass(&kc, &handlers, cell, &model, 1),
            expected,
            "{name}, warm"
        );
        assert_eq!(model.total_usage(), times(cell.usage, 2), "{name}, warm");
        // The second pass was shown as much again and parsed only what
        // no parse is kept of: sections that go down the joined path.
        let warm = model.reading();
        assert_eq!(warm.shown_bytes, 2 * cold.shown_bytes, "{name}");
        assert!(
            warm.parsed_bytes - cold.parsed_bytes <= cold.parsed_bytes / 2,
            "{name}: {cold:?} then {warm:?}"
        );
        // A fresh model asked by two threads at once.
        let model = OracleModel::new(cell.kind, cell.seed);
        assert_eq!(
            pass(&kc, &handlers, cell, &model, 2),
            expected,
            "{name}, 2 threads"
        );
        assert_eq!(model.total_usage(), cell.usage, "{name}, 2 threads");
        assert_eq!(
            model.reading(),
            cold,
            "{name}: reading depends on the thread count"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "751 handlers: release builds only")]
fn full_corpus_generation_is_what_the_joined_parse_oracle_produced() {
    let kc = KernelCorpus::full(1);
    let handlers = find_handlers(kc.corpus());
    assert_eq!(handlers.len(), 751);
    for cell in &FULL {
        let name = format!("{:?} seed {}", cell.strategy, cell.seed);
        let model = OracleModel::new(cell.kind, cell.seed);
        assert_eq!(
            pass(&kc, &handlers, cell, &model, 1).0,
            cell.report,
            "{name}, cold"
        );
        assert_eq!(model.total_usage(), cell.usage, "{name}, cold");
        assert_eq!(
            pass(&kc, &handlers, cell, &model, 2).0,
            cell.report,
            "{name}, warm, 2 threads"
        );
        assert_eq!(model.total_usage(), times(cell.usage, 2), "{name}, warm");
    }
}
