//! Where a handler's time goes in the paper's own pipeline, on the
//! benchmark's `specgen_flagship` workload (48 flagship handlers,
//! GPT-4 oracle, iterative strategy, one thread).
//!
//! Algorithm 1 re-sends everything gathered so far at every stage, so
//! the model is shown each snippet four to five times. The example
//! records one pass's requests and then times, request by request:
//!
//! * **slice** — `Sections::parse`, cutting the request text into its
//!   sections;
//! * **joined parse** — what every request cost before the model kept
//!   its parses: both code sections joined, lexed, parsed and indexed
//!   from scratch;
//! * **chat, first sighting / warm** — `OracleModel::chat` on a fresh
//!   model (a chunk is parsed where it is first seen) and again on the
//!   same model (everything is looked up);
//!
//! then the pipeline's own share of a pass (`generate_all` less the
//! time inside `chat`) and the part of it that is merged validation
//! (the suite looked up in the spec cache, validated and its errors
//! routed to their handlers — twice a pass, before and after the
//! repair round), the front-end's speed on the flagship source,
//! how much code a pass shows against how much it parses, and a pass
//! from a fresh model next to the benchmark's round of four.
//!
//! ```text
//! cargo run --release --example specgen_stages
//! ```
//!
//! A record for EXPERIMENTS.md § "Where a handler's 0.8 ms goes" and
//! § "Where a handler's time outside the model goes", never a gate:
//! the referee is `benchmark/`'s `specgen_flagship`.

use kernelgpt::core::KernelGpt;
use kernelgpt::csrc::emit::emit_blueprint;
use kernelgpt::csrc::parser::cparse;
use kernelgpt::csrc::token::clex;
use kernelgpt::csrc::{flagship, Corpus, KernelCorpus};
use kernelgpt::extractor::find_handlers;
use kernelgpt::llm::protocol::Sections;
use kernelgpt::llm::{ChatRequest, ChatResponse, LanguageModel, ModelKind, OracleModel, Usage};
use kernelgpt::syzlang::validate::validate;
use kernelgpt::syzlang::SpecCache;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SEED: u64 = 1;
/// Repetitions of every timed loop; the fastest is reported.
const REPS: usize = 7;

/// Keeps every request and the time spent answering it.
struct Recording<'a> {
    inner: &'a OracleModel,
    log: Mutex<(Vec<ChatRequest>, Duration)>,
}

impl LanguageModel for Recording<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&self, request: &ChatRequest) -> ChatResponse {
        let t = Instant::now();
        let response = self.inner.chat(request);
        let mut log = self.log.lock().expect("no chat panicked");
        log.0.push(request.clone());
        // The copy is the recorder's, not the pipeline's.
        log.1 += t.elapsed();
        response
    }

    fn total_usage(&self) -> Usage {
        self.inner.total_usage()
    }
}

/// The fastest of `REPS` runs of `f`.
fn fastest(mut f: impl FnMut()) -> Duration {
    let runs = (0..REPS).map(|_| {
        let t = Instant::now();
        f();
        t.elapsed()
    });
    runs.min().unwrap_or_default()
}

fn per(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n as f64
}

/// A code section parsed the way it was before chunks were kept.
fn joined_parse<'a>(chunks: impl Iterator<Item = &'a str>) -> Corpus {
    let joined = chunks.collect::<Vec<_>>().join("\n\n");
    Corpus::build(cparse("prompt.c", &joined).into_iter().collect())
}

fn main() {
    let kc = KernelCorpus::flagship_only();
    let handlers = find_handlers(kc.corpus());
    let n = handlers.len();
    let pass = |model: &dyn LanguageModel| {
        KernelGpt::new(model, kc.corpus())
            .with_threads(1)
            .generate_all(&handlers, kc.consts())
    };

    // One recorded pass: the requests, and the pipeline's own share.
    // A pass before it leaves the merged suite compiled in the spec
    // cache, as every pass of a benchmark round but the first finds it.
    black_box(pass(&OracleModel::new(ModelKind::Gpt4, SEED)));
    let (requests, pipeline_self, reading, report) = {
        let model = OracleModel::new(ModelKind::Gpt4, SEED);
        let recording = Recording {
            inner: &model,
            log: Mutex::new((Vec::new(), Duration::ZERO)),
        };
        let t = Instant::now();
        let report = black_box(pass(&recording));
        let whole = t.elapsed();
        let (requests, in_chat) = recording.log.into_inner().expect("no chat panicked");
        (
            requests,
            whole.saturating_sub(in_chat),
            model.reading(),
            report,
        )
    };
    let r = requests.len();
    let prompt_bytes: usize = requests.iter().map(|q| q.prompt.len()).sum();
    println!(
        "specgen_flagship, seed {SEED}: {n} handlers, {r} requests, {prompt_bytes} prompt bytes"
    );
    println!(
        "code shown {} B, parsed {} B: every snippet is shown {:.2} times",
        reading.shown_bytes,
        reading.parsed_bytes,
        reading.shown_bytes as f64 / reading.parsed_bytes as f64
    );

    let slice = fastest(|| {
        for q in &requests {
            black_box(Sections::parse(&q.prompt));
        }
    });
    let joined = fastest(|| {
        for q in &requests {
            let sections = Sections::parse(&q.prompt);
            black_box(joined_parse(sections.source()));
            black_box(joined_parse(sections.usage()));
        }
    });
    let mut first = Duration::MAX;
    let mut warm = Duration::MAX;
    for _ in 0..REPS {
        let model = OracleModel::new(ModelKind::Gpt4, SEED);
        for slot in [&mut first, &mut warm] {
            let t = Instant::now();
            for q in &requests {
                black_box(model.chat(q));
            }
            *slot = t.elapsed().min(*slot);
        }
    }
    // What `generate_all` does around its two merged validations, on
    // the pass's suite: look it up where the specs lie, validate it,
    // hand each handler the errors in its own items.
    let merged = fastest(|| {
        for _ in 0..2 {
            let specs = report.outcomes.iter().filter_map(|o| o.spec.as_ref());
            let db = SpecCache::global().get_or_build(specs);
            let errors = validate(&db, kc.consts());
            for spec in report.outcomes.iter().filter_map(|o| o.spec.as_ref()) {
                black_box(errors.iter().filter(|e| spec.defines(&e.item)).count());
            }
        }
    });
    println!("\nstage                      µs/request   µs/handler");
    for (stage, total) in [
        ("slice the prompt", slice),
        ("joined parse (slice incl.)", joined),
        ("chat, first sighting", first),
        ("chat, warm", warm),
        ("pipeline outside chat", pipeline_self),
        ("  of which merged valid.", merged),
    ] {
        println!(
            "{stage:<26} {:>10.1} {:>12.1}",
            per(total, r),
            per(total, n)
        );
    }

    // The C front-end on the flagship source.
    let files: Vec<(String, String)> = flagship::all_flagships()
        .iter()
        .map(|bp| (bp.source_file.clone(), emit_blueprint(bp)))
        .collect();
    let bytes: usize = files.iter().map(|f| f.1.len()).sum();
    let tokens: usize = files
        .iter()
        .map(|f| clex(&f.1).map_or(0, |t| t.len()))
        .sum();
    let lex = fastest(|| {
        for (_, src) in &files {
            black_box(clex(src).map_or(0, |t| t.len()));
        }
    });
    let parse = fastest(|| {
        for (name, src) in &files {
            black_box(cparse(name, src).map_or(0, |f| f.items.len()));
        }
    });
    let build = fastest(|| {
        black_box(KernelCorpus::flagship_only());
    });
    let ns = |d: Duration, per: usize| d.as_secs_f64() * 1e9 / per as f64;
    println!("\nfront-end over {bytes} B, {tokens} tokens of flagship source:");
    println!(
        "clex    {:>6.1} ns/byte {:>7.1} ns/token",
        ns(lex, bytes),
        ns(lex, tokens)
    );
    println!(
        "cparse  {:>6.1} ns/byte {:>7.1} ns/token",
        ns(parse, bytes),
        ns(parse, tokens)
    );
    println!(
        "KernelCorpus::flagship_only {:.2} ms",
        build.as_secs_f64() * 1e3
    );

    // A pass from a fresh model, and the benchmark's round: four
    // passes on one model.
    let single = fastest(|| {
        black_box(pass(&OracleModel::new(ModelKind::Gpt4, SEED)));
    });
    let round = fastest(|| {
        let model = OracleModel::new(ModelKind::Gpt4, SEED);
        for _ in 0..4 {
            black_box(pass(&model));
        }
    });
    let rate = |d: Duration, passes: usize| (n * passes) as f64 / d.as_secs_f64();
    println!(
        "\none fresh-model pass   {:>7.2} ms  {:>7.0} handlers/s",
        single.as_secs_f64() * 1e3,
        rate(single, 1)
    );
    println!(
        "round of four passes   {:>7.2} ms  {:>7.0} handlers/s",
        round.as_secs_f64() * 1e3,
        rate(round, 4)
    );
}
