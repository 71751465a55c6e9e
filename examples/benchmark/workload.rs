//! The four fixed workloads, the model and server they run on, and the
//! inputs `--seed` generates for them.

use crate::stats::SloLimits;
use llmib_engine::{EngineConfig, PrefixConfig};
use llmib_models::ModelId;
use llmib_serve::ServeConfig;
use llmib_types::{Request, Seconds};
use llmib_workloads::{PromptLenDist, SharedPrefix, TrafficProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Longest context the benchmark model accepts (prompt + output).
pub const MAX_SEQ: usize = 2048;
/// Sequences the server and the engine replay run at once.
pub const MAX_CONCURRENCY: usize = 8;
/// Requests one server may see before `deterministic_prompt_for` repeats
/// a prompt: ids that differ by the vocabulary size (513) alias.
pub const DISTINCT_IDS: usize = 513;
/// Fewest replicas (live) or rounds (offline) a run measures, however
/// short `--seconds` is. The run reports the best one, so a run needs a
/// few to have a chance that one ran while the host was undisturbed.
pub const MIN_REPLICAS: usize = 3;
/// Untimed warm-up on a throwaway server before the first replica.
pub const WARMUP_S: f64 = 1.0;
/// Sequences per offline round.
pub const OFFLINE_BATCH: usize = 16;
/// Prompt and output length of each offline sequence.
pub const OFFLINE_LEN: u32 = 128;
/// Length of one offline round, set-up timing included, as sized on a
/// 2-vCPU host (see [`Workload::repetitions`]).
const OFFLINE_ROUND_S: f64 = 0.65;
/// SLO limits of `chat`, which the offline rounds are held to as well.
pub const CHAT_LIMITS: SloLimits = SloLimits {
    ttft_s: 1.0,
    itl_s: 0.010,
};

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Decode-dominated chat; bypasses prefix reuse and chunking.
    Chat,
    /// RAG-style shared document; exercises the prefix cache.
    SharedPrefix,
    /// Heavy-tailed prompts under chunked prefill.
    LongPrompt,
    /// Fixed batch through the engine alone; bypasses serving.
    OfflineBatch,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Chat,
        Workload::SharedPrefix,
        Workload::LongPrompt,
        Workload::OfflineBatch,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::SharedPrefix => "shared_prefix",
            Workload::LongPrompt => "long_prompt",
            Workload::OfflineBatch => "offline_batch",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Replicas (live) or rounds (offline) a run of `seconds` measures:
    /// as many as fit when each takes its sized length, and at least
    /// [`MIN_REPLICAS`]. The count follows
    /// from `seconds` and the workload alone, never from how fast a build
    /// runs, so two builds are compared over the same number of bursts
    /// or rounds and a faster one gets no extra draws at its best.
    pub fn repetitions(self, seconds: u64) -> usize {
        let each = self.live().map_or(OFFLINE_ROUND_S, |l| l.replica_s);
        ((seconds as f64 / each) as usize).max(MIN_REPLICAS)
    }

    /// The serving mix of a live workload; `None` for `offline_batch`.
    pub fn live(self) -> Option<Live> {
        match self {
            // Prompts 64-1024, outputs 64-768 (~340 on average): batched
            // decode and the scheduler loop do most of the work, the
            // prefix trie inserts and evicts but never hits.
            Workload::Chat => Some(Live {
                traffic: TrafficProfile::Chat,
                prefix: SharedPrefix::NONE,
                rate: 3.0,
                open: 6,
                burst: 8,
                replica_s: 3.2,
                chunk_budget: None,
                limits: CHAT_LIMITS,
            }),
            // A 1024-token document on 90% of prompts, a 64-token
            // question and answer: hits skip ~94% of prefill.
            Workload::SharedPrefix => Some(Live {
                traffic: TrafficProfile::Square { len: 64 },
                prefix: SharedPrefix {
                    tokens: 1024,
                    share: 0.9,
                },
                rate: 10.0,
                open: 25,
                burst: 16,
                replica_s: 2.4,
                chunk_budget: None,
                limits: SloLimits {
                    ttft_s: 0.5,
                    itl_s: 0.020,
                },
            }),
            // Median prompt ~245 tokens with a tail to 1984 and ~37
            // output tokens: prefill and the chunk scheduler dominate.
            Workload::LongPrompt => Some(Live {
                traffic: TrafficProfile::HeavyTail {
                    prompt: PromptLenDist::LogNormal {
                        mu: 5.5,
                        sigma: 1.0,
                        max: 1984,
                    },
                    output_peak: 32,
                },
                prefix: SharedPrefix::NONE,
                rate: 6.0,
                open: 12,
                burst: 16,
                replica_s: 2.4,
                chunk_budget: Some(64),
                limits: SloLimits {
                    ttft_s: 2.0,
                    itl_s: 0.040,
                },
            }),
            Workload::OfflineBatch => None,
        }
    }
}

/// A live workload. Each replica of it serves a burst of `burst`
/// requests; some first serve an open segment of `open` requests on a
/// Poisson schedule at `rate`. Each phase runs on a fresh server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Live {
    /// Prompt and output length distribution.
    pub traffic: TrafficProfile,
    /// Shared document carried by a share of the prompts.
    pub prefix: SharedPrefix,
    /// Poisson arrival rate of the open segment, requests per second:
    /// well below the mix's capacity on a 2-core host, so that a slow
    /// moment on the host does not snowball into a backlog.
    pub rate: f64,
    /// Requests in one open segment: 2-2.5 s of arrivals. The arrivals,
    /// not the work, set an open segment's length, so a longer one would
    /// leave fewer bursts in a run.
    pub open: usize,
    /// Requests sent at once in one replica's burst: two batches' worth
    /// at most, so that a burst is short next to the seconds for which
    /// the host stays fast or slow, and enough token gaps for an ITL p90
    /// with ten samples beyond it.
    pub burst: usize,
    /// Length of one replica, set-up timing included and its open
    /// segment spread over the replicas that have none, as sized on a
    /// 2-vCPU host (see [`Workload::repetitions`]). A run's wall time
    /// there, warm-up and checks included, stayed within 31 s for
    /// `--seconds 26`.
    pub replica_s: f64,
    /// Chunked-prefill token budget, if chunking is on.
    pub chunk_budget: Option<usize>,
    /// SLO limits for `slo_attainment`. The ITL limits of
    /// `shared_prefix` and `long_prompt` were doubled from 10 and 20 ms
    /// after the host's slow state alone pushed up to 17% of their
    /// requests past them.
    pub limits: SloLimits,
}

impl Live {
    /// The server every phase of this workload runs: the default
    /// configuration, with only the chunk budget changed.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            prefill_token_budget: self.chunk_budget,
            ..ServeConfig::default()
        }
    }

    /// The prefix cache the server builds (paged KV enables it at the
    /// block size), for sessions that must behave like the server.
    pub fn prefix_config(&self) -> PrefixConfig {
        let block = self
            .serve_config()
            .kv_block_tokens
            .expect("the default server pages its KV cache");
        PrefixConfig {
            block_tokens: block as usize,
            ..PrefixConfig::default()
        }
    }

    /// An open segment: Poisson arrivals at `rate`.
    pub fn open_trace(&self, seed: u64) -> Vec<Request> {
        for_seed(self.master(self.open, OPEN_MASTER), seed, Order::Shuffled)
    }

    /// One replica's burst: `burst` requests all due at once, queued in
    /// the master's order for every seed. In a burst the queue order
    /// decides every request's wait (one early giant prompt delays all
    /// the rest), so only the prompt contents follow the seed.
    pub fn burst_trace(&self, seed: u64) -> Vec<Request> {
        let master = self.master(self.burst, BURST_MASTER);
        let mut trace = for_seed(master, seed ^ BURST_SEED, Order::Master);
        for r in &mut trace {
            r.arrival = Seconds(0.0);
        }
        trace
    }

    /// An untimed request carrying the shared document, served before a
    /// phase so that the phase starts with the document resident, as a
    /// RAG server's would be. Without it a burst's first eight requests,
    /// admitted together on a cold server, would each prefill the whole
    /// document. Its id is the one before the trace's first, which no
    /// request of the trace uses. `None` without a shared document.
    pub fn primer(&self, trace: &[Request]) -> Option<Request> {
        let doc = self.prefix.tokens;
        (doc > 0).then(|| {
            let id = (trace[0].id + DISTINCT_IDS as u64 - 1) % DISTINCT_IDS as u64;
            Request::new(id, Seconds(0.0), doc + 1, 1).with_shared_prefix(doc)
        })
    }

    /// The untimed warm-up: the same mix at the same rate.
    pub fn warmup_trace(&self, seed: u64) -> Vec<Request> {
        let n = (self.rate * WARMUP_S).ceil() as usize;
        for_seed(
            self.master(n, WARMUP_MASTER),
            seed ^ WARMUP_SEED,
            Order::Shuffled,
        )
    }

    fn master(&self, n: usize, master_seed: u64) -> Vec<Request> {
        self.traffic
            .trace_with_prefix(n, self.rate, master_seed, self.prefix)
    }
}

// Masters are drawn once per phase; run seeds only reorder and reword
// them.
const OPEN_MASTER: u64 = 0x0BE7_0001;
const BURST_MASTER: u64 = 0x0BE7_0002;
const WARMUP_MASTER: u64 = 0x0BE7_0003;
const BURST_SEED: u64 = 0xB0B5_7000_0000;
const WARMUP_SEED: u64 = 0xAA44_0000_0000;

/// Whether a seed reorders a phase's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Shapes shuffled over the master's arrival times.
    Shuffled,
    /// The master's order.
    Master,
}

/// `master` as run `seed` sends it: prompt contents shift with the seed,
/// and with [`Order::Shuffled`] the request shapes are shuffled over the
/// master's arrival times. Every seed therefore offers the same requests
/// on the same arrival schedule. Run-to-run spread then measures the
/// system rather than how much work one draw happened to contain.
pub fn for_seed(master: Vec<Request>, seed: u64, order: Order) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shapes: Vec<(u32, u32, u32)> = master
        .iter()
        .map(|r| (r.prompt_tokens, r.output_tokens, r.shared_prefix_tokens))
        .collect();
    if order == Order::Shuffled {
        shuffle(&mut shapes, &mut rng);
    }
    let base = rng.gen_range(0..DISTINCT_IDS as u64);
    master
        .iter()
        .zip(shapes)
        .zip(0u64..)
        .map(|((m, (prompt, output, shared)), i)| {
            let id = (base + i) % DISTINCT_IDS as u64;
            let r = Request::new(id, m.arrival, prompt, output);
            if shared > 0 {
                r.with_shared_prefix(shared)
            } else {
                r
            }
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The benchmark model: a GQA Llama-3-8B analogue at hidden 64
/// (vocabulary 513), with a context wide enough for every workload.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        max_seq: MAX_SEQ,
        ..EngineConfig::scaled_from(ModelId::Llama3_8b, 64, 7)
    }
}

/// The 16 offline sequences. The seed picks which 16 prompts.
pub fn offline_requests(seed: u64) -> Vec<Request> {
    let base = (seed % (DISTINCT_IDS / OFFLINE_BATCH) as u64) * OFFLINE_BATCH as u64;
    (0..OFFLINE_BATCH as u64)
        .map(|i| Request::new(base + i, Seconds(0.0), OFFLINE_LEN, OFFLINE_LEN))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::supports;
    use llmib_serve::deterministic_prompt_for;
    use std::collections::HashSet;

    const SEEDS: [u64; 3] = [1, 2, 3];

    fn phases(live: &Live, seed: u64) -> [Vec<Request>; 3] {
        [
            live.warmup_trace(seed),
            live.open_trace(seed),
            live.burst_trace(seed),
        ]
    }

    #[test]
    fn every_request_fits_the_model_and_the_kv_pool() {
        let vocab = engine_config().vocab;
        assert_eq!(vocab, DISTINCT_IDS);
        for w in Workload::ALL {
            let cfg = w.live().map(|l| l.serve_config()).unwrap_or_default();
            for seed in SEEDS {
                let requests: Vec<Request> = match w.live() {
                    Some(live) => phases(&live, seed).concat(),
                    None => offline_requests(seed),
                };
                for r in requests {
                    let context = (r.prompt_tokens + r.output_tokens) as usize;
                    assert!(
                        context <= MAX_SEQ,
                        "{} seed {seed}: request {} needs {context} > {MAX_SEQ}",
                        w.name(),
                        r.id
                    );
                    assert!(context as u64 <= cfg.kv_capacity_tokens);
                }
            }
        }
    }

    #[test]
    fn live_servers_are_valid_and_hold_a_whole_burst() {
        for w in Workload::ALL {
            let Some(live) = w.live() else { continue };
            let cfg = live.serve_config();
            cfg.validate().expect("valid server configuration");
            assert_eq!(cfg.max_concurrency, MAX_CONCURRENCY);
            // Every request of a full batch fits the KV pool at once.
            assert!(MAX_CONCURRENCY as u64 * MAX_SEQ as u64 <= cfg.kv_capacity_tokens);
            assert!(
                live.burst <= cfg.queue_capacity,
                "{}: a {}-request burst overflows the {}-slot queue",
                w.name(),
                live.burst,
                cfg.queue_capacity
            );
            for seed in SEEDS {
                let burst = live.burst_trace(seed);
                assert_eq!(burst.len(), live.burst);
                assert!(burst.iter().all(|r| r.arrival.value() == 0.0));
            }
        }
    }

    #[test]
    fn no_two_prompts_in_a_phase_share_an_unshared_block() {
        let vocab = engine_config().vocab;
        let block = ServeConfig::default().kv_block_tokens.unwrap() as usize;
        for w in Workload::ALL {
            for seed in SEEDS {
                let phases: Vec<Vec<Request>> = match w.live() {
                    Some(live) => phases(&live, seed).into(),
                    None => vec![offline_requests(seed)],
                };
                for trace in phases {
                    assert!(trace.len() < DISTINCT_IDS, "{}: ids alias", w.name());
                    // The first block past the shared document is where
                    // prompts must diverge; equal blocks there would be
                    // prefix hits the workload does not intend.
                    let mut seen = HashSet::new();
                    for r in &trace {
                        let prompt = deterministic_prompt_for(r, vocab);
                        let shared = r.shared_prefix_tokens as usize;
                        let end = (shared + block).min(prompt.len());
                        assert!(
                            seen.insert(prompt[..end].to_vec()),
                            "{} seed {seed}: request {} repeats a prompt",
                            w.name(),
                            r.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repetitions_follow_the_run_length_alone() {
        let at = |seconds| Workload::ALL.map(|w| w.repetitions(seconds));
        assert_eq!(at(26), [8, 10, 10, 40]);
        assert_eq!(at(1), [MIN_REPLICAS; 4], "a short run still measures a few");
        for (short, long) in at(26).into_iter().zip(at(52)) {
            assert!(long >= 2 * short, "{short} then {long}");
        }
    }

    #[test]
    fn a_burst_supports_an_itl_p90() {
        for w in Workload::ALL {
            let Some(live) = w.live() else { continue };
            let gaps: u32 = live
                .burst_trace(1)
                .iter()
                .map(|r| r.output_tokens - 1)
                .sum();
            assert!(supports(gaps as usize, 90.0), "{}: {gaps} gaps", w.name());
            assert!(live.burst <= 2 * MAX_CONCURRENCY, "{}", w.name());
        }
    }

    #[test]
    fn the_primer_carries_the_document_under_an_unused_id() {
        let vocab = engine_config().vocab;
        let live = Workload::SharedPrefix.live().unwrap();
        for seed in SEEDS {
            for trace in [live.open_trace(seed), live.burst_trace(seed)] {
                let primer = live.primer(&trace).expect("shared_prefix is primed");
                assert!(trace.iter().all(|r| r.id != primer.id));
                let doc = live.prefix.tokens as usize;
                let p = deterministic_prompt_for(&primer, vocab);
                let shared = trace.iter().find(|r| r.shared_prefix_tokens > 0).unwrap();
                assert_eq!(p[..doc], deterministic_prompt_for(shared, vocab)[..doc]);
            }
        }
        assert!(Workload::Chat.live().unwrap().primer(&[]).is_none());
    }

    fn shapes(t: &[Request]) -> Vec<(u32, u32, u32)> {
        t.iter()
            .map(|r| (r.prompt_tokens, r.output_tokens, r.shared_prefix_tokens))
            .collect()
    }

    #[test]
    fn seeds_reorder_the_same_requests_on_the_same_schedule() {
        for w in Workload::ALL {
            let Some(live) = w.live() else { continue };
            let (a, b) = (live.open_trace(5), live.open_trace(6));
            assert_ne!(shapes(&a), shapes(&b), "{}: seeds must differ", w.name());
            let sorted = |t: &[Request]| {
                let mut s = shapes(t);
                s.sort_unstable();
                s
            };
            assert_eq!(sorted(&a), sorted(&b), "{}: same requests", w.name());
            let arrivals =
                |t: &[Request]| -> Vec<f64> { t.iter().map(|r| r.arrival.value()).collect() };
            assert_eq!(arrivals(&a), arrivals(&b), "{}: same schedule", w.name());
            assert_ne!(a[0].id, b[0].id, "{}: prompt contents shift", w.name());
        }
    }

    #[test]
    fn traces_depend_only_on_the_seed() {
        let live = Workload::Chat.live().unwrap();
        let (a, b) = (live.open_trace(5), live.open_trace(5));
        assert_eq!(shapes(&a), shapes(&b));
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id));
        // Bursts keep the master's order; only their contents move.
        let (x, y) = (live.burst_trace(5), live.burst_trace(6));
        assert_eq!(shapes(&x), shapes(&y));
        assert_ne!(x[0].id, y[0].id);
        assert_ne!(offline_requests(1)[0].id, offline_requests(2)[0].id);
    }
}
