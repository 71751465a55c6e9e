//! Batched decoding: many sequences stepped together, with mid-stream
//! admission — the engine-level realization of continuous batching
//! (§IV-A1). Each sequence owns its KV cache; a decode step stacks every
//! live sequence's activation into one matrix and runs a single batched
//! forward pass, so each weight matrix streams from memory once per step
//! instead of once per sequence (the paper's Fig. 1b batch-throughput
//! mechanism for the memory-bound decode phase).

use crate::attention::KvCache;
use crate::blockpool::{BlockPool, PrefixCache, PrefixConfig, PrefixStats};
use crate::model::TransformerModel;
use crate::sampler::Sampler;
use llmib_types::{usable_prefix_blocks, Error, Result};
use std::collections::HashSet;
use std::sync::Arc;

/// One live sequence in a batch session.
#[derive(Debug)]
struct SeqState {
    id: u64,
    tokens: Vec<usize>,
    remaining: usize,
    cache: KvCache,
    sampler: Sampler,
    logits: Vec<f32>,
}

/// A chunk-admitted sequence whose prompt is still being prefilled.
///
/// It owns its KV cache from the moment of admission (cached prefix
/// blocks already adopted), but joins the decode batch only once every
/// prompt token has passed through [`BatchSession::prefill_chunk`].
#[derive(Debug)]
struct PendingSeq {
    id: u64,
    prompt: Vec<usize>,
    /// Prompt tokens already in the cache: adopted prefix + prefilled
    /// chunks. Prefill resumes here.
    done: usize,
    cached: usize,
    max_new_tokens: usize,
    cache: KvCache,
    sampler: Sampler,
}

/// What one [`BatchSession::prefill_chunk`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkOutcome {
    /// Sequence the chunk belonged to.
    pub seq: u64,
    /// Prompt tokens prefilled by this chunk.
    pub tokens: usize,
    /// Whether this was the sequence's final chunk — it is now live in
    /// the decode batch.
    pub prefill_complete: bool,
}

/// What [`BatchSession::admit`] did for a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmitOutcome {
    /// Prompt tokens whose prefill was skipped because their KV blocks
    /// were already resident in the session's prefix cache (always a
    /// multiple of the block size, and always leaves at least one
    /// prompt token to prefill so the request's first logits exist).
    pub cached_prefix_tokens: usize,
}

/// Prefix-reuse machinery of a session: the trie of resident prefix
/// blocks, the pool that owns block storage, and the running counters.
#[derive(Debug)]
struct PrefixState {
    pool: Arc<BlockPool>,
    trie: PrefixCache,
    stats: PrefixStats,
}

/// An emitted token event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// Sequence id.
    pub seq: u64,
    /// The generated token.
    pub token: usize,
    /// Whether the sequence finished with this token.
    pub finished: bool,
}

/// A continuous-batching session over one model: sequences join at any
/// step boundary and leave when their budget is exhausted.
#[derive(Debug)]
pub struct BatchSession<'m> {
    model: &'m TransformerModel,
    seqs: Vec<SeqState>,
    pending: Vec<PendingSeq>,
    prefix: Option<PrefixState>,
}

impl<'m> BatchSession<'m> {
    /// Empty session over `model`, with prefix caching disabled (every
    /// admission prefills cold).
    pub fn new(model: &'m TransformerModel) -> Self {
        Self {
            model,
            seqs: Vec::new(),
            pending: Vec::new(),
            prefix: None,
        }
    }

    /// Empty session with shared-prefix caching: every admission first
    /// walks the prefix trie, adopts the cached blocks of its longest
    /// resident prompt prefix, and prefills only the cold suffix; after
    /// prefill the prompt's full blocks are registered for later
    /// admissions to reuse. All block storage routes through one
    /// [`BlockPool`].
    pub fn with_prefix_cache(model: &'m TransformerModel, cfg: PrefixConfig) -> Self {
        Self {
            model,
            seqs: Vec::new(),
            pending: Vec::new(),
            prefix: Some(PrefixState {
                pool: Arc::new(model.new_block_pool(cfg.block_tokens)),
                trie: PrefixCache::new(cfg.block_tokens, cfg.max_cached_blocks),
                stats: PrefixStats::default(),
            }),
        }
    }

    /// Prefix-cache counters, when prefix caching is enabled.
    pub fn prefix_stats(&self) -> Option<PrefixStats> {
        self.prefix.as_ref().map(|p| PrefixStats {
            resident_blocks: p.trie.resident_blocks(),
            ..p.stats
        })
    }

    /// Live sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the session has no live sequences.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Total KV bytes held across live sequences. Blocks shared between
    /// sequences (or with the prefix trie) are counted once — N
    /// sequences over one resident prefix pay for its blocks once, not
    /// N times.
    pub fn kv_bytes(&self) -> usize {
        let mut seen = HashSet::new();
        let mut positions: usize = self
            .seqs
            .iter()
            .map(|s| s.cache.unique_live_positions(&mut seen))
            .sum();
        positions += self
            .pending
            .iter()
            .map(|p| p.cache.unique_live_positions(&mut seen))
            .sum::<usize>();
        2 * positions * self.model.config().kv_dim() * 4
    }

    /// Ids of the live sequences, in admission order.
    pub fn live_ids(&self) -> Vec<u64> {
        self.seqs.iter().map(|s| s.id).collect()
    }

    /// Evict a live or pending sequence mid-flight, dropping its KV
    /// cache and remaining budget. Returns `false` if `id` is neither
    /// live nor pending prefill. Because every sequence's forward pass
    /// is independent of batch composition, eviction never changes the
    /// tokens any surviving sequence goes on to produce.
    pub fn evict(&mut self, id: u64) -> bool {
        let before = self.seqs.len() + self.pending.len();
        self.seqs.retain(|s| s.id != id);
        self.pending.retain(|p| p.id != id);
        self.seqs.len() + self.pending.len() < before
    }

    /// Admit a sequence: runs its prefill immediately (in-flight batching
    /// admits "even if the requests arrive at different times"). With a
    /// prefix cache, cached prefix blocks are adopted instead of
    /// recomputed and only the cold suffix is prefilled; because a
    /// resident block holds exactly the floats a cold prefill would
    /// recompute, the resulting logits and every subsequent decode
    /// token are bitwise identical to a fully cold admission.
    pub fn admit(
        &mut self,
        id: u64,
        prompt: &[usize],
        max_new_tokens: usize,
        sampler: Sampler,
    ) -> Result<AdmitOutcome> {
        let (mut cache, cached) = self.begin_admit(id, prompt, max_new_tokens)?;
        let logits = self.model.prefill(&prompt[cached..], &mut cache);
        self.register_prefilled(prompt, &cache, cached);
        self.seqs.push(SeqState {
            id,
            tokens: prompt.to_vec(),
            remaining: max_new_tokens,
            cache,
            sampler,
            logits,
        });
        Ok(AdmitOutcome {
            cached_prefix_tokens: cached,
        })
    }

    /// Admit a sequence *without* running its prefill: the request is
    /// validated, its cached prefix blocks are adopted, and it parks on
    /// the pending-prefill queue. Cold prompt tokens are then pushed
    /// through the model one [`prefill_chunk`](Self::prefill_chunk) at a
    /// time, interleaved with decode steps, and the sequence joins the
    /// decode batch after its final chunk. Because `prefill` over a
    /// token slice is bitwise equal to token-at-a-time forward passes,
    /// chunked prefill produces logits — and therefore every generated
    /// token — bitwise identical to a monolithic
    /// [`admit`](Self::admit).
    pub fn admit_chunked(
        &mut self,
        id: u64,
        prompt: &[usize],
        max_new_tokens: usize,
        sampler: Sampler,
    ) -> Result<AdmitOutcome> {
        let (cache, cached) = self.begin_admit(id, prompt, max_new_tokens)?;
        self.pending.push(PendingSeq {
            id,
            prompt: prompt.to_vec(),
            done: cached,
            cached,
            max_new_tokens,
            cache,
            sampler,
        });
        Ok(AdmitOutcome {
            cached_prefix_tokens: cached,
        })
    }

    /// Prefill up to `budget` cold prompt tokens of the oldest pending
    /// sequence (FIFO: head-of-line prefill finishes before the next
    /// prompt starts, so chunk counts are exactly
    /// `ceil(cold_tokens / budget)` per request). Returns `None` when no
    /// prefill is pending. On the final chunk the sequence's prompt
    /// blocks are registered with the prefix cache and it joins the
    /// decode batch, exactly as a monolithic admission would have.
    pub fn prefill_chunk(&mut self, budget: usize) -> Option<ChunkOutcome> {
        assert!(budget > 0, "prefill_token_budget must be positive");
        let head = self.pending.first_mut()?;
        let take = (head.prompt.len() - head.done).min(budget);
        let logits = self
            .model
            .prefill(&head.prompt[head.done..head.done + take], &mut head.cache);
        head.done += take;
        let seq = head.id;
        let prefill_complete = head.done == head.prompt.len();
        if prefill_complete {
            let p = self.pending.remove(0);
            self.register_prefilled(&p.prompt, &p.cache, p.cached);
            self.seqs.push(SeqState {
                id: p.id,
                tokens: p.prompt,
                remaining: p.max_new_tokens,
                cache: p.cache,
                sampler: p.sampler,
                logits,
            });
        }
        Some(ChunkOutcome {
            seq,
            tokens: take,
            prefill_complete,
        })
    }

    /// Sequences admitted chunked whose prefill has not yet completed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cold prompt tokens still queued for chunked prefill — the
    /// prefill backlog a router observes as pressure.
    pub fn pending_prefill_tokens(&self) -> usize {
        self.pending.iter().map(|p| p.prompt.len() - p.done).sum()
    }

    /// Shared admission front half: validation plus prefix-block
    /// adoption. Returns the sequence's cache (prefix already adopted)
    /// and how many prompt tokens that adoption covered.
    fn begin_admit(
        &mut self,
        id: u64,
        prompt: &[usize],
        max_new_tokens: usize,
    ) -> Result<(KvCache, usize)> {
        if prompt.is_empty() {
            return Err(Error::InvalidConfig("empty prompt".into()));
        }
        if self.seqs.iter().any(|s| s.id == id) || self.pending.iter().any(|p| p.id == id) {
            return Err(Error::InvalidConfig(format!("sequence {id} already live")));
        }
        if prompt.len() + max_new_tokens > self.model.config().max_seq {
            return Err(Error::InvalidConfig(format!(
                "sequence {id}: prompt {} + budget {max_new_tokens} exceeds max_seq {}",
                prompt.len(),
                self.model.config().max_seq
            )));
        }
        Ok(match &mut self.prefix {
            Some(prefix) => {
                let mut cache = KvCache::in_pool(prefix.pool.clone(), self.model.config().max_seq);
                let hit = prefix.trie.lookup(prompt);
                // A fully cached prompt drops its last block back to
                // the cold path.
                let bt = prefix.pool.block_tokens();
                let usable = usable_prefix_blocks(hit.len(), prompt.len(), bt);
                cache.adopt_prefix(&hit[..usable]);
                (cache, usable * bt)
            }
            None => (self.model.new_cache(), 0),
        })
    }

    /// Shared admission back half, run once the whole prompt is in the
    /// cache: register the prompt's full blocks with the prefix trie and
    /// bump the reuse counters.
    fn register_prefilled(&mut self, prompt: &[usize], cache: &KvCache, cached: usize) {
        if let Some(prefix) = &mut self.prefix {
            let bt = prefix.pool.block_tokens();
            let full_blocks = prompt.len() / bt;
            for evicted in prefix.trie.insert(prompt, &cache.blocks()[..full_blocks]) {
                prefix.stats.evicted_blocks += 1;
                prefix.pool.release(evicted);
            }
            prefix.stats.admissions += 1;
            prefix.stats.hits += u64::from(cached > 0);
            prefix.stats.saved_prefill_tokens += cached as u64;
        }
    }

    /// Run one decode step for every live sequence, returning the
    /// emitted tokens. All continuing sequences advance through a single
    /// batched forward pass (one weight stream per step); finished
    /// sequences are retired. Per-sequence results are bitwise identical
    /// to stepping each sequence alone.
    pub fn step(&mut self) -> Vec<TokenEvent> {
        // Sample every sequence's next token (samplers are stateful, so
        // this stays serial and in admission order).
        let events: Vec<TokenEvent> = self
            .seqs
            .iter_mut()
            .map(|s| {
                let token = s.sampler.sample(&s.logits);
                s.tokens.push(token);
                s.remaining -= 1;
                TokenEvent {
                    seq: s.id,
                    token,
                    finished: s.remaining == 0,
                }
            })
            .collect();
        // One batched forward for every sequence that continues.
        let mut cont: Vec<&mut SeqState> =
            self.seqs.iter_mut().filter(|s| s.remaining > 0).collect();
        if !cont.is_empty() {
            let tokens: Vec<usize> = cont.iter().map(|s| *s.tokens.last().unwrap()).collect();
            let positions: Vec<usize> = cont.iter().map(|s| s.tokens.len() - 1).collect();
            let mut caches: Vec<&mut KvCache> = cont.iter_mut().map(|s| &mut s.cache).collect();
            let logits = self.model.forward_batch(&tokens, &positions, &mut caches);
            drop(caches);
            for (b, s) in cont.iter_mut().enumerate() {
                s.logits.clear();
                s.logits.extend_from_slice(logits.row(b));
            }
        }
        self.seqs.retain(|s| s.remaining > 0);
        events
    }

    /// Drive all live sequences to completion, returning per-sequence
    /// generated tokens in admission order.
    pub fn run_to_completion(&mut self) -> Vec<(u64, Vec<usize>)> {
        let mut out: Vec<(u64, Vec<usize>)> =
            self.seqs.iter().map(|s| (s.id, Vec::new())).collect();
        while !self.is_empty() {
            for ev in self.step() {
                if let Some((_, toks)) = out.iter_mut().find(|(id, _)| *id == ev.seq) {
                    toks.push(ev.token);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::generate::{generate, GenerateOptions};

    fn model() -> TransformerModel {
        TransformerModel::new(EngineConfig::tiny(), false).unwrap()
    }

    #[test]
    fn batched_greedy_matches_independent_generation() {
        let m = model();
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[9, 8], &[5, 5, 5, 5]];
        let mut session = BatchSession::new(&m);
        for (i, p) in prompts.iter().enumerate() {
            session.admit(i as u64, p, 12, Sampler::Greedy).unwrap();
        }
        let batched = session.run_to_completion();
        for (i, p) in prompts.iter().enumerate() {
            let solo = generate(
                &m,
                p,
                GenerateOptions {
                    max_new_tokens: 12,
                    use_kv_cache: true,
                    sampler: Sampler::Greedy,
                },
            );
            assert_eq!(batched[i].1, solo.tokens, "sequence {i}");
        }
    }

    #[test]
    fn mid_stream_admission_is_isolated() {
        let m = model();
        let mut session = BatchSession::new(&m);
        session.admit(0, &[1, 2, 3], 10, Sampler::Greedy).unwrap();
        // Let sequence 0 run half its budget...
        let mut seq0 = Vec::new();
        for _ in 0..5 {
            for ev in session.step() {
                seq0.push(ev.token);
            }
        }
        // ...then admit sequence 1 (continuous batching) and finish both.
        session.admit(1, &[7, 7], 4, Sampler::Greedy).unwrap();
        assert_eq!(session.len(), 2);
        let mut seq1 = Vec::new();
        while !session.is_empty() {
            for ev in session.step() {
                match ev.seq {
                    0 => seq0.push(ev.token),
                    1 => seq1.push(ev.token),
                    _ => unreachable!(),
                }
            }
        }
        // Both sequences must match their solo runs exactly — joining a
        // batch must not change anyone's output.
        let solo0 = generate(
            &m,
            &[1, 2, 3],
            GenerateOptions {
                max_new_tokens: 10,
                use_kv_cache: true,
                sampler: Sampler::Greedy,
            },
        );
        let solo1 = generate(
            &m,
            &[7, 7],
            GenerateOptions {
                max_new_tokens: 4,
                use_kv_cache: true,
                sampler: Sampler::Greedy,
            },
        );
        assert_eq!(seq0, solo0.tokens);
        assert_eq!(seq1, solo1.tokens);
    }

    #[test]
    fn finished_sequences_release_kv() {
        let m = model();
        let mut session = BatchSession::new(&m);
        session.admit(0, &[1], 2, Sampler::Greedy).unwrap();
        session.admit(1, &[2], 8, Sampler::Greedy).unwrap();
        let before = session.kv_bytes();
        for _ in 0..3 {
            session.step();
        }
        assert_eq!(session.len(), 1, "sequence 0 should have retired");
        assert!(session.kv_bytes() > 0);
        // The retired sequence's cache is gone; only seq 1's (longer than
        // before, but a single sequence) remains.
        assert!(session.kv_bytes() < before * 4);
    }

    #[test]
    fn admission_errors() {
        let m = model();
        let mut session = BatchSession::new(&m);
        assert!(session.admit(0, &[], 4, Sampler::Greedy).is_err());
        session.admit(0, &[1], 4, Sampler::Greedy).unwrap();
        assert!(session.admit(0, &[1], 4, Sampler::Greedy).is_err());
        let too_long = vec![1usize; 200];
        assert!(session.admit(1, &too_long, 100, Sampler::Greedy).is_err());
    }

    #[test]
    fn eviction_is_isolated_from_survivors() {
        let m = model();
        // Run A+B together but evict B mid-flight; A's tokens must match
        // a run where B never existed.
        let mut session = BatchSession::new(&m);
        session.admit(0, &[1, 2, 3], 10, Sampler::Greedy).unwrap();
        session.admit(1, &[4, 4], 10, Sampler::Greedy).unwrap();
        let mut seq0 = Vec::new();
        for _ in 0..4 {
            for ev in session.step() {
                if ev.seq == 0 {
                    seq0.push(ev.token);
                }
            }
        }
        assert!(session.evict(1));
        assert_eq!(session.live_ids(), vec![0]);
        while !session.is_empty() {
            for ev in session.step() {
                assert_eq!(ev.seq, 0);
                seq0.push(ev.token);
            }
        }
        let solo = generate(
            &m,
            &[1, 2, 3],
            GenerateOptions {
                max_new_tokens: 10,
                use_kv_cache: true,
                sampler: Sampler::Greedy,
            },
        );
        assert_eq!(seq0, solo.tokens);
    }

    #[test]
    fn events_flag_completion() {
        let m = model();
        let mut session = BatchSession::new(&m);
        session.admit(0, &[3], 1, Sampler::Greedy).unwrap();
        let events = session.step();
        assert_eq!(events.len(), 1);
        assert!(events[0].finished);
        assert!(session.is_empty());
    }

    fn prefix_session(m: &TransformerModel) -> BatchSession<'_> {
        BatchSession::with_prefix_cache(
            m,
            PrefixConfig {
                block_tokens: 8,
                max_cached_blocks: 64,
            },
        )
    }

    /// A prompt sharing `shared` leading tokens with every other prompt
    /// built from the same call, then diverging immediately.
    fn shared_prompt(id: usize, shared: usize, total: usize) -> Vec<usize> {
        (0..total)
            .map(|j| {
                if j < shared {
                    (j * 13 + 7) % 128
                } else {
                    (id * 31 + j * 7 + 3) % 128
                }
            })
            .collect()
    }

    #[test]
    fn cache_hit_streams_are_bitwise_identical_to_cold() {
        let m = model();
        // Cold reference: same prompts through a no-prefix session.
        let prompts: Vec<Vec<usize>> = (0..4).map(|id| shared_prompt(id, 24, 30)).collect();
        let mut cold = BatchSession::new(&m);
        for (i, p) in prompts.iter().enumerate() {
            let out = cold.admit(i as u64, p, 10, Sampler::Greedy).unwrap();
            assert_eq!(out.cached_prefix_tokens, 0);
        }
        let cold_tokens = cold.run_to_completion();

        let mut warm = prefix_session(&m);
        for (i, p) in prompts.iter().enumerate() {
            let out = warm.admit(i as u64, p, 10, Sampler::Greedy).unwrap();
            if i == 0 {
                assert_eq!(out.cached_prefix_tokens, 0, "first admission is cold");
            } else {
                // 24 shared tokens = 3 full 8-token blocks.
                assert_eq!(out.cached_prefix_tokens, 24, "request {i}");
            }
        }
        let warm_tokens = warm.run_to_completion();
        assert_eq!(cold_tokens, warm_tokens);
        let stats = warm.prefix_stats().unwrap();
        assert_eq!(stats.admissions, 4);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.saved_prefill_tokens, 3 * 24);
    }

    #[test]
    fn fully_cached_prompt_still_prefills_its_tail() {
        let m = model();
        let mut s = prefix_session(&m);
        let p = shared_prompt(0, 16, 16); // exactly 2 full blocks
        s.admit(0, &p, 4, Sampler::Greedy).unwrap();
        // Identical prompt: both blocks are resident, but the last one
        // must be recomputed so the final row's logits exist.
        let out = s.admit(1, &p, 4, Sampler::Greedy).unwrap();
        assert_eq!(out.cached_prefix_tokens, 8);
        let tokens = s.run_to_completion();
        assert_eq!(tokens[0].1, tokens[1].1, "identical prompts, same stream");
    }

    #[test]
    fn cow_divergence_matches_two_cold_sequences() {
        let m = model();
        // Two sequences share a 16-token prefix then diverge; their
        // streams must match two sequences in a cold session (shared
        // blocks are adopted, tails are copy-on-write — divergence
        // never corrupts the shared prefix).
        let a = shared_prompt(0, 16, 20);
        let b = shared_prompt(1, 16, 20);
        let mut warm = prefix_session(&m);
        warm.admit(0, &a, 12, Sampler::Greedy).unwrap();
        let out = warm.admit(1, &b, 12, Sampler::Greedy).unwrap();
        assert_eq!(out.cached_prefix_tokens, 16);
        let warm_tokens = warm.run_to_completion();

        let mut cold = BatchSession::new(&m);
        cold.admit(0, &a, 12, Sampler::Greedy).unwrap();
        cold.admit(1, &b, 12, Sampler::Greedy).unwrap();
        assert_eq!(warm_tokens, cold.run_to_completion());
    }

    #[test]
    fn kv_bytes_counts_shared_prefix_blocks_once() {
        let m = model();
        let kv_dim = m.config().kv_dim();
        let layers = m.config().layers;
        let mut s = prefix_session(&m);
        let shared = 16;
        s.admit(0, &shared_prompt(0, shared, 20), 40, Sampler::Greedy)
            .unwrap();
        let solo = s.kv_bytes();
        assert_eq!(solo, 2 * 20 * layers * kv_dim * 4);
        s.admit(1, &shared_prompt(1, shared, 20), 40, Sampler::Greedy)
            .unwrap();
        // The second sequence adds only its cold tail: 20 positions
        // minus the 16 shared ones (its partial tail block is its own).
        assert_eq!(s.kv_bytes(), solo + 2 * (20 - shared) * layers * kv_dim * 4);
    }

    #[test]
    fn chunked_prefill_matches_monolithic_for_every_budget() {
        let m = model();
        let prompts: [&[usize]; 3] = [&[1, 2, 3, 4, 5, 6, 7], &[9, 8, 7, 6], &[5; 11]];
        let mut mono = BatchSession::new(&m);
        for (i, p) in prompts.iter().enumerate() {
            mono.admit(i as u64, p, 8, Sampler::Greedy).unwrap();
        }
        let reference = mono.run_to_completion();
        for budget in [1usize, 2, 3, 5, 64] {
            let mut chunked = BatchSession::new(&m);
            for (i, p) in prompts.iter().enumerate() {
                chunked
                    .admit_chunked(i as u64, p, 8, Sampler::Greedy)
                    .unwrap();
            }
            // Interleave: one chunk, then one decode step for whatever
            // is live — the serving scheduler's cadence.
            let mut out: Vec<(u64, Vec<usize>)> = prompts
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u64, Vec::new()))
                .collect();
            let mut chunks = 0usize;
            while chunked.pending_len() > 0 || !chunked.is_empty() {
                if let Some(c) = chunked.prefill_chunk(budget) {
                    assert!(c.tokens >= 1 && c.tokens <= budget);
                    chunks += 1;
                }
                for ev in chunked.step() {
                    out[ev.seq as usize].1.push(ev.token);
                }
            }
            assert_eq!(out, reference, "budget {budget}");
            let expected_chunks: usize = prompts.iter().map(|p| p.len().div_ceil(budget)).sum();
            assert_eq!(chunks, expected_chunks, "budget {budget}");
        }
    }

    #[test]
    fn chunked_prefill_with_prefix_cache_matches_cold_monolithic() {
        let m = model();
        let prompts: Vec<Vec<usize>> = (0..3).map(|id| shared_prompt(id, 16, 21)).collect();
        let mut cold = BatchSession::new(&m);
        for (i, p) in prompts.iter().enumerate() {
            cold.admit(i as u64, p, 9, Sampler::Greedy).unwrap();
        }
        let reference = cold.run_to_completion();

        let mut warm = prefix_session(&m);
        for (i, p) in prompts.iter().enumerate() {
            let out = warm.admit_chunked(i as u64, p, 9, Sampler::Greedy).unwrap();
            if i > 0 {
                assert_eq!(out.cached_prefix_tokens, 16, "request {i}");
            }
            // Drain this request's chunks before admitting the next so
            // its blocks are registered for the next lookup.
            while warm.pending_len() > 0 {
                warm.prefill_chunk(5);
            }
        }
        assert_eq!(warm.run_to_completion(), reference);
        let stats = warm.prefix_stats().unwrap();
        assert_eq!(stats.admissions, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.saved_prefill_tokens, 2 * 16);
    }

    #[test]
    fn pending_sequences_are_tracked_and_evictable() {
        let m = model();
        let mut s = BatchSession::new(&m);
        s.admit_chunked(0, &[1, 2, 3, 4, 5, 6], 4, Sampler::Greedy)
            .unwrap();
        s.admit_chunked(1, &[7, 8, 9], 4, Sampler::Greedy).unwrap();
        assert_eq!(s.pending_len(), 2);
        assert_eq!(s.pending_prefill_tokens(), 9);
        assert_eq!(s.len(), 0, "nothing live until prefill completes");
        // Duplicate ids are rejected against the pending queue too.
        assert!(s.admit(0, &[1], 1, Sampler::Greedy).is_err());
        assert!(s.admit_chunked(1, &[1], 1, Sampler::Greedy).is_err());
        let c = s.prefill_chunk(4).unwrap();
        assert_eq!((c.seq, c.tokens, c.prefill_complete), (0, 4, false));
        assert_eq!(s.pending_prefill_tokens(), 5);
        // Evicting a half-prefilled sequence frees its backlog; the
        // KV it held is dropped with its cache.
        assert!(s.evict(0));
        assert_eq!(s.pending_prefill_tokens(), 3);
        let c = s.prefill_chunk(64).unwrap();
        assert_eq!((c.seq, c.tokens, c.prefill_complete), (1, 3, true));
        assert_eq!((s.pending_len(), s.len()), (0, 1));
        assert!(s.prefill_chunk(4).is_none(), "no pending prefill left");
    }

    #[test]
    fn prefix_session_without_sharing_matches_plain_session() {
        let m = model();
        let prompts: [&[usize]; 3] = [&[1, 2, 3], &[9, 8], &[5, 5, 5, 5]];
        let mut plain = BatchSession::new(&m);
        let mut prefixed = prefix_session(&m);
        for (i, p) in prompts.iter().enumerate() {
            plain.admit(i as u64, p, 12, Sampler::Greedy).unwrap();
            let out = prefixed.admit(i as u64, p, 12, Sampler::Greedy).unwrap();
            assert_eq!(out.cached_prefix_tokens, 0, "nothing to share");
        }
        assert_eq!(plain.run_to_completion(), prefixed.run_to_completion());
    }
}
