// Package txconflict reproduces "The Transactional Conflict Problem"
// (Alistarh, Haider, Kübler, Nadiradze — SPAA 2018): optimal online
// algorithms for choosing grace periods when transactions conflict,
// under both requestor-wins and requestor-aborts resolution.
//
// The repository contains the strategy family (internal/strategy),
// the conflict cost model (internal/core), the transaction-length
// distribution subsystem (internal/dist: the Figure 2 suite —
// constant, uniform, exponential, lognormal, bimodal — plus
// heavy-tailed pareto, rank-skewed zipf and empirical trace replay,
// and the CDF-inversion/integration helpers the strategies use), and
// the unified scenario engine (internal/scenario): the paper's
// Section 8.2 benchmarks (stack, queue, TxApp, bimodal) plus
// read-mostly, long-reader and hotspot/zipf workloads expressed as
// backend-agnostic transaction programs with dist-driven lengths and
// verifiable committed-state invariants.
//
// Two execution backends run the same scenarios: a cycle-level HTM
// multicore simulator with directory MSI coherence (internal/htm,
// fed through the internal/workload compiler; its event kernel,
// internal/sim, keeps events by value and its timers and coherence
// messages are typed, recycled records, so a warm simulation
// allocates nothing per event) standing in for the paper's Graphite
// setup, and a hand-rolled software transactional
// runtime for real-goroutine experiments (internal/stm: a lock arena
// of one-cache-line words whose lock word carries lock bit, version
// and owner descriptor id — one line and one atomic per word touched,
// ids drawn from a runtime-owned descriptor table — one TL2 commit
// clock, alone on its cache line, with snapshot extension, an
// attempt-epoch kill protocol, and a flat-combining group commit for
// the lazy TL2 mode behind Policy.CommitBatch — a per-lane combiner
// acquires the merged commit locks once and writes back a bounded
// queue of write sets with a single clock advance, stamping each
// queued descriptor's outcome into its packed state word so kills
// landed while queued still resolve correctly; every stamp it takes —
// the paper's abort cost B is "time the receiver has already run +
// cleanup" — is a reading of one monotonic clock, and stm.Worker, a
// per-goroutine handle for back-to-back blocks, keeps its descriptor
// and starts each block's first attempt at the stamp the previous one
// ended at, so a committed block costs one clock read while retries
// and a handle's first block always read afresh), driven by
// scenario.STMRunner (one-shot stm.AtomicWorker blocks: its think
// time sits between blocks and must not be chained over). cmd/stmbench
// selects workloads from the one registry via -scenario/-dist (-batch
// for the group commit), and every run is checked against its scenario's
// invariant end to end — including the cross-mode equivalence suite
// holding eager, lazy and lazy+batched commits to identical
// committed state on seeded schedules.
//
// The internal/trace subsystem closes the Section 1 profile-to-
// simulation loop: a per-worker recorder hooks into the STM runtime
// (stm.Config.Trace) and captures one record per atomic block —
// footprints, retries, kills, grace waits, timings — into a
// versioned binary container (.btrace; the JSONL format of earlier
// builds is read-only); profiles convert to dist.Empirical samplers
// in the catalog (trace:<key>), and replays re-issue the recorded
// footprints as first-class scenarios on both backends
// (stmbench -record/-replay/-fidelity, experiments.TraceFidelity).
//
// internal/txkv takes the runtime end-to-end: a transactional
// key-value store built entirely on the STM word arena — an
// open-addressing hash map whose buckets, values and per-value-class
// linked secondary index live in arena words, so every probe, insert
// and index relink is ordinary tx.Load/tx.Store traffic and the
// conflict policies, grace strategies and group commit apply
// unchanged — plus multi-key document updates, keyed counters, a
// catalog of zipf-skewed workloads (readmostly, hotspot-counter,
// document) with structural and semantic invariant checks, batches
// of ops as the store's one entry point, and the cmd/txkvd HTTP
// front-end (each batch request runs on its own goroutine under one
// of a fixed set of worker identities, its ops back to back on one
// stm.Worker handle; its recorded throughput and latency rows come
// from `bash bench/run.sh`, see bench/README.md). The same traffic
// shapes are registered in the scenario catalog as
// kvcounter/kvread/kvdoc, so both backends exercise keyed conflict
// patterns in the parity suites.
//
// The runtime's knobs form a live control plane: stm.Config embeds the
// initial stm.Policy next to the construction-time structure, and the
// runtime keeps the policy — resolution, grace strategy, the Section 9
// hybrid rule, CommitBatch, retry bounds — behind one atomic pointer,
// swappable mid-run via Runtime.SetPolicy (each
// attempt latches the policy once, so swaps never tear a running
// transaction). SetPolicy is the only way policy changes at run time:
// txkvd serves GET/POST /v1/policy to inspect and override it, and
// the runtime's always-on metrics plane (internal/metrics, the one
// place an event is counted) shows what a change did.
//
// Every table of the paper's evaluation is built once, by a function
// in internal/synth or internal/experiments; cmd/paper is the one
// front-end that writes them all (its deterministic sections are
// byte-pinned under cmd/paper/testdata). See internal/README.md.
package txconflict
