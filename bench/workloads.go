package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"txconflict/internal/htm"
	"txconflict/internal/metrics"
	"txconflict/internal/rng"
	"txconflict/internal/scenario"
	"txconflict/internal/stm"
	"txconflict/internal/txkv"
	"txconflict/internal/workload"
)

type kind int

const (
	kindSock  kind = iota // loopback HTTP through txkv.Server
	kindLocal             // txkv.LocalClient, no socket
	kindSim               // internal/htm simulator cells
)

// spec is one named workload. The names are fixed: BENCHMARK.json and
// later issues cite them.
type spec struct {
	name string
	kind kind
	kv   string // txkv workload (kv kinds)
	// batch is the ops per request, users the closed-loop callers
	// (= TCP connections on sock workloads).
	batch, users int
	// fold builds the store lazy + CommitBatch=4 + FoldCommutative +
	// EscrowCounters: the combiner pipeline instead of the eager one.
	fold bool
}

// The box has two cores: at most two load goroutines, two
// connections and two pool workers, so the generator never
// oversubscribes what it measures.
const (
	procs       = 2
	poolWorkers = 2
)

var specs = []spec{
	// The default serving shape: fixed per-request cost (socket,
	// net/http, JSON) dominates, stm is a few percent.
	{name: "sock-read-b16", kind: kindSock, kv: "readmostly", batch: 16, users: 2},
	// The same layers used the other way: big bodies, writes beside
	// reads, per-op codec and ApplyBatch dominate.
	{name: "sock-doc-b128", kind: kindSock, kv: "document", batch: 128, users: 2},
	// No socket, no conflict: the fixed per-attempt stm cost and the
	// txkv probe are the whole request.
	{name: "local-read-1", kind: kindLocal, kv: "readmostly", batch: 16, users: 1},
	// The paper's regime: conflict chains on hot words.
	{name: "local-hot-2", kind: kindLocal, kv: "hotspot-counter", batch: 16, users: 2},
	// The same op stream through the combiner + fold pipeline.
	{name: "local-hot-fold-2", kind: kindLocal, kv: "hotspot-counter", batch: 16, users: 2, fold: true},
	// Figure 3 on the simulator: host time per simulated cell.
	{name: "sim-hot-16", kind: kindSim},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// stmConfig is the runtime configuration a workload's store is built
// on: cmd/txkvd's defaults (eager requestor-wins + UniformRW, metrics
// plane attached), or the combiner pipeline for fold.
func (sp spec) stmConfig() stm.Config {
	cfg := stm.DefaultConfig()
	if sp.fold {
		cfg.Lazy = true
		cfg.CommitBatch = 4
		cfg.FoldCommutative = true
	}
	cfg.Metrics = metrics.NewPlane(poolWorkers, 0)
	return cfg
}

// newStore builds the store a workload runs on.
func (sp spec) newStore(w *txkv.Workload) *txkv.Store {
	return w.NewStore(txkv.Config{STM: sp.stmConfig(), EscrowCounters: sp.fold})
}

// clientRands are the per-user streams LocalClient transactions draw
// from, apart from the op streams.
func (sp spec) clientRands(seed uint64) []*rng.Rand {
	root := rng.New(seed ^ 0xc11e47)
	rs := make([]*rng.Rand, sp.users)
	for u := range rs {
		rs[u] = root.Split()
	}
	return rs
}

// fingerprint is FNV-1a over the words of a workload's inputs.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) u64(v uint64) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], v)
	f.h.Write(word[:])
}

// ringOps is the pre-generated op stream length per user. Requests
// cycle through it, so sampling (zipf, User.Next) is never in the
// timed path.
const ringOps = 32768

// buildRings draws every user's op stream from seed, split the way
// txkv.Workload.Run splits it, and fingerprints the result.
func buildRings(w *txkv.Workload, sp spec, seed uint64) ([]*txkv.User, [][][]txkv.Op, uint64) {
	root := rng.New(seed)
	users := make([]*txkv.User, sp.users)
	rings := make([][][]txkv.Op, sp.users)
	fp := newFingerprint()
	for u := range users {
		ru := root.Split()
		users[u] = w.NewUser(u)
		flat := make([]txkv.Op, ringOps)
		for i := range flat {
			op := users[u].Next(ru)
			flat[i] = op
			fp.h.Write([]byte(op.Kind))
			fp.u64(op.Key)
			fp.u64(op.Val)
			fp.u64(uint64(op.Fields))
		}
		for i := 0; i+sp.batch <= len(flat); i += sp.batch {
			rings[u] = append(rings[u], flat[i:i+sp.batch])
		}
	}
	return users, rings, fp.h.Sum64()
}

// simCycles is the simulated window of one cell.
const simCycles = 1_000_000

// simCores is the simulated machine size: the many-core stand-in.
const simCores = 16

// simInputs is what a sim cell is built from: the tuned delay probed
// from the scenario and the two machine seeds.
type simInputs struct {
	tuned float64
	seeds [2]uint64
	fp    uint64
}

func newSimWorkload() (*workload.HTM, error) {
	return workload.ByName("hotspot", scenario.Options{})
}

// buildSimInputs probes the tuned delay and fingerprints the inputs:
// the simulator draws its transactions itself from the machine seed,
// so the fingerprint covers the seeds, the tuned delay and a sample
// of the programs the scenario hands out under each seed.
func buildSimInputs(seed uint64) (simInputs, error) {
	probe, err := newSimWorkload()
	if err != nil {
		return simInputs{}, err
	}
	in := simInputs{
		tuned: workload.TunedDelay(probe, htm.DefaultParams(1), 512),
		seeds: [2]uint64{seed, seed + 1},
	}
	fp := newFingerprint()
	fp.u64(math.Float64bits(in.tuned))
	for _, s := range in.seeds {
		fp.u64(s)
		w, err := newSimWorkload()
		if err != nil {
			return simInputs{}, err
		}
		w.EnsureWorkers(simCores)
		r := rng.New(s)
		for i := 0; i < 256; i++ {
			tx := w.NextTx(i%simCores, r)
			fp.u64(tx.ThinkTime)
			for _, op := range tx.Ops {
				fp.u64(uint64(op.Kind))
				fp.u64(op.Addr)
				fp.u64(op.Cycles)
			}
		}
	}
	in.fp = fp.h.Sum64()
	return in, nil
}

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }
