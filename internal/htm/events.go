package htm

import "txconflict/internal/cache"

// Event kinds: what a sim.Handler is asked to do when an event fires.
const (
	// A core's own timers; the first three are guarded by the
	// transaction epoch they were armed in (Core.Fire).
	evStep = iota
	evFinishCommit
	evGraceExpire
	evNextTx
	evBeginTx

	// Directory-to-core messages.
	evGrant
	evNackAbort
	evInv
	evFetch

	// Core-to-directory messages, and the directory's deferred
	// re-dispatch of a request (retry, or next in a line's queue).
	evRequest
	evBegin
	evInvAck
	evInvNack
	evOwnerReply
	evOwnerNack
	evOwnerMiss
	evDropOwned
	evWriteback
	evCommitData
)

// message is the payload of a coherence message in flight. The event
// kind says which fields the sender filled in; the Machine recycles
// messages (post/release), so none may be kept past its handler.
type message struct {
	next  *message // free list
	req   *request
	la    cache.LineAddr
	data  [cache.WordsPerLine]uint64
	core  int // sending core, on messages to the directory
	chain int // conflict chain length, on evInv/evFetch
	write bool
}

// counter indexes Machine.msgs: one slot per Metrics.Messages key.
type counter uint8

const (
	ctCoreGetX counter = iota
	ctCoreGetS
	ctCoreDropOwned
	ctCoreWriteback
	ctCoreOwnerReply
	ctCoreInvAck
	ctCoreInvNack
	ctCoreConflict
	ctCoreOwnerNack
	ctCoreCommitData
	ctCoreAbort
	ctDirRequest
	ctDirInv
	ctDirRetry
	ctDirFetch
	ctDirInvAck
	ctDirInvNack
	ctDirOwnerReply
	ctDirOwnerNack
	ctDirOwnerMiss
	ctDirDropOwned
	ctDirWriteback
	ctDirCommitData
	ctDirGrant
	ctDirFail
	numCounters
)

var counterNames = [numCounters]string{
	ctCoreGetX:       "core.getx",
	ctCoreGetS:       "core.gets",
	ctCoreDropOwned:  "core.dropowned",
	ctCoreWriteback:  "core.writeback",
	ctCoreOwnerReply: "core.ownerreply",
	ctCoreInvAck:     "core.invack",
	ctCoreInvNack:    "core.invnack",
	ctCoreConflict:   "core.conflict",
	ctCoreOwnerNack:  "core.ownernack",
	ctCoreCommitData: "core.commitdata",
	ctCoreAbort:      "core.abort",
	ctDirRequest:     "dir.request",
	ctDirInv:         "dir.inv",
	ctDirRetry:       "dir.retry",
	ctDirFetch:       "dir.fetch",
	ctDirInvAck:      "dir.invack",
	ctDirInvNack:     "dir.invnack",
	ctDirOwnerReply:  "dir.ownerreply",
	ctDirOwnerNack:   "dir.ownernack",
	ctDirOwnerMiss:   "dir.ownermiss",
	ctDirDropOwned:   "dir.dropowned",
	ctDirWriteback:   "dir.writeback",
	ctDirCommitData:  "dir.commitdata",
	ctDirGrant:       "dir.grant",
	ctDirFail:        "dir.fail",
}
