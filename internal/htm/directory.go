package htm

import (
	"math/bits"

	"txconflict/internal/cache"
	"txconflict/internal/sim"
)

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirI dirState = iota // no cached copies
	dirS                 // one or more read-only copies
	dirM                 // exactly one (believed) owner
)

// request is one outstanding coherence request at the directory.
type request struct {
	core    int
	write   bool
	reqTx   bool     // requestor is inside a transaction
	elapsed sim.Time // requestor's transaction elapsed cycles (for RA cost)
	attempt int      // requestor's abort count (for RA backoff)
	la      cache.LineAddr

	// e is the line's directory record, looked up once when the request
	// arrives (records are never deleted, so it stays valid).
	e        *dirEntry
	acksLeft int
	nacked   bool
}

// dirEntry is the directory record for one line. The directory also
// holds the authoritative memory copy of the line's data: committed
// values always reach the directory (commit writebacks and eviction
// writebacks), while speculative values never do, so an aborting core
// can silently drop its transactional lines.
type dirEntry struct {
	state   dirState
	owner   int
	sharers uint64 // bitmask over cores
	data    [cache.WordsPerLine]uint64
	busy    bool
	queue   []*request
}

// Directory is the home node of all lines (modeling the shared L2 /
// memory controller). Requests for the same line are serialized:
// while one is in flight the rest wait in a per-line FIFO — this is
// what turns simultaneous conflicting transactions into the paper's
// conflict *chains* (the queue length is the k-2 extra waiters).
type Directory struct {
	m       *Machine
	entries map[cache.LineAddr]*dirEntry
}

func newDirectory(m *Machine) *Directory {
	return &Directory{m: m, entries: make(map[cache.LineAddr]*dirEntry)}
}

func (d *Directory) entry(la cache.LineAddr) *dirEntry {
	e, ok := d.entries[la]
	if !ok {
		e = &dirEntry{state: dirI}
		d.entries[la] = e
	}
	return e
}

// ReadWord returns the directory's committed value of a word; tests
// use it to check end-to-end memory semantics. Reading a line nobody
// has requested creates no record of it.
func (d *Directory) ReadWord(byteAddr uint64) uint64 {
	if e := d.entries[cache.LineOf(byteAddr)]; e != nil {
		return e.data[cache.WordOf(byteAddr)]
	}
	return 0
}

// Fire implements sim.Handler: the arrival of a core's message, or
// the directory's own deferred re-dispatch of a request.
func (d *Directory) Fire(kind int, _ uint64, msg any) {
	mg := msg.(*message)
	switch kind {
	case evRequest:
		d.Request(mg.req)
	case evBegin:
		d.begin(mg.req)
	case evInvAck:
		d.InvAck(mg.req, mg.core)
	case evInvNack:
		d.InvNack(mg.req, mg.core)
	case evOwnerReply:
		d.OwnerReply(mg.req, mg.core, &mg.data)
	case evOwnerNack:
		d.OwnerNack(mg.req, mg.core)
	case evOwnerMiss:
		d.OwnerMiss(mg.req, mg.core)
	case evDropOwned:
		d.DropOwned(mg.core, mg.la)
	case evWriteback:
		d.Writeback(mg.core, mg.la, &mg.data)
	case evCommitData:
		d.CommitData(mg.core, mg.la, &mg.data)
	}
	d.m.release(mg)
}

// toCore posts a message to a core, one network hop away, and returns
// it for the caller to fill in.
func (d *Directory) toCore(core, kind int) *message {
	return d.m.post(d.m.coreDirLatency(core), d.m.Cores[core], kind)
}

// Request is the arrival point of GetS/GetX messages.
func (d *Directory) Request(req *request) {
	d.m.count(ctDirRequest)
	e := d.entry(req.la)
	req.e = e
	if e.busy {
		e.queue = append(e.queue, req)
		return
	}
	e.busy = true
	d.begin(req)
}

// begin dispatches a request against its line's current state. Called
// with the record's busy flag held by req.
func (d *Directory) begin(req *request) {
	e := req.e
	switch e.state {
	case dirI:
		if req.write {
			e.state = dirM
			e.owner = req.core
			e.sharers = 0
		} else {
			e.state = dirS
			e.sharers |= 1 << uint(req.core)
		}
		d.grant(req)
	case dirS:
		if !req.write {
			e.sharers |= 1 << uint(req.core)
			d.grant(req)
			return
		}
		// Invalidate all sharers except the requestor.
		targets := e.sharers &^ (1 << uint(req.core))
		if targets == 0 {
			e.state = dirM
			e.owner = req.core
			e.sharers = 0
			d.grant(req)
			return
		}
		req.acksLeft = bits.OnesCount64(targets)
		req.nacked = false
		for ; targets != 0; targets &= targets - 1 {
			d.m.count(ctDirInv)
			mg := d.toCore(bits.TrailingZeros64(targets), evInv)
			mg.req, mg.chain = req, 2+len(e.queue)
		}
	case dirM:
		if e.owner == req.core {
			// The owner's eviction writeback is still in flight;
			// retry once it lands.
			d.m.count(ctDirRetry)
			d.m.post(2*d.m.coreDirLatency(req.core), d, evBegin).req = req
			return
		}
		d.m.count(ctDirFetch)
		mg := d.toCore(e.owner, evFetch)
		mg.req, mg.chain = req, 2+len(e.queue)
	}
}

// InvAck is a sharer's acknowledgment of an invalidation (possibly
// after a grace period and a receiver abort).
func (d *Directory) InvAck(req *request, from int) {
	d.m.count(ctDirInvAck)
	req.e.sharers &^= 1 << uint(from)
	req.acksLeft--
	d.maybeFinishInv(req)
}

// InvNack is a transactional sharer's refusal (requestor-aborts
// policy): the sharer keeps its line and the requestor must abort.
func (d *Directory) InvNack(req *request, from int) {
	d.m.count(ctDirInvNack)
	req.nacked = true
	req.acksLeft--
	d.maybeFinishInv(req)
}

func (d *Directory) maybeFinishInv(req *request) {
	if req.acksLeft > 0 {
		return
	}
	e := req.e
	if req.nacked {
		d.fail(req)
		return
	}
	e.state = dirM
	e.owner = req.core
	e.sharers = 0
	d.grant(req)
}

// OwnerReply carries the owner's current data for a fetched line. For
// a write fetch the owner has invalidated its copy; for a read fetch
// it demoted to Shared.
func (d *Directory) OwnerReply(req *request, from int, data *[cache.WordsPerLine]uint64) {
	d.m.count(ctDirOwnerReply)
	e := req.e
	e.data = *data
	if req.write {
		e.state = dirM
		e.owner = req.core
		e.sharers = 0
	} else {
		e.state = dirS
		e.sharers = 1<<uint(from) | 1<<uint(req.core)
	}
	d.grant(req)
}

// OwnerNack is the owner's refusal under requestor-aborts: the owner
// keeps the line and the requestor aborts.
func (d *Directory) OwnerNack(req *request, from int) {
	d.m.count(ctDirOwnerNack)
	d.fail(req)
}

// OwnerMiss reports that the believed owner no longer holds the line
// (it aborted and dropped it, or evicted it — the writeback either
// has arrived, clearing dirM, or is about to). Ownership is cleared
// and the request re-dispatched; the directory copy is authoritative.
func (d *Directory) OwnerMiss(req *request, from int) {
	d.m.count(ctDirOwnerMiss)
	e := req.e
	if e.state == dirM && e.owner == from {
		e.state = dirI
		e.sharers = 0
	}
	d.begin(req)
}

// DropOwned is an aborting core's notification that it discarded a
// Modified transactional line without writeback (the directory copy
// is the committed value). Without this, the directory would believe
// the core still owns the line and a re-request from the same core
// would retry forever.
func (d *Directory) DropOwned(from int, la cache.LineAddr) {
	d.m.count(ctDirDropOwned)
	e := d.entry(la)
	if e.state == dirM && e.owner == from {
		e.state = dirI
		e.sharers = 0
	}
}

// Writeback handles an eviction writeback of a Modified line. Stale
// writebacks (ownership already moved) are ignored: the data traveled
// with the intervening fetch reply instead.
func (d *Directory) Writeback(from int, la cache.LineAddr, data *[cache.WordsPerLine]uint64) {
	d.m.count(ctDirWriteback)
	e := d.entry(la)
	if e.state == dirM && e.owner == from {
		e.data = *data
		e.state = dirI
		e.sharers = 0
	}
}

// CommitData updates the authoritative copy with a committed
// speculative write; the core keeps the line in Modified state.
// Stale updates (ownership moved between commit and arrival) are
// dropped — the fetch that moved ownership carried the same data.
func (d *Directory) CommitData(from int, la cache.LineAddr, data *[cache.WordsPerLine]uint64) {
	d.m.count(ctDirCommitData)
	e := d.entry(la)
	if e.state == dirM && e.owner == from {
		e.data = *data
	}
}

// grant completes a request successfully, shipping data and the new
// state to the requestor.
func (d *Directory) grant(req *request) {
	d.m.count(ctDirGrant)
	mg := d.toCore(req.core, evGrant)
	mg.la, mg.data, mg.write = req.la, req.e.data, req.write
	d.finish(req.e)
}

// fail completes a request with a NACK-abort: the requestor's
// transaction must abort (requestor-aborts resolution).
func (d *Directory) fail(req *request) {
	d.m.count(ctDirFail)
	d.toCore(req.core, evNackAbort).la = req.la
	d.finish(req.e)
}

// finish releases the per-line serialization and starts the next
// queued request.
func (d *Directory) finish(e *dirEntry) {
	if len(e.queue) == 0 {
		e.busy = false
		return
	}
	// Shift down rather than reslice, so the backing array is reused
	// instead of crawling forward into a reallocation.
	next := e.queue[0]
	e.queue = e.queue[:copy(e.queue, e.queue[1:])]
	d.m.post(d.m.P.DirLatency, d, evBegin).req = next
}

// CheckInvariants verifies directory/cache consistency: at most one
// believed owner, directory sharer sets are supersets of actual
// cached copies, and no line is cached Modified in two cores. Tests
// call it after (and during) runs.
func (d *Directory) CheckInvariants() error {
	return d.m.checkCoherence()
}
