package htm

import (
	"txconflict/internal/cache"
	ccore "txconflict/internal/core"
	"txconflict/internal/rng"
	"txconflict/internal/sim"
)

// pendingConflict is a coherence request parked at a receiving core
// during its grace period.
type pendingConflict struct {
	req     *request
	isFetch bool // fetch of an M line vs invalidation of an S line
}

// Core models one core: a private L1, a transactional execution
// engine, and the conflict-resolution logic of the paper. All methods
// run inside the event kernel (single-threaded).
type Core struct {
	id  int
	m   *Machine
	L1  *cache.Cache
	rng *rng.Rand

	regs [8]uint64

	// Current transaction.
	txActive bool
	epoch    uint64 // bumped on commit/abort; stale timers check it
	ops      []Op
	think    sim.Time
	pc       int
	txStart  sim.Time
	attempts int

	// One outstanding memory request (blocking MSHR), held in req: the
	// directory and parking cores point at it until the grant or NACK
	// is sent, and the core issues no other before that arrives — an
	// abort with a request in flight waits for it (restartPending).
	inflight       bool
	restartPending bool
	req            request

	// committing marks the window between reaching the commit point
	// and the commit completing. A transaction in this window has
	// logically won: incoming conflicts are parked and served with
	// committed data instead of aborting it (commit is locally
	// atomic, as in real HTM commit pipelines).
	committing bool

	// Receiver-side grace state. gracePolicy is the policy chosen
	// when the grace was armed (relevant with Hybrid, which picks per
	// conflict by chain length).
	graceArmed  bool
	gracePolicy ccore.Policy
	pending     []pendingConflict

	// Stats.
	commits, aborts, conflicts          uint64
	graceCommits, nackAborts, capAborts uint64
}

func newCore(id int, m *Machine, r *rng.Rand) *Core {
	return &Core{
		id:  id,
		m:   m,
		L1:  cache.New(m.P.L1Sets, m.P.L1Ways),
		rng: r,
	}
}

// Fire implements sim.Handler: the core's own timers and the
// directory's messages to it. The first three timers are guarded: they
// carry the epoch they were armed in and fire only if no commit or
// abort has moved the transaction past it since.
func (c *Core) Fire(kind int, epoch uint64, msg any) {
	if kind <= evGraceExpire && c.epoch != epoch {
		return
	}
	switch kind {
	case evStep:
		c.step()
	case evFinishCommit:
		c.finishCommit()
	case evGraceExpire:
		c.graceExpire()
	case evNextTx:
		c.nextTx()
	case evBeginTx:
		c.beginTx()
	default:
		mg := msg.(*message)
		switch kind {
		case evGrant:
			c.handleGrant(mg.la, &mg.data, mg.write)
		case evNackAbort:
			c.handleNackAbort(mg.la)
		case evInv:
			c.handleInv(mg.req, mg.chain)
		case evFetch:
			c.handleFetch(mg.req, mg.chain)
		}
		c.m.release(mg)
	}
}

// timer arms one of the core's own events, stamped with its epoch.
func (c *Core) timer(d sim.Time, kind int) { c.m.K.Post(d, c, kind, c.epoch, nil) }

// toDir posts a message to the directory, one network hop away, and
// returns it for the caller to fill in.
func (c *Core) toDir(kind int) *message {
	mg := c.m.post(c.m.coreDirLatency(c.id), c.m.Dir, kind)
	mg.core = c.id
	return mg
}

// start fetches the first transaction. Cores are staggered by their
// id to avoid artificial lockstep.
func (c *Core) start() {
	c.m.K.After(sim.Time(c.id), c.nextTx)
}

func (c *Core) nextTx() {
	if c.m.stopping {
		return
	}
	tx := c.m.W.NextTx(c.id, c.rng)
	c.ops = tx.Ops
	c.think = tx.ThinkTime
	c.attempts = 0
	c.beginTx()
}

// beginTx (re)starts execution of the current op sequence.
func (c *Core) beginTx() {
	c.txActive = true
	c.epoch++
	c.pc = 0
	c.txStart = c.m.K.Now()
	c.regs = [8]uint64{}
	c.step()
}

// step executes the op at pc, or commits when the body is done.
func (c *Core) step() {
	if !c.txActive {
		return
	}
	if c.pc >= len(c.ops) {
		c.committing = true
		c.timer(c.m.P.CommitLatency, evFinishCommit)
		return
	}
	op := c.ops[c.pc]
	switch op.Kind {
	case OpCompute:
		c.pc++
		c.timer(op.Cycles, evStep)
	case OpRead, OpWrite:
		c.access(op)
	}
}

// access performs one memory op against the L1, issuing a coherence
// request on a miss or upgrade. On a hit the op takes effect
// atomically (tag check and data access are indivisible, as in real
// hardware — otherwise a crossing fetch could steal the line before
// the transactional bit is set, and two symmetric cores ping-pong a
// contended line forever without a single conflict being detected);
// the hit latency is charged before the next op starts.
func (c *Core) access(op Op) {
	la := cache.LineOf(op.EffectiveAddr(&c.regs))
	line := c.L1.Peek(la)
	write := op.Kind == OpWrite
	if line != nil && (!write || line.State == cache.Modified) {
		c.applyOp(op, line)
		c.pc++
		c.timer(c.m.P.L1Latency, evStep)
		return
	}
	if line == nil {
		nl, victim, evicted := c.L1.Insert(la)
		if evicted {
			if victim.State == cache.Modified && !victim.Tx {
				c.sendWriteback(victim.Tag, &victim.Data)
			}
			if victim.Tx {
				// Algorithm 1, line 4: evicting a transactional
				// line aborts the transaction. The victim left the
				// cache in Insert, so doAbort's sweep cannot see it
				// — release its ownership here or the directory
				// retries this core's next request for it forever.
				c.dropEvictedTxVictim(victim)
				c.capAborts++
				c.doAbort()
				return
			}
		}
		nl.Pending = true
	}
	// Miss (fill) or upgrade (S->M): one blocking request.
	c.sendRequest(la, write)
}

// applyOp performs the data movement of a memory op against a line
// with sufficient permissions, marking it transactional.
func (c *Core) applyOp(op Op, line *cache.Line) {
	ea := op.EffectiveAddr(&c.regs)
	c.L1.MarkTx(line, op.Kind == OpWrite)
	w := cache.WordOf(ea)
	if op.Kind == OpWrite {
		val := op.Imm
		if op.SrcReg >= 0 {
			val += c.regs[op.SrcReg&7]
		}
		line.Data[w] = val
	} else {
		c.regs[op.Dst&7] = line.Data[w]
	}
}

// sendRequest issues GetS/GetX to the directory.
func (c *Core) sendRequest(la cache.LineAddr, write bool) {
	c.inflight = true
	c.req = request{
		core:    c.id,
		write:   write,
		reqTx:   c.txActive,
		elapsed: c.m.K.Now() - c.txStart,
		attempt: c.attempts,
		la:      la,
	}
	if write {
		c.m.count(ctCoreGetX)
	} else {
		c.m.count(ctCoreGetS)
	}
	c.toDir(evRequest).req = &c.req
}

// dropEvictedTxVictim releases the directory-side state of a
// transactional line that a capacity eviction just removed from the
// cache. A Modified victim's speculative data is discarded (the
// directory copy is the committed value), but the directory must stop
// believing this core owns the line: doAbort's DropOwned sweep walks
// the cache and the victim is already gone from it.
func (c *Core) dropEvictedTxVictim(victim cache.Line) {
	if victim.State != cache.Modified {
		return // Shared drops stay silent; the sharer mask is a superset
	}
	c.m.count(ctCoreDropOwned)
	c.toDir(evDropOwned).la = victim.Tag
}

func (c *Core) sendWriteback(la cache.LineAddr, data *[cache.WordsPerLine]uint64) {
	c.m.count(ctCoreWriteback)
	mg := c.toDir(evWriteback)
	mg.la, mg.data = la, *data
}

// handleGrant receives data and permissions from the directory.
func (c *Core) handleGrant(la cache.LineAddr, data *[cache.WordsPerLine]uint64, write bool) {
	c.inflight = false
	line := c.L1.FindPending(la)
	if line == nil {
		line = c.L1.Peek(la) // upgrade grant: line is valid Shared
	}
	if line == nil {
		nl, victim, evicted := c.L1.Insert(la)
		if evicted {
			if victim.State == cache.Modified && !victim.Tx {
				c.sendWriteback(victim.Tag, &victim.Data)
			}
			if victim.Tx && c.txActive {
				c.dropEvictedTxVictim(victim)
				c.capAborts++
				// Fill first so the grant is not lost, then abort.
				nl.State = grantState(write)
				nl.Data = *data
				c.doAbort()
				return
			}
		}
		line = nl
	}
	line.Pending = false
	line.Data = *data
	line.State = grantState(write)
	if c.restartPending {
		c.restartPending = false
		c.scheduleRestart()
		return
	}
	if !c.txActive {
		return
	}
	// Complete the op that missed atomically with the fill, then
	// charge the access latency before the next op.
	c.applyOp(c.ops[c.pc], line)
	c.pc++
	c.timer(c.m.P.L1Latency, evStep)
}

func grantState(write bool) cache.State {
	if write {
		return cache.Modified
	}
	return cache.Shared
}

// handleNackAbort receives a requestor-aborts NACK: this core's
// transaction loses the conflict and restarts.
func (c *Core) handleNackAbort(la cache.LineAddr) {
	c.inflight = false
	c.nackAborts++
	if line := c.L1.FindPending(la); line != nil {
		*line = cache.Line{} // the fill will never arrive
	}
	if c.restartPending {
		c.restartPending = false
		c.scheduleRestart()
		return
	}
	if c.txActive {
		c.doAbort()
	}
}

// handleFetch processes a directory forward for a line this core
// (supposedly) owns in Modified state.
func (c *Core) handleFetch(req *request, chain int) {
	line := c.L1.Peek(req.la)
	if line == nil || line.State != cache.Modified {
		// Aborted (dropped) or evicted (writeback in flight).
		c.toDir(evOwnerMiss).req = req
		return
	}
	if line.Tx && c.txActive {
		c.conflict(req, true, chain)
		return
	}
	c.serveFetch(req, line)
}

// serveFetch replies with data, demoting or invalidating locally.
func (c *Core) serveFetch(req *request, line *cache.Line) {
	c.m.count(ctCoreOwnerReply)
	mg := c.toDir(evOwnerReply)
	mg.req, mg.data = req, line.Data
	if req.write {
		c.L1.Invalidate(req.la)
	} else {
		line.State = cache.Shared
	}
}

// handleInv processes an invalidation of a Shared line.
func (c *Core) handleInv(req *request, chain int) {
	line := c.L1.Peek(req.la)
	if line == nil {
		c.ackInv(req)
		return
	}
	if line.Tx && c.txActive {
		c.conflict(req, false, chain)
		return
	}
	c.L1.Invalidate(req.la)
	c.ackInv(req)
}

func (c *Core) ackInv(req *request) {
	c.m.count(ctCoreInvAck)
	c.toDir(evInvAck).req = req
}

func (c *Core) nackInv(req *request) {
	c.m.count(ctCoreInvNack)
	c.toDir(evInvNack).req = req
}

// conflict is the paper's decision point: a remote request has hit a
// transactional line. The receiving core picks a grace period via the
// strategy and parks the request; per the model's assumption (b),
// requests arriving during an ongoing grace period attach to it
// rather than starting a new one.
func (c *Core) conflict(req *request, isFetch bool, chain int) {
	c.conflicts++
	c.m.count(ctCoreConflict)
	c.pending = append(c.pending, pendingConflict{req: req, isFetch: isFetch})
	if c.committing || c.graceArmed {
		return
	}
	// The FixedChainK and FixedB ablations replace the rule's inputs:
	// the directory's queue length, and each side's elapsed cycles plus
	// the abort penalty (footnote 1).
	k := chain
	if c.m.P.FixedChainK > 0 {
		k = c.m.P.FixedChainK
	}
	receiver := ccore.Side{B: float64(c.m.K.Now()-c.txStart) + float64(c.m.P.AbortPenalty), Attempts: c.attempts}
	requestor := ccore.Side{B: float64(req.elapsed) + float64(c.m.P.AbortPenalty), Attempts: req.attempt}
	if b := c.m.P.FixedB; b > 0 {
		receiver.B, requestor.B = b, b
	}
	d := c.m.P.Decide(k, receiver, requestor, c.m, c.rng)
	c.graceArmed = true
	c.gracePolicy = d.Policy
	x := sim.Time(d.Grace)
	if x <= 0 {
		c.graceExpire()
		return
	}
	c.timer(x, evGraceExpire)
}

// graceExpire resolves all parked conflicts at the deadline:
// requestor-wins aborts the receiver; requestor-aborts NACKs every
// transactional requestor (and aborts the receiver anyway if some
// requestor cannot abort, e.g. a non-transactional access).
func (c *Core) graceExpire() {
	c.graceArmed = false
	if c.committing {
		// Reached the commit point during the grace period: the
		// receiver has won; parked requests are served at commit.
		return
	}
	if c.gracePolicy == ccore.RequestorWins {
		c.doAbort()
		return
	}
	for _, p := range c.pending {
		if !p.req.reqTx {
			// Cannot NACK a non-transactional requestor; fall back
			// to aborting the receiver, which serves everyone.
			c.doAbort()
			return
		}
	}
	for _, p := range c.pending {
		if p.isFetch {
			c.m.count(ctCoreOwnerNack)
			c.toDir(evOwnerNack).req = p.req
		} else {
			c.nackInv(p.req)
		}
	}
	c.pending = c.pending[:0]
}

// finishCommit completes the transaction: committed speculative data
// is written back to the directory (keeping ownership), tx bits are
// cleared, parked requests are served with the committed values.
func (c *Core) finishCommit() {
	c.commits++
	if c.graceArmed || len(c.pending) > 0 {
		c.graceCommits++
	}
	c.m.profileUpdate(float64(c.m.K.Now() - c.txStart))
	c.L1.ForEachTx(func(l *cache.Line) {
		if l.TxDirty {
			c.m.count(ctCoreCommitData)
			mg := c.toDir(evCommitData)
			mg.la, mg.data = l.Tag, l.Data
		}
	})
	c.L1.ClearTxBits()
	c.txActive = false
	c.committing = false
	c.graceArmed = false
	c.epoch++
	c.servePending(true)
	c.timer(c.think, evNextTx)
}

// doAbort aborts the running transaction: speculative lines are
// dropped (the directory copy is the committed value), parked
// requests are released, and the transaction restarts after the
// cleanup penalty — immediately, or once the in-flight request
// returns.
func (c *Core) doAbort() {
	if !c.txActive {
		return
	}
	c.aborts++
	c.m.count(ctCoreAbort)
	c.txActive = false
	c.committing = false
	c.epoch++
	c.graceArmed = false
	c.attempts++
	// Notify the directory about dropped Modified lines so ownership
	// does not dangle (Shared drops stay silent; the sharer mask is a
	// conservative superset).
	c.L1.ForEachTx(func(l *cache.Line) {
		if l.State == cache.Modified {
			c.m.count(ctCoreDropOwned)
			c.toDir(evDropOwned).la = l.Tag
		}
	})
	c.L1.DropTxLines()
	c.servePending(false)
	if c.inflight {
		c.restartPending = true
		return
	}
	c.scheduleRestart()
}

// scheduleRestart re-launches an aborted transaction after the
// cleanup penalty plus a randomized exponential backoff. The
// randomization de-convoys the restart herd: without it, an
// all-readers-upgrade pattern (shared stack top) livelocks, every
// winner being shot by the lockstep-restarting losers.
func (c *Core) scheduleRestart() {
	if c.m.stopping {
		return
	}
	delay := c.m.P.AbortPenalty
	if base := c.m.P.RestartBackoffBase; base > 0 {
		shift := c.attempts
		if shift > 10 {
			shift = 10
		}
		limit := base << uint(shift)
		if max := c.m.P.MaxRestartBackoff; max > 0 && limit > max {
			limit = max
		}
		delay += sim.Time(c.rng.Uint64n(uint64(limit)))
	}
	c.timer(delay, evBeginTx)
}

// servePending releases parked requests after commit (with data) or
// abort (with OwnerMiss, since the lines were dropped).
func (c *Core) servePending(committed bool) {
	for _, p := range c.pending {
		req := p.req
		if p.isFetch {
			line := c.L1.Peek(req.la)
			if committed && line != nil && line.State == cache.Modified {
				c.serveFetch(req, line)
			} else {
				c.toDir(evOwnerMiss).req = req
			}
		} else {
			if committed {
				c.L1.Invalidate(req.la)
			}
			c.ackInv(req)
		}
	}
	c.pending = c.pending[:0]
}
