package core

import (
	"errors"
	"sync"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/rs"
	"sdx/internal/telemetry"
)

// ErrQueueClosed is returned by UpdateQueue.Enqueue after Stop.
var ErrQueueClosed = errors.New("core: update queue closed")

// QueueConfig tunes an UpdateQueue. The zero value selects the default.
type QueueConfig struct {
	// MaxPending bounds the coalesced pending set. Enqueue of a NEW
	// (peer, prefix) entry blocks while the set is full — backpressure
	// toward the BGP sessions; re-coalescing onto an existing entry never
	// blocks, so a hot prefix cannot wedge its own feed. Default 65536.
	MaxPending int
}

// updateKey identifies one coalescing slot: the route server's end state
// depends only on the LAST update applied per (prefix, advertising peer),
// so a burst of updates for the same key collapses to its final action.
type updateKey struct {
	peer   uint32
	prefix iputil.Prefix
}

// pendingUpdate is the coalesced latest action for one key: an
// announcement (attrs != nil) or a withdrawal. The timer started at
// FIRST enqueue survives coalescing, so the install-latency histogram
// records the worst-case age of the information in each entry, not the
// age of its most recent rewrite.
type pendingUpdate struct {
	attrs *bgp.PathAttrs
	timer telemetry.Timer
}

// QueueStats is a point-in-time snapshot of an UpdateQueue.
type QueueStats struct {
	Depth     int   // coalesced entries currently pending
	Enqueued  int64 // per-prefix actions offered
	Coalesced int64 // actions absorbed into an existing entry
	Drains    int64 // drain cycles run
	Applied   int64 // coalesced entries applied to the controller
}

// UpdateQueue is the bounded, coalescing ingestion queue in front of a
// Controller (the tentpole's "batch + coalesce" stage): BGP sessions
// enqueue updates as they arrive, a single drainer goroutine applies the
// coalesced pending set through one ApplyBatch call per cycle, and a
// full queue pushes back on the enqueuers. Repeated updates to the same
// (peer, prefix) collapse into one dirty-set entry, so a flapping prefix
// costs one decision + one fast compile per drain cycle no matter how
// fast it flaps.
//
// One rule starts a drain: the pending set is non-empty and no drain is
// running. An update that reaches an idle queue is applied at once;
// updates that arrive while a drain runs coalesce into the next one, so
// a batch is only as large as the backlog one drain leaves behind. No
// clock is involved.
//
// Ordering: entries drain in first-enqueue order, and a batch's effect is
// identical to applying its entries one at a time (ApplyBatch contract);
// coalescing is sound because the RIB end state per (prefix, peer) is
// the last action anyway.
//
// Telemetry (under the controller's registry):
//
//	ingest.queue_depth     gauge     coalesced entries pending
//	ingest.enqueued        counter   per-prefix actions offered
//	ingest.coalesced       counter   actions absorbed into existing entries
//	ingest.drains          counter   drain cycles
//	ingest.batch_size      histogram coalesced entries per drain
//	ingest.install_ns      histogram first-enqueue → rules-installed latency
//	ingest.blocked         counter   Enqueue calls that hit backpressure
type UpdateQueue struct {
	ctrl       *Controller
	maxPending int

	mu      sync.Mutex
	work    *sync.Cond // wakes the drainer: entries, a released hold, Flush, Stop
	moved   *sync.Cond // broadcast on every swap and drain end, and on Stop
	pending map[updateKey]*pendingUpdate
	order   []updateKey // first-enqueue order, for deterministic drains
	closed  bool
	holds   int   // Hold calls not yet released
	flushTo int64 // drains Flush waits for; a hold does not defer these

	enqueued  int64
	coalesced int64
	drains    int64 // drain cycles started (batches swapped out)
	finished  int64 // drain cycles whose ApplyBatch returned
	applied   int64

	exited chan struct{} // closed when the drainer returns

	// testHookPreApply, when non-nil, runs on the drainer between the
	// batch swap and ApplyBatch — the window where entries exist only in
	// the drainer's hands. Tests use it to freeze a drain mid-cycle and
	// race Flush against Stop; production leaves it nil.
	testHookPreApply func()

	mEnqueued  *telemetry.Counter
	mCoalesced *telemetry.Counter
	mDrains    *telemetry.Counter
	mBatchSize *telemetry.Histogram
	mInstallNS *telemetry.Histogram
	mBlocked   *telemetry.Counter
}

// NewUpdateQueue builds and starts a queue in front of ctrl. Stop must be
// called to halt the drainer.
func NewUpdateQueue(ctrl *Controller, cfg QueueConfig) *UpdateQueue {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 65536
	}
	q := &UpdateQueue{
		ctrl:       ctrl,
		maxPending: cfg.MaxPending,
		pending:    make(map[updateKey]*pendingUpdate),
		exited:     make(chan struct{}),
	}
	q.work = sync.NewCond(&q.mu)
	q.moved = sync.NewCond(&q.mu)
	reg := ctrl.Metrics()
	q.mEnqueued = reg.Counter("ingest.enqueued")
	q.mCoalesced = reg.Counter("ingest.coalesced")
	q.mDrains = reg.Counter("ingest.drains")
	q.mBatchSize = reg.Histogram("ingest.batch_size")
	q.mInstallNS = reg.Histogram("ingest.install_ns")
	q.mBlocked = reg.Counter("ingest.blocked")
	reg.RegisterGaugeFunc("ingest.queue_depth", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return int64(len(q.pending))
	})
	go q.drainLoop()
	return q
}

// Enqueue offers one UPDATE from peer `from` to the queue, splitting it
// into per-prefix actions and coalescing each onto any pending entry for
// the same (peer, prefix). It blocks while the pending set is full and
// the update would grow it (the backpressure contract), and returns
// ErrQueueClosed after Stop.
//
// Enqueue is all-or-nothing: admission is decided for the WHOLE update
// before anything is inserted, so an Enqueue woken by Stop rejects the
// update intact rather than leaving a prefix subset of it applied (the
// session would retransmit the full update on reconnect; a half-applied
// one would be silently wrong until then).
func (q *UpdateQueue) Enqueue(from uint32, u *bgp.Update) error {
	type action struct {
		k     updateKey
		attrs *bgp.PathAttrs
	}
	acts := make([]action, 0, len(u.Withdrawn)+len(u.NLRI))
	for _, p := range u.Withdrawn {
		acts = append(acts, action{k: updateKey{peer: from, prefix: p}})
	}
	for _, p := range u.NLRI {
		acts = append(acts, action{k: updateKey{peer: from, prefix: p}, attrs: u.Attrs})
	}
	if len(acts) == 0 {
		return nil
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	// Admission: wait until every new entry this update needs fits at
	// once. `need` is recomputed after each wakeup — a racing enqueuer
	// may have inserted some of our keys meanwhile, turning them into
	// coalesces that cost no slot. A full set is never idle: a drain is
	// running or due, and its swap wakes us.
	for {
		if q.closed {
			return ErrQueueClosed
		}
		need := 0
		seen := make(map[updateKey]struct{}, len(acts))
		for _, a := range acts {
			if _, ok := q.pending[a.k]; ok {
				continue
			}
			if _, dup := seen[a.k]; dup {
				continue
			}
			seen[a.k] = struct{}{}
			need++
		}
		if len(q.pending)+need <= q.maxPending {
			break
		}
		if need > q.maxPending && len(q.pending) == 0 {
			// An update larger than the whole bound can never satisfy
			// the normal condition; admit it against an empty set (one
			// transient overshoot) instead of deadlocking its session.
			break
		}
		q.mBlocked.Inc()
		//lint:ignore lockblock sync.Cond.Wait atomically releases q.mu while parked — this is the condition-variable idiom, not a blocking call under the lock
		q.moved.Wait()
	}
	for _, a := range acts {
		q.putLocked(a.k, a.attrs)
	}
	q.work.Signal()
	return nil
}

// putLocked coalesces one admitted action into the pending set. Caller
// holds q.mu and has already reserved capacity via Enqueue's admission
// loop.
func (q *UpdateQueue) putLocked(k updateKey, attrs *bgp.PathAttrs) {
	q.enqueued++
	q.mEnqueued.Inc()
	if e, ok := q.pending[k]; ok {
		// Coalesce: latest action wins, first-enqueue timer survives.
		e.attrs = attrs
		q.coalesced++
		q.mCoalesced.Inc()
		return
	}
	q.pending[k] = &pendingUpdate{attrs: attrs, timer: telemetry.StartTimer(q.mInstallNS)}
	q.order = append(q.order, k)
}

// drainLoop is the single drainer and the queue's only applier: it
// applies each batch nextBatch hands it, and exits once Stop has closed
// the queue and the last batch is applied.
func (q *UpdateQueue) drainLoop() {
	defer close(q.exited)
	for {
		pending, order := q.nextBatch()
		if order == nil {
			return
		}
		q.apply(pending, order)
	}
}

// nextBatch waits until a drain is due — entries pending, and either no
// hold, a Flush waiting on them, or the queue closed — then swaps the
// pending set out, so enqueuers fill the next batch while the controller
// chews on this one. It returns a nil order once the queue is closed and
// empty.
func (q *UpdateQueue) nextBatch() (map[updateKey]*pendingUpdate, []updateKey) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.pending) == 0 || (q.holds > 0 && !q.closed && q.drains >= q.flushTo) {
		if q.closed {
			return nil, nil
		}
		//lint:ignore lockblock sync.Cond.Wait atomically releases q.mu while parked — the drainer idles here, holding nothing
		q.work.Wait()
	}
	pending, order := q.pending, q.order
	q.pending = make(map[updateKey]*pendingUpdate)
	q.order = nil
	q.drains++
	q.moved.Broadcast()
	return pending, order
}

// apply installs one swapped batch. Until ApplyBatch returns, the
// entries exist only in this frame: gone from q.pending but not yet in
// the route server. Flush waits on `finished`, not on an empty pending
// set, and Stop waits for the drainer to exit, so neither can return
// inside that window. TestQueueFlushStopRace pins this down.
func (q *UpdateQueue) apply(pending map[updateKey]*pendingUpdate, order []updateKey) {
	if q.testHookPreApply != nil {
		q.testHookPreApply()
	}
	batch := make([]rs.PeerUpdate, 0, len(order))
	for _, k := range order {
		e := pending[k]
		u := &bgp.Update{}
		if e.attrs == nil {
			u.Withdrawn = []iputil.Prefix{k.prefix}
		} else {
			u.Attrs = e.attrs
			u.NLRI = []iputil.Prefix{k.prefix}
		}
		batch = append(batch, rs.PeerUpdate{From: k.peer, Update: u})
	}
	q.ctrl.ApplyBatch(batch...)
	// Rules for the whole batch are installed; close out every entry's
	// first-enqueue timer so install_ns records worst-case latency.
	for _, k := range order {
		pending[k].timer.Stop()
	}
	q.mDrains.Inc()
	q.mBatchSize.Observe(int64(len(order)))

	q.mu.Lock()
	q.applied += int64(len(order))
	q.finished++
	q.moved.Broadcast()
	q.mu.Unlock()
}

// Flush returns once every entry enqueued before the call has been
// applied. It waits for the drain that takes the current pending set,
// not for an empty queue, so it returns under continuous load from other
// enqueuers. The drainer does the work; Flush overrides a Hold.
func (q *UpdateQueue) Flush() {
	q.mu.Lock()
	defer q.mu.Unlock()
	target := q.drains // a drain in flight holds entries enqueued before us
	if len(q.pending) > 0 {
		target++
		q.flushTo = max(q.flushTo, target)
		q.work.Signal()
	}
	for q.finished < target {
		//lint:ignore lockblock sync.Cond.Wait atomically releases q.mu while parked — Flush waits for the drainer, holding nothing
		q.moved.Wait()
	}
}

// Hold stops the drainer from starting drains on its own until release
// is called (once); Flush and Stop still drain. Tests use it to make
// coalescing maximal and drain counts exact. Production never calls it:
// an unreleased hold turns the queue into one that drains only on Flush.
func (q *UpdateQueue) Hold() (release func()) {
	q.mu.Lock()
	q.holds++
	q.mu.Unlock()
	return func() {
		q.mu.Lock()
		q.holds--
		q.work.Signal()
		q.mu.Unlock()
	}
}

// Stop applies whatever is pending (a hold notwithstanding), halts the
// drainer and releases any blocked enqueuers; Enqueue fails with
// ErrQueueClosed afterwards. A batch the drainer had already swapped out
// is applied before Stop returns — entries are never lost or
// double-applied across a Flush/Stop seam. Idempotent and safe to call
// concurrently: every call returns once the drainer has exited.
func (q *UpdateQueue) Stop() {
	q.mu.Lock()
	q.closed = true
	q.work.Signal()
	q.moved.Broadcast()
	q.mu.Unlock()
	<-q.exited
}

// Stats returns a snapshot of the queue's counters.
func (q *UpdateQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth:     len(q.pending),
		Enqueued:  q.enqueued,
		Coalesced: q.coalesced,
		Drains:    q.drains,
		Applied:   q.applied,
	}
}
