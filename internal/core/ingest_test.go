package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// ingestFixture builds a controller with n participants on ports 1..n.
func ingestFixture(t *testing.T, n int) *Controller {
	t.Helper()
	ctrl := NewController()
	for i := 0; i < n; i++ {
		cfg := ParticipantConfig{AS: 100 + uint32(i), Name: "p",
			Ports: []PhysicalPort{{ID: pkt.PortID(i + 1)}}}
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl
}

func pfxI(i int) iputil.Prefix {
	return iputil.MustParsePrefix(iputil.Addr(0x50_00_00_00|uint32(i)<<8).String() + "/24")
}

func announceU(as uint32, salt uint32, ps ...iputil.Prefix) *bgp.Update {
	return &bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{as, 900 + salt}, NextHop: iputil.Addr(as)},
		NLRI:  ps,
	}
}

// waitUntil spins (yielding, never sleeping) until cond holds, failing
// the test after a generous deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestQueueCoalescesToLastAction(t *testing.T) {
	ctrl := ingestFixture(t, 3)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	defer q.Stop()
	defer q.Hold()() // drain only on Flush

	p := pfxI(1)
	// 50 flaps of the same (peer, prefix) collapse to one entry whose
	// final action (announce with salt 49) wins.
	for i := 0; i < 50; i++ {
		if i%3 == 2 {
			if err := q.Enqueue(100, &bgp.Update{Withdrawn: []iputil.Prefix{p}}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := q.Enqueue(100, announceU(100, uint32(i), p)); err != nil {
			t.Fatal(err)
		}
	}
	st := q.Stats()
	if st.Depth != 1 {
		t.Fatalf("pending depth %d, want 1 (coalesced)", st.Depth)
	}
	if st.Coalesced != 49 {
		t.Fatalf("coalesced %d, want 49", st.Coalesced)
	}
	q.Flush()

	r, ok := ctrl.RouteServer().BestRoute(101, p)
	if !ok {
		t.Fatalf("no best route for %s after flush", p)
	}
	if r.Attrs.ASPath[1] != 900+49 {
		t.Fatalf("best path %v, want last announcement [100 949]", r.Attrs.ASPath)
	}
	if ctrl.RouteServer().UpdatesProcessed() != 1 {
		t.Fatalf("route server processed %d updates, want 1 coalesced",
			ctrl.RouteServer().UpdatesProcessed())
	}
	if st := q.Stats(); st.Applied != 1 || st.Drains != 1 {
		t.Fatalf("stats after flush: %+v", st)
	}
}

func TestQueueTrailingWithdrawWins(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	defer q.Stop()
	defer q.Hold()()

	p := pfxI(2)
	if err := q.Enqueue(100, announceU(100, 1, p)); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(100, &bgp.Update{Withdrawn: []iputil.Prefix{p}}); err != nil {
		t.Fatal(err)
	}
	q.Flush()
	if _, ok := ctrl.RouteServer().BestRoute(101, p); ok {
		t.Fatalf("route for %s survived trailing withdrawal", p)
	}
}

func TestQueueBackpressureBlocksAndReleases(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{MaxPending: 2})
	defer q.Stop()
	release := q.Hold()

	if err := q.Enqueue(100, announceU(100, 1, pfxI(10))); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(100, announceU(100, 1, pfxI(11))); err != nil {
		t.Fatal(err)
	}
	// Re-coalescing onto a full queue must NOT block.
	okc := make(chan struct{})
	go func() {
		_ = q.Enqueue(100, announceU(100, 2, pfxI(10)))
		close(okc)
	}()
	select {
	case <-okc:
	case <-time.After(5 * time.Second):
		t.Fatal("coalescing enqueue blocked on a full queue")
	}

	// A new entry must block until a drain frees capacity. Releasing
	// the hold lets the drainer take the full set, which admits it; no
	// Flush is needed.
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- q.Enqueue(100, announceU(100, 1, pfxI(12)))
	}()
	blocked := ctrl.Metrics().Counter("ingest.blocked")
	waitUntil(t, "the third entry to hit backpressure", func() bool { return blocked.Value() > 0 })
	select {
	case <-done:
		t.Fatal("new entry admitted into a full, held queue")
	default:
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked enqueue never released")
	}
	wg.Wait()
	q.Flush()
	if _, ok := ctrl.RouteServer().BestRoute(101, pfxI(12)); !ok {
		t.Fatal("entry enqueued under backpressure was lost")
	}
}

func TestQueueStopDrainsAndRejects(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	q.Hold() // Stop drains despite an unreleased hold
	p := pfxI(20)
	if err := q.Enqueue(100, announceU(100, 3, p)); err != nil {
		t.Fatal(err)
	}
	q.Stop()
	if _, ok := ctrl.RouteServer().BestRoute(101, p); !ok {
		t.Fatal("Stop dropped a pending entry instead of draining it")
	}
	if err := q.Enqueue(100, announceU(100, 4, pfxI(21))); err != ErrQueueClosed {
		t.Fatalf("Enqueue after Stop = %v, want ErrQueueClosed", err)
	}
}

// TestQueueIdleDrainWithoutFlush: an update that reaches an idle queue
// is applied by the drainer on its own — no Flush, no timer. The
// advertisement to the other participant is the proof of application.
func TestQueueIdleDrainWithoutFlush(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	defer q.Stop()
	ads := make(chan RouteAd, 1)
	unregister, err := ctrl.OnRoute(101, func(ad RouteAd) {
		select {
		case ads <- ad:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unregister()

	p := pfxI(30)
	if err := q.Enqueue(100, announceU(100, 1, p)); err != nil {
		t.Fatal(err)
	}
	select {
	case ad := <-ads:
		if ad.Prefix != p || ad.Withdraw {
			t.Fatalf("advertisement %+v, want an announcement of %s", ad, p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle queue never applied the update without a Flush")
	}
}

// TestQueueFlushUnderLoad: Flush waits for the entries enqueued before
// it, not for an empty queue, so it returns while another session keeps
// enqueueing fresh keys — the BGPServer flushes before PeerUp while
// other peers are still sending.
func TestQueueFlushUnderLoad(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	defer q.Stop()

	var sent atomic.Int64 // Enqueue calls that have returned
	stop := make(chan struct{})
	producer := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				producer <- nil
				return
			default:
			}
			if err := q.Enqueue(100, announceU(100, 1, pfxI(i%60000))); err != nil {
				producer <- err
				return
			}
			sent.Store(int64(i + 1))
		}
	}()
	waitUntil(t, "the producer to get going", func() bool { return sent.Load() >= 100 })

	for round := 0; round < 3; round++ {
		n := sent.Load()
		flushed := make(chan struct{})
		go func() { q.Flush(); close(flushed) }()
		select {
		case <-flushed:
		case <-time.After(10 * time.Second):
			t.Fatal("Flush did not return under continuous load")
		}
		for i := int64(0); i < min(n, 60000); i++ {
			if _, ok := ctrl.RouteServer().BestRoute(101, pfxI(int(i))); !ok {
				t.Fatalf("round %d: entry %d of %d enqueued before Flush not applied", round, i, n)
			}
		}
	}
	close(stop)
	if err := <-producer; err != nil {
		t.Fatal(err)
	}
}

func TestQueueTelemetryPublished(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	defer q.Stop()
	defer q.Hold()()
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(100, announceU(100, uint32(i), pfxI(40))); err != nil {
			t.Fatal(err)
		}
	}
	q.Flush()
	snap := ctrl.Metrics().Snapshot()
	c := snap.Counters
	if c["ingest.enqueued"] != 4 || c["ingest.coalesced"] != 3 || c["ingest.drains"] != 1 {
		t.Fatalf("ingest counters: %+v", c)
	}
	if h := snap.Histograms["ingest.install_ns"]; h.Count != 1 {
		t.Fatalf("ingest.install_ns count %d, want 1", h.Count)
	}
	if snap.Gauges["ingest.queue_depth"] != 0 {
		t.Fatalf("queue_depth gauge %d after flush, want 0", snap.Gauges["ingest.queue_depth"])
	}
}

// TestQueueFlushStopRace freezes the drain a Flush asked for — after
// the batch swap, before ApplyBatch, via the test seam — and races Stop
// against it. Neither may return before the swapped batch is applied,
// an entry enqueued during the stall must drain before Stop returns, and
// nothing is applied twice.
func TestQueueFlushStopRace(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	q.Hold()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q.testHookPreApply = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	if err := q.Enqueue(100, announceU(100, 1, pfxI(50))); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() { q.Flush(); close(flushed) }()
	<-entered // the drainer holds the swapped batch; pending is empty again

	// An entry arrives during the stalled drain, and Stop races the
	// in-flight Flush.
	if err := q.Enqueue(100, announceU(100, 1, pfxI(51))); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { q.Stop(); close(stopped) }()

	// Neither Stop nor Flush can complete while the drainer holds a
	// swapped, unapplied batch.
	select {
	case <-stopped:
		t.Fatal("Stop completed while a drain held a swapped, unapplied batch")
	case <-flushed:
		t.Fatal("Flush completed while a drain held a swapped, unapplied batch")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-flushed
	<-stopped

	for _, p := range []iputil.Prefix{pfxI(50), pfxI(51)} {
		if _, ok := ctrl.RouteServer().BestRoute(101, p); !ok {
			t.Fatalf("entry %s lost across the Flush/Stop race", p)
		}
	}
	if st := q.Stats(); st.Applied != 2 {
		t.Fatalf("applied %d entries, want 2 (each exactly once)", st.Applied)
	}
	if n := ctrl.RouteServer().UpdatesProcessed(); n != 2 {
		t.Fatalf("route server processed %d updates, want 2", n)
	}
}

// TestQueueEnqueueAtomicOnStop: an Enqueue blocked on backpressure must
// reject its WHOLE update when Stop closes the queue. Before the
// admission-loop fix, Enqueue inserted prefixes one at a time and could
// block between them — a racing Stop then applied a subset of the
// update and discarded the rest with an error.
func TestQueueEnqueueAtomicOnStop(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{MaxPending: 2})
	q.Hold()

	// Stall the drainer: a sacrificial entry's drain freezes in the
	// seam, so no further drain can free capacity.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q.testHookPreApply = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	if err := q.Enqueue(100, announceU(100, 1, pfxI(59))); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() { q.Flush(); close(flushed) }()
	<-entered

	// One of two slots taken: a two-prefix update does not fit whole.
	if err := q.Enqueue(100, announceU(100, 1, pfxI(60))); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Enqueue(100, announceU(100, 2, pfxI(62), pfxI(63))) }()

	blocked := ctrl.Metrics().Counter("ingest.blocked")
	waitUntil(t, "the two-prefix enqueue to hit backpressure", func() bool { return blocked.Value() > 0 })
	// The old code would have inserted pfxI(62) here (depth 2) before
	// blocking on pfxI(63); atomic admission inserts nothing.
	if st := q.Stats(); st.Depth != 1 {
		t.Fatalf("depth %d while blocked, want 1 (no partial insert)", st.Depth)
	}

	stopped := make(chan struct{})
	go func() { q.Stop(); close(stopped) }()
	if err := <-done; err != ErrQueueClosed {
		t.Fatalf("blocked Enqueue across Stop = %v, want ErrQueueClosed", err)
	}
	close(release)
	<-flushed
	<-stopped

	// The admitted entries drained; the rejected update left no trace.
	for _, p := range []iputil.Prefix{pfxI(59), pfxI(60)} {
		if _, ok := ctrl.RouteServer().BestRoute(101, p); !ok {
			t.Fatalf("admitted entry %s lost", p)
		}
	}
	for _, p := range []iputil.Prefix{pfxI(62), pfxI(63)} {
		if _, ok := ctrl.RouteServer().BestRoute(101, p); ok {
			t.Fatalf("prefix %s from a rejected update was applied", p)
		}
	}
}

// TestQueueStopIdempotent: Stop used to close(q.done) unconditionally,
// so a second call — e.g. a deferred Stop after an explicit shutdown
// path already ran — panicked on the closed channel.
func TestQueueStopIdempotent(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{})
	q.Hold()
	if err := q.Enqueue(100, announceU(100, 1, pfxI(70))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Stop()
		}()
	}
	wg.Wait()
	q.Stop() // and again after the dust settles
	if _, ok := ctrl.RouteServer().BestRoute(101, pfxI(70)); !ok {
		t.Fatal("concurrent Stops dropped the pending entry")
	}
	if err := q.Enqueue(100, announceU(100, 1, pfxI(71))); err != ErrQueueClosed {
		t.Fatalf("Enqueue after Stop = %v, want ErrQueueClosed", err)
	}
}

// TestQueueOversizedUpdateAdmitted: an update with more new prefixes
// than MaxPending can never satisfy the normal admission condition; it
// must be admitted against a drained queue (one transient overshoot)
// rather than deadlocking its session forever.
func TestQueueOversizedUpdateAdmitted(t *testing.T) {
	ctrl := ingestFixture(t, 2)
	q := NewUpdateQueue(ctrl, QueueConfig{MaxPending: 2})
	defer q.Stop()
	big := announceU(100, 1, pfxI(80), pfxI(81), pfxI(82), pfxI(83))
	done := make(chan error, 1)
	go func() { done <- q.Enqueue(100, big) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("oversized update deadlocked instead of being admitted")
	}
	q.Flush()
	for i := 80; i <= 83; i++ {
		if _, ok := ctrl.RouteServer().BestRoute(101, pfxI(i)); !ok {
			t.Fatalf("oversized-update prefix %s lost", pfxI(i))
		}
	}
}
