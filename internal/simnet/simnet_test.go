package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestZeroFaultTransparency is the property-based byte-transparency
// check: with a zero profile, random payloads written through simnet in
// random chunkings must come out byte-identical and in order, exactly
// like net.Pipe — 500 seeded cases (run under -race in CI).
func TestZeroFaultTransparency(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(seed)
		c1, c2 := n.Pipe("t")

		payload := make([]byte, 1+rng.Intn(8192))
		rng.Read(payload)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c1.Close()
			rest := payload
			for len(rest) > 0 {
				k := 1 + rng.Intn(len(rest))
				if _, err := c1.Write(rest[:k]); err != nil {
					t.Errorf("seed %d: write: %v", seed, err)
					return
				}
				rest = rest[k:]
			}
		}()

		got, err := io.ReadAll(c2)
		wg.Wait()
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("seed %d: corrupted transparent transfer (%d bytes in, %d out)", seed, len(payload), len(got))
		}
	}
}

// TestPipeEquivalence drives simnet and net.Pipe through the same
// scripted exchange and compares what each side reads.
func TestPipeEquivalence(t *testing.T) {
	exchange := func(a, b net.Conn) []byte {
		go func() {
			for _, msg := range []string{"open", "keepalive", "update-1", "update-2"} {
				if _, err := a.Write([]byte(msg)); err != nil {
					return
				}
			}
			a.Close()
		}()
		out, _ := io.ReadAll(b)
		return out
	}
	p1, p2 := net.Pipe()
	want := exchange(p1, p2)
	n := New(7)
	s1, s2 := n.Pipe("x")
	got := exchange(s1, s2)
	if !bytes.Equal(got, want) {
		t.Fatalf("simnet read %q, net.Pipe read %q", got, want)
	}
}

// TestDeadlineTimeout checks the net.Error/Timeout contract that the BGP
// hold timer depends on.
func TestDeadlineTimeout(t *testing.T) {
	n := New(1)
	_, c2 := n.Pipe("t")
	if err := c2.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := c2.Read(make([]byte, 1))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want net.Error timeout, got %v", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want os.ErrDeadlineExceeded, got %v", err)
	}
	// Clearing the deadline unblocks future reads.
	if err := c2.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c2.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("after close want EOF, got %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c1, _ := n.Pipe("u") // unrelated pair must not interfere
	_ = c1
	_, cPeer := n.Pipe("t2")
	_ = cPeer
	// Close the writer side: the blocked read must see EOF.
	pairs := n.pairsWithTag("t")
	pairs[0].Close()
	<-done
}

// TestReset aborts both ends mid-stream.
func TestReset(t *testing.T) {
	n := New(3)
	c1, c2 := n.Pipe("r")
	if _, err := c1.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := c2.Read(buf); err != nil {
				readErr <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if hit := n.Reset("r"); hit != 1 {
		t.Fatalf("Reset hit %d pairs, want 1", hit)
	}
	if err := <-readErr; !errors.Is(err, ErrReset) {
		t.Fatalf("reader got %v, want ErrReset", err)
	}
	if _, err := c1.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("writer got %v, want ErrReset", err)
	}
}

// TestPartitionBlackholesSilently: during a partition writes succeed but
// deliver nothing, and new dials fail; after heal traffic flows again.
func TestPartitionBlackholes(t *testing.T) {
	n := New(4)
	ln, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()
	c, err := n.Dial("srv", "cl")
	if err != nil {
		t.Fatal(err)
	}
	n.PartitionAll()
	if _, err := c.Write([]byte("vanishes")); err != nil {
		t.Fatalf("partitioned write must succeed silently, got %v", err)
	}
	if _, err := n.Dial("srv", "cl2"); err == nil {
		t.Fatal("dial during partition must fail")
	}
	n.HealAll()
	if _, err := n.Dial("srv", "cl2"); err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	srv2, cl2 := n.Pipe("p")
	if _, err := cl2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(srv2, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("post-heal read %q, %v", buf, err)
	}
	ln.Close()
}

// TestStallDelaysDelivery: a stalled pair delivers nothing until the
// window passes, then everything.
func TestStallDelaysDelivery(t *testing.T) {
	n := New(5)
	c1, c2 := n.Pipe("s")
	n.Stall("s", 80*time.Millisecond)
	start := time.Now()
	if _, err := c1.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c2, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("stalled delivery took only %v", d)
	}
}

// TestCorruptionTaints: corruption flips bytes and marks the pair.
func TestCorruptionTaints(t *testing.T) {
	n := New(6)
	c1, c2 := n.Pipe("c")
	n.SetCorrupt("c", 64)
	payload := make([]byte, 4096)
	if _, err := c1.Write(payload); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	got, err := io.ReadAll(c2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("4KiB at mean-64 corruption came through clean")
	}
	sc := c1.(*Conn)
	if !sc.Tainted() {
		t.Fatal("corrupted pair not tainted")
	}
	if hit := n.ResetTainted(); hit != 1 {
		t.Fatalf("ResetTainted hit %d, want 1", hit)
	}
}

// TestShortWriteContract: a truncated write returns n < len(b) with a
// non-nil error, per the io.Writer contract, and delivers the prefix.
func TestShortWriteContract(t *testing.T) {
	n := New(8, WithProfile(Profile{ShortWriteEvery: 1}))
	c1, c2 := n.Pipe("w")
	payload := []byte("0123456789")
	wrote, err := c1.Write(payload)
	if err == nil && wrote < len(payload) {
		t.Fatal("short write with nil error")
	}
	if wrote < 1 || wrote > len(payload) {
		t.Fatalf("wrote %d", wrote)
	}
	if err != nil && !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("got %v, want io.ErrShortWrite", err)
	}
	c1.Close()
	got, _ := io.ReadAll(c2)
	if !bytes.Equal(got, payload[:wrote]) {
		t.Fatalf("delivered %q, want accepted prefix %q", got, payload[:wrote])
	}
}

// TestScheduleDeterminism replays the identical single-threaded workload
// on two networks with the same seed and a fault-heavy profile: the
// recorded traces and delivered bytes must match exactly.
func TestScheduleDeterminism(t *testing.T) {
	run := func(seed int64) ([]string, []byte) {
		n := New(seed, WithProfile(Profile{
			CorruptEvery:    200,
			ShortReadEvery:  3,
			ShortWriteEvery: 4,
			DropEvery:       5,
		}))
		c1, c2 := n.Pipe("d")
		wrng := rand.New(rand.NewSource(99))
		var delivered []byte
		buf := make([]byte, 512)
		for i := 0; i < 64; i++ {
			chunkLen := 1 + wrng.Intn(256)
			chunk := make([]byte, chunkLen)
			wrng.Read(chunk)
			rest := chunk
			for len(rest) > 0 {
				k, err := c1.Write(rest)
				if err != nil && !errors.Is(err, io.ErrShortWrite) {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			// Drain synchronously so read ops interleave deterministically:
			// with zero latency every byte the pipe did not drop is due at
			// once, so read until none is left instead of racing a
			// wall-clock deadline.
			for buffered(c2.(*Conn)) > 0 {
				k, err := c2.Read(buf)
				if err != nil {
					t.Fatal(err)
				}
				delivered = append(delivered, buf[:k]...)
			}
		}
		return n.Trace(), delivered
	}
	t1, b1 := run(42)
	t2, b2 := run(42)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed, different traces:\n%v\nvs\n%v", t1, t2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed, different delivered bytes")
	}
	if len(t1) == 0 {
		t.Fatal("fault-heavy profile recorded no events")
	}
	t3, _ := run(43)
	if reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical traces")
	}
}

// buffered returns how many written bytes c has yet to read.
func buffered(c *Conn) int {
	c.rd.mu.Lock()
	defer c.rd.mu.Unlock()
	n := 0
	for _, ck := range c.rd.buf {
		n += len(ck.data)
	}
	return n
}

// TestScriptDeterminism: the generated chaos schedule is a pure function
// of the seed and always includes the four required fault kinds — plus a
// directed partition whenever a target names its peer endpoint.
func TestScriptDeterminism(t *testing.T) {
	targets := []Target{
		{Tag: "rtr100", Peer: "rs"}, {Tag: "rtr200", Peer: "rs"},
		{Tag: "rtr300", Peer: "rs"}, {Tag: "ofctl", Peer: "switch"},
	}
	for _, seed := range []int64{1, 11, 23, 42, 1000} {
		a := GenScript(seed, targets)
		b := GenScript(seed, targets)
		if !reflect.DeepEqual(a.Trace(), b.Trace()) {
			t.Fatalf("seed %d: non-deterministic script", seed)
		}
		if got := len(a.Kinds()); got < 5 {
			t.Fatalf("seed %d: only %d fault kinds: %v", seed, got, a)
		}
		sawDir := false
		for _, st := range a.Steps {
			if st.Kind == StepStall && st.Dur <= time.Second {
				t.Fatalf("seed %d: stall %v not above the 1s hold floor", seed, st.Dur)
			}
			if st.Kind == StepPartitionDir {
				sawDir = true
				if st.Dur <= time.Second {
					t.Fatalf("seed %d: directed partition %v not above the 1s hold floor", seed, st.Dur)
				}
				if st.Tag == "" || st.To == "" {
					t.Fatalf("seed %d: directed partition missing endpoints: %v", seed, st)
				}
			}
		}
		if !sawDir {
			t.Fatalf("seed %d: no directed partition despite directed-capable targets:\n%v", seed, a)
		}
	}
	if reflect.DeepEqual(GenScript(1, targets).Trace(), GenScript(2, targets).Trace()) {
		t.Fatal("different seeds produced identical scripts")
	}
	// Tag-only targets keep the symmetric four-kind vocabulary.
	bare := GenScript(3, Targets("a", "b"))
	for _, st := range bare.Steps {
		if st.Kind == StepPartitionDir || st.Kind == StepHealDir {
			t.Fatalf("directed step generated without any Peer endpoint: %v", st)
		}
	}
	if got := len(bare.Kinds()); got < 4 {
		t.Fatalf("tag-only script has only %d fault kinds", got)
	}
}

// TestLatency: a profile's latency delays delivery by at least that long
// in wall time; the upper bound only catches a lost wake-up.
func TestLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	n := New(9, WithProfile(Profile{Latency: latency}))
	c1, c2 := n.Pipe("l")
	start := time.Now()
	if _, err := c1.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c2, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < latency || d > 2*time.Second {
		t.Fatalf("%v profile latency took %v", latency, d)
	}
}

// TestListenerLifecycle: accept blocks, dial connects, close unblocks.
func TestListenerLifecycle(t *testing.T) {
	n := New(10)
	ln, err := n.Listen("ep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("ep"); err == nil {
		t.Fatal("duplicate listen must fail")
	}
	got := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(got)
			return
		}
		got <- c
	}()
	cl, err := n.Dial("ep", "c")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-got
	if srv == nil {
		t.Fatal("accept failed")
	}
	if _, err := cl.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(srv, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("%q %v", buf, err)
	}
	ln.Close()
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept after close must fail")
	}
	if _, err := n.Dial("ep", "c"); err == nil {
		t.Fatal("dial after listener close must fail")
	}
}
