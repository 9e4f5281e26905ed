package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// EventType identifies one kind of traced control-plane event.
type EventType uint8

// The typed events the SDX runtime emits.
const (
	// EventBGPUpdateReceived: one BGP UPDATE entered the controller's
	// update pipeline. AS = sender, Value = NLRI + withdrawn prefixes.
	EventBGPUpdateReceived EventType = iota
	// EventFECChanged: a prefix's forwarding-equivalence-class membership
	// or virtual next hop changed. Detail = prefix.
	EventFECChanged
	// EventCompileStarted: a full recompilation began. Detail = "full".
	EventCompileStarted
	// EventCompileDone: a full recompilation finished. Value = installed
	// rules.
	EventCompileDone
	// EventRuleInstalled: a batch of flow rules was pushed to the fabric.
	// Value = entry count, Detail = band ("fast", "band1", "band2").
	EventRuleInstalled
	// EventARPReply: the controller's responder answered an ARP request.
	// Detail = resolved IP.
	EventARPReply
	// EventSessionStateChange: a BGP session changed state. AS = peer,
	// Detail = new state ("established", "down: <cause>").
	EventSessionStateChange

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	EventBGPUpdateReceived:  "BGPUpdateReceived",
	EventFECChanged:         "FECChanged",
	EventCompileStarted:     "CompileStarted",
	EventCompileDone:        "CompileDone",
	EventRuleInstalled:      "RuleInstalled",
	EventARPReply:           "ARPReply",
	EventSessionStateChange: "SessionStateChange",
}

// String returns the event type's name.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "Unknown"
}

// MarshalJSON renders the type as its name.
func (t EventType) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON parses an event type from its name.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventTypeNames {
		if name == s {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event type %q", s)
}

// Event is one traced control-plane event.
type Event struct {
	Seq    uint64    `json:"seq"` // global emission order, starting at 1
	Time   time.Time `json:"time"`
	Type   EventType `json:"type"`
	AS     uint32    `json:"as,omitempty"`     // participant, when relevant
	Detail string    `json:"detail,omitempty"` // prefix, state, band, cause
	Value  int64     `json:"value,omitempty"`  // rule/prefix counts, sizes
}

// Tracer records events into a bounded ring buffer: the most recent
// `capacity` events are retained, older ones are dropped, and per-type
// totals keep counting regardless — so invariants like "updates in ==
// updates traced" hold against the totals even after the ring wraps.
// Tracer is safe for concurrent use; Emit on a nil tracer is a no-op.
type Tracer struct {
	counts [numEventTypes]atomic.Uint64

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events emitted == next Seq - 1
}

// DefaultTraceCapacity is the ring size NewTracer uses for capacity <= 0.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer retaining the most recent `capacity` events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends an event, stamping its sequence number and time.
func (t *Tracer) Emit(typ EventType, as uint32, detail string, value int64) {
	if t == nil {
		return
	}
	if typ < numEventTypes {
		t.counts[typ].Add(1)
	}
	now := time.Now()
	t.mu.Lock()
	t.next++
	e := Event{Seq: t.next, Time: now, Type: typ, AS: as, Detail: detail, Value: value}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[int((t.next-1)%uint64(cap(t.buf)))] = e
	}
	t.mu.Unlock()
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	// Full ring: the oldest retained event sits just after the newest.
	head := int(t.next % uint64(cap(t.buf)))
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// Total returns the number of events ever emitted, including dropped.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// CountByType returns how many events of one type were ever emitted,
// including those no longer retained.
func (t *Tracer) CountByType(typ EventType) uint64 {
	if t == nil || typ >= numEventTypes {
		return 0
	}
	return t.counts[typ].Load()
}

// Dropped returns how many events aged out of the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - uint64(len(t.buf))
}

// WriteJSON writes the retained events as an indented JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Events())
}

// ServeHTTP serves the retained trace as JSON (the sdxd /trace endpoint).
func (t *Tracer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure means the client hung up mid-response.
	_ = t.WriteJSON(w)
}
