package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// StepKind enumerates scripted network control operations.
type StepKind uint8

// Script step kinds, in tie-break order.
const (
	StepReset StepKind = iota
	StepStall
	StepCorruptOn
	StepCorruptOff
	StepPartition
	StepHeal
	StepPartitionDir
	StepHealDir
)

func (k StepKind) String() string {
	switch k {
	case StepReset:
		return "reset"
	case StepStall:
		return "stall"
	case StepCorruptOn:
		return "corrupt-on"
	case StepCorruptOff:
		return "corrupt-off"
	case StepPartition:
		return "partition"
	case StepHeal:
		return "heal"
	case StepPartitionDir:
		return "partition-dir"
	case StepHealDir:
		return "heal-dir"
	}
	return fmt.Sprintf("step(%d)", uint8(k))
}

// Step is one scripted fault at an offset from script start.
type Step struct {
	At   time.Duration
	Kind StepKind
	Tag  string        // target connection tag; for directed partitions, the from endpoint; "" targets the whole network
	To   string        // directed partitions: the to endpoint
	Dur  time.Duration // stall window length
	Mean int64         // corrupt-on: mean bytes between bit flips
}

// String renders the step deterministically.
func (s Step) String() string {
	out := fmt.Sprintf("t=%s %s", s.At, s.Kind)
	if s.Tag != "" {
		out += " tag=" + s.Tag
	}
	if s.To != "" {
		out += " to=" + s.To
	}
	if s.Dur > 0 {
		out += fmt.Sprintf(" dur=%s", s.Dur)
	}
	if s.Mean > 0 {
		out += fmt.Sprintf(" mean=%d", s.Mean)
	}
	return out
}

// Script is a deterministic fault schedule: the same seed always yields
// the same steps, which is the reproducibility contract the chaos harness
// asserts (and prints on failure, so any soak failure is one `-seed` away
// from a local repro).
type Script struct {
	Seed  int64
	Steps []Step
}

// Trace renders the schedule, one line per step.
func (s *Script) Trace() []string {
	out := make([]string, len(s.Steps))
	for i, st := range s.Steps {
		out[i] = st.String()
	}
	return out
}

// String renders the whole schedule.
func (s *Script) String() string {
	return fmt.Sprintf("script seed=%d\n  %s", s.Seed, strings.Join(s.Trace(), "\n  "))
}

// Run applies the schedule to a network, sleeping each step's offset in
// wall time. It returns early if ctx is cancelled.
func (s *Script) Run(ctx context.Context, n *Network) error {
	start := time.Now()
	for _, st := range s.Steps {
		wait := st.At - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			t.Stop()
		}
		switch st.Kind {
		case StepReset:
			n.Reset(st.Tag)
		case StepStall:
			n.Stall(st.Tag, st.Dur)
		case StepCorruptOn:
			n.SetCorrupt(st.Tag, st.Mean)
		case StepCorruptOff:
			n.SetCorrupt(st.Tag, 0)
		case StepPartition:
			n.PartitionAll()
		case StepHeal:
			n.HealAll()
		case StepPartitionDir:
			n.PartitionDir(st.Tag, st.To)
		case StepHealDir:
			n.HealDir(st.Tag, st.To)
		}
	}
	return nil
}

// Kinds returns the distinct fault kinds the script injects (corrupt-off
// and heal count with their opening step).
func (s *Script) Kinds() []StepKind {
	seen := map[StepKind]bool{}
	var out []StepKind
	for _, st := range s.Steps {
		k := st.Kind
		if k == StepCorruptOff {
			k = StepCorruptOn
		}
		if k == StepHeal {
			k = StepPartition
		}
		if k == StepHealDir {
			k = StepPartitionDir
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Target names one faultable session for GenScript: the connection tag
// the client dials with, and the endpoint name it dials (the listener
// name, or tag+"-peer" for Pipe pairs). Peer may be empty, which
// excludes the target from directed-partition steps.
type Target struct {
	Tag  string
	Peer string
}

// Targets builds a directed-fault-free target list from bare tags,
// for callers that only want the symmetric fault vocabulary.
func Targets(tags ...string) []Target {
	out := make([]Target, len(tags))
	for i, t := range tags {
		out[i] = Target{Tag: t}
	}
	return out
}

// GenScript derives a chaos schedule from a seed over the given targets.
// Every schedule injects at least four distinct fault kinds — a
// mid-stream reset, a corruption window, a delivery stall and a global
// partition — with seed-chosen targets, offsets and window lengths; when
// any target names its peer endpoint, the schedule also always includes
// a directed partition (one direction blackholed, seed-chosen) so
// half-open sessions are exercised. The stall and partition windows
// always exceed one second so that at least one established session's
// hold timer (floor 1s on the wire) expires.
func GenScript(seed int64, targets []Target) *Script {
	if len(targets) == 0 {
		panic("simnet: GenScript needs at least one target")
	}
	rng := rand.New(rand.NewSource(mix(seed, 0x5eed, 2)))
	pick := func() string { return targets[rng.Intn(len(targets))].Tag }
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo)) * time.Millisecond
	}
	var directed []Target
	for _, t := range targets {
		if t.Peer != "" {
			directed = append(directed, t)
		}
	}

	steps := []Step{
		{At: ms(50, 150), Kind: StepReset, Tag: pick()},
		{At: ms(200, 300), Kind: StepCorruptOn, Tag: pick(), Dur: ms(300, 500), Mean: 120 + rng.Int63n(160)},
		{At: ms(350, 450), Kind: StepStall, Tag: pick(), Dur: ms(1300, 1600)},
	}
	if len(directed) > 0 {
		t := directed[rng.Intn(len(directed))]
		from, to := t.Tag, t.Peer
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		steps = append(steps, Step{At: ms(400, 550), Kind: StepPartitionDir, Tag: from, To: to, Dur: ms(1300, 1600)})
	}
	steps = append(steps, Step{At: ms(550, 650), Kind: StepPartition, Dur: ms(1400, 1700)})
	if rng.Intn(2) == 0 {
		steps = append(steps, Step{At: ms(350, 500), Kind: StepReset, Tag: pick()})
	}

	// Materialize the closing edge of every window.
	var closers []Step
	for _, st := range steps {
		switch st.Kind {
		case StepCorruptOn:
			closers = append(closers, Step{At: st.At + st.Dur, Kind: StepCorruptOff, Tag: st.Tag})
		case StepPartition:
			closers = append(closers, Step{At: st.At + st.Dur, Kind: StepHeal})
		case StepPartitionDir:
			closers = append(closers, Step{At: st.At + st.Dur, Kind: StepHealDir, Tag: st.Tag, To: st.To})
		}
	}
	steps = append(steps, closers...)
	sort.SliceStable(steps, func(i, j int) bool {
		a, b := steps[i], steps[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.To < b.To
	})
	return &Script{Seed: seed, Steps: steps}
}

// End returns the offset of the script's last step.
func (s *Script) End() time.Duration {
	var end time.Duration
	for _, st := range s.Steps {
		if st.At > end {
			end = st.At
		}
	}
	return end
}
