// Package compiletest is the differential-testing harness for the SDX
// two-stage compiler: it builds identical synthesized IXP workloads,
// drives controllers built from them through compilations, BGP update
// bursts and CompileFast incremental state, and compares what they
// produce — canonical classifier dumps, rule streams pushed to the
// fabric, and forwarding outcomes.
package compiletest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/rs"
	"sdx/internal/verify"
	"sdx/internal/workload"
)

// Workload parameterizes one synthesized IXP instance. Two instances
// built from equal Workload values are identical in every observable:
// topology, announcements, and policy mix.
type Workload struct {
	Participants int
	Prefixes     int
	Seed         int64
	// WithPolicies installs the §6.1 policy mix (seeded from Seed).
	WithPolicies bool
}

// CorpusSize is the number of cases in the standard differential corpus.
const CorpusSize = 200

// CorpusWorkload returns case i of the standard corpus: the workload
// parameters plus the number of BGP update bursts replayed after the
// initial compile. The differential suite and `sdx-lint -tables` both
// iterate this function, so "the corpus is conflict-free" means the same
// workloads in both places.
func CorpusWorkload(i int) (w Workload, bursts int) {
	r := rand.New(rand.NewSource(int64(i)*7919 + 13))
	w = Workload{
		Participants: 3 + r.Intn(22),
		Prefixes:     40 + r.Intn(201),
		Seed:         int64(i)*31 + 5,
		// Every fifth case runs with route-server state only, so the
		// default-forwarding band is exercised without the policy mix.
		WithPolicies: i%5 != 0,
	}
	return w, r.Intn(13)
}

// Instance is one built workload: a loaded controller plus the topology
// it came from and a recorder capturing every rule pushed to the fabric.
type Instance struct {
	Ctrl  *core.Controller
	IXP   *workload.IXP
	Rules *RecordingSink
}

// Build synthesizes the topology, loads it into a fresh controller,
// installs the policy mix, and attaches a rule recorder. It does not
// compile; call Recompile (or Compile below) on the controller.
//
// workload.Load consumes the topology's seeded RNG, so building two
// instances from the same Workload — rather than reusing one IXP —
// is what keeps a differential pair bit-identical.
func Build(w Workload) (*Instance, error) {
	x := workload.NewIXP(workload.DefaultTopology(w.Participants, w.Prefixes, w.Seed))
	ctrl, err := workload.Load(x)
	if err != nil {
		return nil, err
	}
	if w.WithPolicies {
		pol := workload.AssignPolicies(x, workload.DefaultPolicyMix(w.Seed+1))
		if err := workload.InstallPolicies(ctrl, pol); err != nil {
			return nil, err
		}
	}
	in := &Instance{Ctrl: ctrl, IXP: x, Rules: &RecordingSink{}}
	ctrl.AddRuleMirror(in.Rules)
	return in, nil
}

// Compile runs a full recompilation and returns the canonical form of the
// result.
func (in *Instance) Compile() string {
	in.Ctrl.Recompile()
	return in.Ctrl.Compiled().Canonical()
}

// VerifyTables runs the semantic checker (internal/verify) over the
// controller's installed flow table and, when a full compilation exists,
// over the rendered classifier bands, returning an error on any
// equal-priority conflict or shadowed rule. The differential suite calls
// it after every compile and burst replay, so each workload is proven
// conflict-free in addition to deterministic.
func (in *Instance) VerifyTables() error {
	rep := verify.Table(in.Ctrl.Switch().Table())
	if c := in.Ctrl.Compiled(); c != nil {
		bands := verify.Compiled(c)
		rep.Rules += bands.Rules
		rep.Findings = append(rep.Findings, bands.Findings...)
	}
	return rep.Err()
}

// Trace synthesizes a deterministic BGP update trace for this instance's
// topology. Two instances with equal workloads yield identical traces.
func (in *Instance) Trace(updates int, seed int64) *workload.Trace {
	return workload.GenerateTrace(in.IXP, workload.DefaultTrace(updates, seed))
}

// Replay feeds trace events through the controller's incremental path
// (route server + CompileFast) one update at a time — the serial
// reference the batched and coalesced paths are checked against.
func (in *Instance) Replay(tr *workload.Trace) int {
	rules := 0
	for _, e := range tr.Events {
		res := in.Ctrl.ApplyBatch(rs.PeerUpdate{From: e.Peer, Update: e.Update})
		rules += res.AdditionalRules
	}
	return rules
}

// ReplayCoalesced feeds the same trace through a bounded coalescing
// UpdateQueue instead: every event is enqueued (repeated updates to one
// (peer, prefix) collapse to their final action) and Stop applies the
// coalesced set as one ApplyBatch pass. The queue is held and sized so
// no drain fires before Stop, making the coalescing maximal — the
// hardest case for the serial-equivalence property.
func (in *Instance) ReplayCoalesced(tr *workload.Trace) error {
	q := core.NewUpdateQueue(in.Ctrl, core.QueueConfig{MaxPending: 1 << 20})
	q.Hold()
	for _, e := range tr.Events {
		if err := q.Enqueue(e.Peer, e.Update); err != nil {
			q.Stop()
			return err
		}
	}
	q.Stop() // final drain applies the whole coalesced set
	return nil
}

// RIBDump renders every participant's Loc-RIB view (best route per
// prefix, in prefix order) as comparable text lines. Two controllers that
// processed equivalent update sequences must dump identically.
func RIBDump(ctrl *core.Controller) []string {
	rsrv := ctrl.RouteServer()
	var lines []string
	for _, as := range rsrv.Participants() {
		best := rsrv.BestRoutes(as)
		keys := make([]iputil.Prefix, 0, len(best))
		for p := range best {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
		for _, p := range keys {
			lines = append(lines, fmt.Sprintf("as%d %s", as, best[p]))
		}
	}
	return lines
}

// RecordingSink is a core.RuleSink that renders every table operation it
// receives into a replayable text log, so two controllers' programming
// streams can be compared line by line.
type RecordingSink struct {
	mu  sync.Mutex
	log []string
}

func (s *RecordingSink) render(op string, cookie uint64, es []*dataplane.FlowEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, fmt.Sprintf("%s cookie=%d n=%d", op, cookie, len(es)))
	for _, e := range es {
		s.log = append(s.log, "  "+e.String())
	}
}

// AddBatch implements core.RuleSink.
func (s *RecordingSink) AddBatch(es []*dataplane.FlowEntry) {
	cookie := uint64(0)
	if len(es) > 0 {
		cookie = es[0].Cookie
	}
	s.render("add", cookie, es)
}

// Replace implements core.RuleSink.
func (s *RecordingSink) Replace(cookie uint64, es []*dataplane.FlowEntry) {
	s.render("replace", cookie, es)
}

// DeleteCookie implements core.RuleSink.
func (s *RecordingSink) DeleteCookie(cookie uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, fmt.Sprintf("delete cookie=%d", cookie))
}

// Log returns a copy of the recorded operation stream.
func (s *RecordingSink) Log() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.log...)
}

// DiffLines compares two line sets and reports the first divergence with
// context, or nil when identical.
func DiffLines(label string, a, b []string) error {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("%s: line %d differs:\n  a: %s\n  b: %s", label, i+1, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%s: length differs: %d vs %d lines", label, len(a), len(b))
	}
	return nil
}

// DiffText is DiffLines over newline-split strings (canonical dumps).
func DiffText(label, a, b string) error {
	if a == b {
		return nil
	}
	return DiffLines(label, strings.Split(a, "\n"), strings.Split(b, "\n"))
}

// probeHeaders are the header variants each probe destination is tried
// with; they cover the field values the §6.1 policy mix matches on.
var probeHeaders = []struct {
	name     string
	proto    uint8
	src, dst uint16
}{
	{"tcp80", pkt.ProtoTCP, 40000, 80},
	{"tcp443", pkt.ProtoTCP, 1024, 443},
	{"tcp8080", pkt.ProtoTCP, 1025, 8080},
	{"udp53", pkt.ProtoUDP, 1026, 53},
	{"udp9000", pkt.ProtoUDP, 52000, 9000},
}

// Probe is one forwarding probe: a packet built the way a border router
// would address it, plus a key that is stable across recompilations.
type Probe struct {
	Key string
	P   pkt.Packet
}

// ProbePackets builds the probe set Outcomes evaluates: for up to
// `viewers` participants and `routes` advertised routes each, packets
// addressed the way a border router would after processing the SDX's
// re-advertisements (destination MAC resolved from the advertised next
// hop via ARP, exactly as a router's ARP query would), crossed with the
// probeHeaders variants. The dataplane differential harness reuses the
// same probes to compare the compiled engine against the naive scan on
// real classifier output rather than synthetic rules.
func ProbePackets(ctrl *core.Controller, viewers, routes int) []Probe {
	var probes []Probe
	ases := ctrl.RouteServer().Participants()
	if len(ases) > viewers {
		ases = ases[:viewers]
	}
	for _, as := range ases {
		part, ok := ctrl.Participant(as)
		if !ok || len(part.Ports()) == 0 {
			continue
		}
		inPort := part.Ports()[0]
		ads := ctrl.RoutesFor(as)
		if len(ads) > routes {
			// Sample from both ends so heavy and light announcers appear.
			ads = append(ads[:routes/2+1], ads[len(ads)-routes/2:]...)
		}
		for _, ad := range ads {
			dstMAC, resolved := ctrl.ARP().Resolve(ad.NextHop)
			for _, h := range probeHeaders {
				p := pkt.Packet{
					InPort:  inPort.ID,
					SrcMAC:  inPort.MAC(),
					EthType: pkt.EthTypeIPv4,
					SrcIP:   inPort.IP(),
					DstIP:   ad.Prefix.Addr() + 7,
					Proto:   h.proto,
					SrcPort: h.src,
					DstPort: h.dst,
				}
				if resolved {
					p.DstMAC = dstMAC
				}
				probes = append(probes, Probe{
					Key: fmt.Sprintf("as%d/%s/%s", as, ad.Prefix, h.name),
					P:   p,
				})
			}
		}
	}
	return probes
}

// Outcomes probes the forwarding behaviour the fabric presents to border
// routers, pushing each ProbePackets packet through the flow table and
// recording where it leaves. Keys are stable across recompilations;
// values are the sorted egress ports, or "drop" when the packet never
// leaves the fabric. The mechanism (flow-table rule vs normal L2
// fallback) is deliberately not part of the value: a recompilation may
// legitimately move an un-grouped prefix from the fast band back to L2
// forwarding, but the egress port must not change. Because keys carry no
// VNH/VMAC bytes, Outcomes taken before and after a full recompilation —
// or after the per-prefix reference lowering — must be equal.
func Outcomes(ctrl *core.Controller, viewers, routes int) map[string]string {
	out := make(map[string]string)
	for _, pr := range ProbePackets(ctrl, viewers, routes) {
		out[pr.Key] = outcome(ctrl, pr.P)
	}
	return out
}

// VerifyEngine differentially checks the dataplane's compiled dispatch
// engine against the naive priority-ordered scan on this instance's
// installed flow table: for every forwarding probe, both paths must
// choose the same entry (identical priority, cookie, and insertion
// sequence) and Process must emit identical packets. It exercises the
// compiled path twice per probe — cold engine dispatch and warm megaflow
// cache — so cache hits are verified as well as trie dispatch.
func (in *Instance) VerifyEngine(viewers, routes int) error {
	table := in.Ctrl.Switch().Table()
	for _, pr := range ProbePackets(in.Ctrl, viewers, routes) {
		want := table.LookupNaive(pr.P)
		for _, label := range []string{"cold", "warm"} {
			got := table.Lookup(pr.P)
			if got != want {
				return fmt.Errorf("probe %s (%s): compiled chose %s, naive chose %s",
					pr.Key, label, entryID(got), entryID(want))
			}
		}
		gotOut := table.Process(pr.P)
		wantOut := table.ProcessNaive(pr.P)
		if (gotOut == nil) != (wantOut == nil) || len(gotOut) != len(wantOut) {
			return fmt.Errorf("probe %s: Process emitted %d packets, naive %d", pr.Key, len(gotOut), len(wantOut))
		}
		for i := range gotOut {
			if !gotOut[i].SameHeader(wantOut[i]) {
				return fmt.Errorf("probe %s: output %d differs: %v vs %v", pr.Key, i, gotOut[i], wantOut[i])
			}
		}
	}
	return nil
}

// entryID renders a flow entry's identity (priority, cookie, insertion
// sequence) for divergence reports.
func entryID(e *dataplane.FlowEntry) string {
	if e == nil {
		return "miss"
	}
	return fmt.Sprintf("prio=%d cookie=%d seq=%d", e.Priority, e.Cookie, e.Seq())
}

// outcome classifies one packet's fate in the fabric: the sorted egress
// ports, or "drop".
func outcome(ctrl *core.Controller, p pkt.Packet) string {
	table := ctrl.Switch().Table()
	var ports []int
	if table.Lookup(p) != nil {
		for _, q := range table.Process(p) {
			ports = append(ports, int(q.InPort))
		}
	} else if port, ok := ctrl.NormalEgress(p); ok {
		ports = append(ports, int(port))
	}
	if len(ports) == 0 {
		return "drop"
	}
	sort.Ints(ports)
	parts := make([]string, len(ports))
	for i, p := range ports {
		parts[i] = fmt.Sprint(p)
	}
	return "out:" + strings.Join(parts, ",")
}

// DiffOutcomes compares two forwarding-outcome maps, reporting every
// key present in only one side or mapped to different fates.
func DiffOutcomes(label string, a, b map[string]string) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if !oka || !okb || va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %q vs %q", k, va, vb))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("... and %d more", len(diffs)-8))
	}
	return fmt.Errorf("%s: %d outcomes differ:\n  %s", label, len(diffs), strings.Join(diffs, "\n  "))
}
