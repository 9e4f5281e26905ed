package openflow

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/pkt"
	"sdx/internal/policy"
)

func pfx(s string) iputil.Prefix { return iputil.MustParsePrefix(s) }

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m, err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d leftover bytes", buf.Len())
	}
	return got
}

func TestSimpleMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		&Hello{Version: ProtocolVersion},
		&EchoRequest{Xid: 7},
		&EchoReply{Xid: 7},
		&Barrier{Xid: 9},
		&BarrierReply{Xid: 9},
		&StatsRequest{Xid: 3},
		&StatsReply{Xid: 3, Rules: 10, Misses: 5, Drops: 2},
		&Error{Code: 4, Text: "boom"},
	}
	for _, in := range msgs {
		got := roundTrip(t, in)
		if got.Type() != in.Type() {
			t.Fatalf("type mismatch: %T vs %T", got, in)
		}
	}
	e := roundTrip(t, &Error{Code: 4, Text: "boom"}).(*Error)
	if e.Code != 4 || e.Text != "boom" {
		t.Fatalf("error round trip: %+v", e)
	}
}

func randMatch(r *rand.Rand) pkt.Match {
	m := pkt.MatchAll
	if r.Intn(2) == 0 {
		m = m.InPort(pkt.PortID(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		m = m.SrcMAC(pkt.MAC(r.Uint64() & 0xffffffffffff))
	}
	if r.Intn(2) == 0 {
		m = m.DstMAC(pkt.MAC(r.Uint64() & 0xffffffffffff))
	}
	if r.Intn(2) == 0 {
		m = m.EthType(uint16(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		m = m.SrcIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), uint8(r.Intn(33))))
	}
	if r.Intn(2) == 0 {
		m = m.DstIP(iputil.NewPrefix(iputil.Addr(r.Uint32()), uint8(r.Intn(33))))
	}
	if r.Intn(2) == 0 {
		m = m.Proto(uint8(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		m = m.SrcPort(uint16(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		m = m.DstPort(uint16(r.Uint32()))
	}
	return m
}

func randAction(r *rand.Rand) pkt.Action {
	d := pkt.NoMods
	if r.Intn(2) == 0 {
		d = d.SetDstMAC(pkt.MAC(r.Uint64() & 0xffffffffffff))
	}
	if r.Intn(2) == 0 {
		d = d.SetSrcMAC(pkt.MAC(r.Uint64() & 0xffffffffffff))
	}
	if r.Intn(2) == 0 {
		d = d.SetDstIP(iputil.Addr(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		d = d.SetSrcIP(iputil.Addr(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		d = d.SetEthType(uint16(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		d = d.SetProto(uint8(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		d = d.SetSrcPort(uint16(r.Uint32()))
	}
	if r.Intn(2) == 0 {
		d = d.SetDstPort(uint16(r.Uint32()))
	}
	return pkt.Action{Mods: d, Out: pkt.PortID(r.Uint32())}
}

func TestFlowModRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 1000; i++ {
		in := &FlowMod{Op: uint8(1 + r.Intn(3)), Cookie: r.Uint64()}
		for j := 0; j < r.Intn(5); j++ {
			rule := FlowRule{Priority: int32(r.Uint32()), Match: randMatch(r)}
			for k := 0; k < r.Intn(3); k++ {
				rule.Actions = append(rule.Actions, randAction(r))
			}
			in.Rules = append(in.Rules, rule)
		}
		got := roundTrip(t, in).(*FlowMod)
		if got.Op != in.Op || got.Cookie != in.Cookie || len(got.Rules) != len(in.Rules) {
			t.Fatalf("iteration %d: header mismatch", i)
		}
		for j := range in.Rules {
			if got.Rules[j].Priority != in.Rules[j].Priority ||
				got.Rules[j].Match != in.Rules[j].Match ||
				len(got.Rules[j].Actions) != len(in.Rules[j].Actions) {
				t.Fatalf("iteration %d rule %d mismatch:\ngot  %+v\nwant %+v", i, j, got.Rules[j], in.Rules[j])
			}
			for k := range in.Rules[j].Actions {
				if got.Rules[j].Actions[k] != in.Rules[j].Actions[k] {
					t.Fatalf("iteration %d rule %d action %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	in := &PacketOut{
		Port: 9,
		Packet: pkt.Packet{
			InPort: 1, SrcMAC: 2, DstMAC: 3, EthType: 0x0800,
			SrcIP: 4, DstIP: 5, Proto: 6, SrcPort: 7, DstPort: 8,
			Payload: []byte("hello"),
		},
	}
	got := roundTrip(t, in).(*PacketOut)
	if got.Port != 9 || !got.Packet.SameHeader(in.Packet) || string(got.Packet.Payload) != "hello" {
		t.Fatalf("round trip: %+v", got)
	}
	pin := roundTrip(t, &PacketIn{Packet: in.Packet}).(*PacketIn)
	if !pin.Packet.SameHeader(in.Packet) {
		t.Fatalf("packet-in round trip: %+v", pin)
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	// Truncated frame.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 10, TypeHello})); err == nil {
		t.Fatal("truncated frame must fail")
	}
	// Zero length.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0, 0})); err == nil {
		t.Fatal("zero length must fail")
	}
	// Unknown type.
	var buf bytes.Buffer
	WriteMessage(&buf, &Hello{Version: 1})
	b := buf.Bytes()
	b[4] = 99
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("unknown type must fail")
	}
	// Trailing bytes.
	buf.Reset()
	WriteMessage(&buf, &Hello{Version: 1})
	b = buf.Bytes()
	b[3] = byte(len(b) - 4 + 3) // lie about length... keep simple: extend body
	if _, err := unmarshalBody(TypeHello, []byte{1, 2, 3}); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// startPair wires an agent (around a fresh switch) and a client over an
// in-memory connection.
func startPair(t *testing.T) (*Agent, *Client, *dataplane.Switch) {
	t.Helper()
	sw := dataplane.NewSwitch("remote")
	agent := NewAgent(sw)
	ca, cb := net.Pipe()
	go agent.ServeConn(ca)
	client, err := NewClient(cb)
	if err != nil {
		t.Fatal(err)
	}
	client.Start()
	t.Cleanup(func() { client.Close() })
	return agent, client, sw
}

func TestAgentClientFlowProgramming(t *testing.T) {
	_, client, sw := startPair(t)
	sw.AddPort(1, "in", nil)
	received := make(chan pkt.Packet, 4)
	sw.AddPort(2, "out", func(p pkt.Packet) { received <- p })

	cl := policy.Classifier{
		{Match: pkt.MatchAll.InPort(1).DstPort(80), Actions: []pkt.Action{pkt.Output(2)}},
		{Match: pkt.MatchAll},
	}
	if err := client.InstallClassifier(7, 1000, cl); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rules != 2 {
		t.Fatalf("remote rules = %d", stats.Rules)
	}

	sw.Inject(1, pkt.Packet{DstPort: 80})
	select {
	case p := <-received:
		if p.DstPort != 80 {
			t.Fatalf("delivered %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout waiting for forwarded packet")
	}

	// Replace swaps the band; Delete empties it.
	if err := client.Replace(7, RulesFromClassifier(policy.Classifier{{Match: pkt.MatchAll}}, 0)); err != nil {
		t.Fatal(err)
	}
	client.Barrier()
	stats, _ = client.Stats()
	if stats.Rules != 1 {
		t.Fatalf("after replace rules = %d", stats.Rules)
	}
	client.Delete(7)
	client.Barrier()
	stats, _ = client.Stats()
	if stats.Rules != 0 {
		t.Fatalf("after delete rules = %d", stats.Rules)
	}
}

func TestAgentPacketInAndPacketOut(t *testing.T) {
	_, client, sw := startPair(t)
	sw.AddPort(1, "in", nil)
	delivered := make(chan pkt.Packet, 1)
	sw.AddPort(2, "out", func(p pkt.Packet) { delivered <- p })

	misses := make(chan pkt.Packet, 1)
	client.OnPacketIn = func(p pkt.Packet) { misses <- p }
	// An echo round trip guarantees the agent finished its side of the
	// hello exchange and registered the connection.
	if err := client.Echo(); err != nil {
		t.Fatal(err)
	}

	// Empty table: the injected packet must surface at the controller.
	go sw.Inject(1, pkt.Packet{DstPort: 53})
	var missed pkt.Packet
	select {
	case missed = <-misses:
	case <-time.After(time.Second):
		t.Fatal("timeout waiting for PacketIn")
	}
	if missed.DstPort != 53 || missed.InPort != 1 {
		t.Fatalf("PacketIn %v", missed)
	}

	// The controller answers with a PacketOut on port 2.
	if err := client.PacketOut(2, missed); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-delivered:
		if p.DstPort != 53 {
			t.Fatalf("PacketOut delivered %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout waiting for PacketOut delivery")
	}
}

func TestClientEcho(t *testing.T) {
	_, client, _ := startPair(t)
	if err := client.Echo(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer ln.Close()
	sw := dataplane.NewSwitch("remote")
	agent := NewAgent(sw)
	go agent.ListenAndServe(ln)

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Start()
	if err := client.Echo(); err != nil {
		t.Fatal(err)
	}
	if err := client.Add(1, []FlowRule{{Priority: 5, Match: pkt.MatchAll}}); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rules != 1 {
		t.Fatalf("rules = %d", stats.Rules)
	}
}

func TestDumpMessageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	in := &DumpReply{Xid: 21}
	for g := 0; g < 5; g++ {
		grp := FlowGroup{Cookie: r.Uint64()}
		for i := 0; i < 1+r.Intn(4); i++ {
			rule := FlowRule{Priority: int32(r.Intn(1 << 20)), Match: randMatch(r)}
			for a := 0; a < r.Intn(3); a++ {
				rule.Actions = append(rule.Actions, randAction(r))
			}
			grp.Rules = append(grp.Rules, rule)
		}
		in.Groups = append(in.Groups, grp)
	}
	got := roundTrip(t, in).(*DumpReply)
	if got.Xid != in.Xid || len(got.Groups) != len(in.Groups) {
		t.Fatalf("dump reply mangled: %+v", got)
	}
	for gi, g := range got.Groups {
		want := in.Groups[gi]
		if g.Cookie != want.Cookie || len(g.Rules) != len(want.Rules) {
			t.Fatalf("group %d mangled", gi)
		}
		for ri, rule := range g.Rules {
			w := want.Rules[ri]
			if rule.Priority != w.Priority || rule.Match != w.Match || len(rule.Actions) != len(w.Actions) {
				t.Fatalf("group %d rule %d mangled: %+v vs %+v", gi, ri, rule, w)
			}
		}
	}
	req := roundTrip(t, &DumpRequest{Xid: 21}).(*DumpRequest)
	if req.Xid != 21 {
		t.Fatalf("dump request xid = %d", req.Xid)
	}
}

// TestClientDumpFlows installs rules under two cookies and asserts the
// readback matches what the switch actually holds — the reconciler's
// view of remote installed state.
func TestClientDumpFlows(t *testing.T) {
	_, client, sw := startPair(t)
	if err := client.Add(7, []FlowRule{
		{Priority: 100, Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(2)}},
		{Priority: 90, Match: pkt.MatchAll.DstPort(80)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Add(3, []FlowRule{
		{Priority: 50, Match: pkt.MatchAll, Actions: []pkt.Action{pkt.Output(9)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}
	groups, err := client.DumpFlows()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Cookie != 3 || groups[1].Cookie != 7 {
		t.Fatalf("groups = %+v", groups)
	}
	entries := EntriesFromGroups(groups)
	want := map[string]bool{}
	for _, e := range sw.Table().Entries() {
		want[fmt.Sprintf("cookie=%d %s", e.Cookie, e)] = true
	}
	if len(entries) != len(want) {
		t.Fatalf("dump has %d entries, table %d", len(entries), len(want))
	}
	for _, e := range entries {
		key := fmt.Sprintf("cookie=%d %s", e.Cookie, e)
		if !want[key] {
			t.Fatalf("dump entry %q not in table", key)
		}
	}
}

// TestInjectMessageRoundTrip: the Inject frame survives encode/decode
// with its pipeline-entry port and full packet intact.
func TestInjectMessageRoundTrip(t *testing.T) {
	in := &Inject{Port: 7, Packet: pkt.Packet{
		InPort: 7, EthType: 0x88B5, SrcPort: 0, DstPort: 0,
		Payload: []byte("probe-payload"),
	}}
	got := roundTrip(t, in).(*Inject)
	if got.Port != in.Port || got.Packet.EthType != in.Packet.EthType ||
		string(got.Packet.Payload) != string(in.Packet.Payload) {
		t.Fatalf("inject mangled: %+v", got)
	}
}

// TestInjectEntersPipelineAndPunt: an Inject must traverse the switch's
// installed tables (unlike PacketOut, which bypasses them), and Punt must
// surface the delivered packet back to the controller as a PacketIn —
// together, the round trip a dataplane liveness probe takes.
func TestInjectEntersPipelineAndPunt(t *testing.T) {
	sw := dataplane.NewSwitch("remote")
	agent := NewAgent(sw)
	sw.AddPort(1, "in", nil)
	sw.AddPort(2, "out", func(p pkt.Packet) {
		p.InPort = 2
		agent.Punt(p)
	})
	ca, cb := net.Pipe()
	go agent.ServeConn(ca)
	client, err := NewClient(cb)
	if err != nil {
		t.Fatal(err)
	}
	punted := make(chan pkt.Packet, 1)
	client.OnPacketIn = func(p pkt.Packet) { punted <- p }
	client.Start()
	t.Cleanup(func() { client.Close() })

	if err := client.Add(7, []FlowRule{
		{Priority: 100, Match: pkt.MatchAll.InPort(1), Actions: []pkt.Action{pkt.Output(2)}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Barrier(); err != nil {
		t.Fatal(err)
	}
	probe := pkt.Packet{InPort: 1, EthType: 0x88B5, Payload: []byte("sdxp")}
	if err := client.Inject(1, probe); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-punted:
		if p.InPort != 2 || string(p.Payload) != "sdxp" {
			t.Fatalf("punted packet mangled: %+v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected probe never punted back")
	}
}

// TestRoundTripsBoundedBySilentPeer drives a switch that completes the
// hello exchange and then reads every request without ever replying — a
// channel whose reply direction sits behind a one-way partition. Barrier,
// Stats and DumpFlows must each fail within replyTimeout and leave no
// reply slot behind.
func TestRoundTripsBoundedBySilentPeer(t *testing.T) {
	ca, cb := net.Pipe()
	go func() {
		defer ca.Close()
		if err := WriteMessage(ca, &Hello{Version: ProtocolVersion}); err != nil {
			return
		}
		for {
			if _, err := ReadMessage(ca); err != nil {
				return
			}
		}
	}()
	client, err := NewClient(cb)
	if err != nil {
		t.Fatal(err)
	}
	client.Start()
	defer client.Close()

	calls := map[string]func() error{
		"Barrier":   client.Barrier,
		"Stats":     func() error { _, err := client.Stats(); return err },
		"DumpFlows": func() error { _, err := client.DumpFlows(); return err },
	}
	start := time.Now()
	errs := make(chan error, len(calls))
	for name, call := range calls {
		go func() {
			if err := call(); err == nil {
				errs <- fmt.Errorf("%s: succeeded against a silent peer", name)
			} else {
				errs <- nil
			}
		}()
	}
	deadline := time.After(replyTimeout + 5*time.Second)
	for range calls {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("round trips still blocked %v after the calls", time.Since(start))
		}
	}
	if waited := time.Since(start); waited < replyTimeout {
		t.Fatalf("round trips gave up after %v, before the %v bound", waited, replyTimeout)
	}
	client.mu.Lock()
	left := len(client.waits)
	client.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d reply slots left behind after expiry", left)
	}
}
