package sdx_test

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/reconcile"
)

// startLoopbackExchange starts an exchange of three participants (ports
// 1, 2, 4) whose one fabric switch is an in-process agent, and waits for
// the control channel. The reconciler runs only when the test drives it.
func startLoopbackExchange(t *testing.T) (*sdx.Exchange, *dataplane.Switch) {
	t.Helper()
	remote := dataplane.NewSwitch("remote")
	agent := openflow.NewAgent(remote)
	ctrl := sdx.New()
	for _, cfg := range []sdx.ParticipantConfig{
		{AS: 100, Name: "A", Ports: []sdx.PhysicalPort{{ID: 1}}},
		{AS: 200, Name: "B", Ports: []sdx.PhysicalPort{{ID: 2}}},
		{AS: 300, Name: "C", Ports: []sdx.PhysicalPort{{ID: 4}}},
	} {
		if _, err := ctrl.AddParticipant(cfg); err != nil {
			t.Fatal(err)
		}
		if err := remote.AddPort(cfg.Ports[0].ID, cfg.Name, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.SetPolicy(100, nil, []sdx.Term{sdx.Fwd(sdx.MatchAll.DstPort(80), 200)}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		from   uint32
		port   sdx.PortID
		prefix string
		path   []uint32
	}{
		{200, 2, "11.0.0.0/8", []uint32{200, 900}},
		{300, 4, "11.0.0.0/8", []uint32{300}},
		{300, 4, "12.0.0.0/8", []uint32{300}},
	} {
		ctrl.ApplyBatch(sdx.PeerUpdate{From: r.from, Update: &bgp.Update{
			Attrs: &bgp.PathAttrs{ASPath: r.path, NextHop: sdx.PortIP(r.port)},
			NLRI:  []iputil.Prefix{sdx.MustParsePrefix(r.prefix)},
		}})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	x, err := sdx.StartExchange(ctrl, sdx.ExchangeConfig{
		Listener: ln,
		LocalAS:  64512,
		Dial: func(context.Context, string) (*openflow.Client, error) {
			ca, cb := net.Pipe()
			go func() { _ = agent.ServeConn(ca) }()
			return openflow.NewClient(cb)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Stop)
	barrier(t, x)
	return x, remote
}

// barrier waits for the exchange's one control channel and for the
// switch to apply everything sent on it.
func barrier(t *testing.T, x *sdx.Exchange) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c := x.Client(x.Switches()[0]); c != nil && c.Barrier() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("control channel not up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dump renders a rule table sorted and cookie-tagged.
func dump(es []*dataplane.FlowEntry) string {
	lines := make([]string, len(es))
	for i, e := range es {
		lines[i] = fmt.Sprintf("cookie=%d %s", e.Cookie, e)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestExchangeFencesRepairOnControllerWrite is the fence regression: a
// reconciler pass reads the switch back, then a Recompile that changes a
// band lands before the pass repairs. The pass must drop its repair as
// Fenced, because the diff it computed mixes the old installed table
// with the new intent, and the switch must end at exactly the new
// intent.
func TestExchangeFencesRepairOnControllerWrite(t *testing.T) {
	x, remote := startLoopbackExchange(t)
	ctrl := x.Controller()
	rec := x.Reconciler()
	if sum := rec.RunOnce(); !sum.Clean {
		t.Fatalf("baseline pass not clean: %+v", sum)
	}

	parked, release := sdx.ParkNextReadback(x)
	done := make(chan core.CompileReport, 1)
	sums := make(chan reconcile.Summary, 1)
	go func() { sums <- rec.RunOnce() }()
	<-parked
	before := dump(ctrl.Switch().Table().Entries())
	go func() {
		done <- ctrl.Recompile(sdx.CompilePolicy(100, nil, []sdx.Term{sdx.Fwd(sdx.MatchAll.DstPort(443), 300)}))
	}()
	var rep core.CompileReport
	select {
	case rep = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Recompile did not return while the pass was parked")
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if dump(ctrl.Switch().Table().Entries()) == before {
		t.Fatal("the recompile changed no band")
	}
	release()
	if sum := <-sums; len(sum.Targets) != 1 || !sum.Targets[0].Fenced {
		t.Fatalf("pass across a controller write was not fenced: %+v", sum)
	}

	barrier(t, x)
	want := dump(x.Model().Switch(x.Switches()[0]).Table().Entries())
	if got := dump(remote.Table().Entries()); got != want {
		t.Fatalf("remote table != new intent after the fenced pass\n remote:\n%s\n intent:\n%s", got, want)
	}
	if sum := rec.RunOnce(); !sum.Clean || sum.Repairs != 0 {
		t.Fatalf("pass after the fence not clean: %+v", sum)
	}
}
