package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"sdx"
	"sdx/internal/bgp"
	"sdx/internal/dataplane"
	"sdx/internal/iputil"
	"sdx/internal/openflow"
	"sdx/internal/pkt"
	"sdx/internal/probe"
)

// startSwitch runs an in-process fabric switch the way sdx-switch does:
// an agent on a loopback listener, and ports that punt delivered
// liveness probes back to the controller.
func startSwitch(t *testing.T, ports ...pkt.PortID) (addr string, sw *dataplane.Switch) {
	t.Helper()
	sw = dataplane.NewSwitch("sdx-fabric")
	agent := openflow.NewAgent(sw)
	for _, id := range ports {
		err := sw.AddPort(id, fmt.Sprint(id), func(p pkt.Packet) {
			if p.EthType == probe.EthType {
				p.InPort = id
				agent.Punt(p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() { _ = agent.ListenAndServe(ln) }()
	return ln.Addr().String(), sw
}

func ruleDump(es []*dataplane.FlowEntry) string {
	lines := make([]string, len(es))
	for i, e := range es {
		lines[i] = fmt.Sprintf("cookie=%d %s", e.Cookie, e)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// eventually polls cond every 20ms until it holds or the timeout passes.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonLoopback starts sdxd's assembly on loopback against an
// in-process switch, attaches one BGP peer, and checks the daemon end to
// end: the switch's table as read back over the control channel equals
// the fabric model's, /health turns 200 once probes come back through the
// switch, and shutdown returns.
func TestDaemonLoopback(t *testing.T) {
	fabric, _ := startSwitch(t, 1, 2, 3)
	path := writeConfig(t, `
participant 100 A 1
participant 200 B 2 3
policy 100 out fwd 200 dstport 80
`)
	d, err := start([]string{
		"-config", path,
		"-listen", "127.0.0.1:0",
		"-fabric", fabric,
		"-metrics", "127.0.0.1:0",
		"-reconcile-interval", "50ms",
		"-probe-interval", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	sess, err := sdx.DialBGP(d.bgp.String(), bgp.SessionConfig{LocalAS: 200, RouterID: sdx.PortIP(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.SendUpdate(&bgp.Update{
		Attrs: &bgp.PathAttrs{ASPath: []uint32{200}, NextHop: sdx.PortIP(2)},
		NLRI:  []iputil.Prefix{sdx.MustParsePrefix("11.0.0.0/8")},
	}); err != nil {
		t.Fatal(err)
	}

	ctrl := d.x.Controller()
	eventually(t, 10*time.Second, "remote table", func() error {
		if len(ctrl.RoutesFor(100)) == 0 {
			return fmt.Errorf("AS100 has no route yet")
		}
		name := d.x.Switches()[0]
		c := d.x.Client(name)
		if c == nil {
			return fmt.Errorf("control channel down")
		}
		groups, err := c.DumpFlows()
		if err != nil {
			return err
		}
		got, want := ruleDump(openflow.EntriesFromGroups(groups)), ruleDump(d.x.Model().Switch(name).Table().Entries())
		if got != want {
			return fmt.Errorf("DumpFlows != model table\n remote:\n%s\n model:\n%s", got, want)
		}
		return nil
	})

	url := "http://" + d.metrics.Addr().String() + "/health"
	eventually(t, 10*time.Second, "/health", func() error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body struct {
			Probe struct {
				Pairs []probe.PairHealth `json:"pairs"`
			} `json:"probe"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		if len(body.Probe.Pairs) != 6 {
			return fmt.Errorf("%d probe pairs, want 6", len(body.Probe.Pairs))
		}
		for _, ph := range body.Probe.Pairs {
			if ph.Received == 0 {
				return fmt.Errorf("pair %d->%d: no probe delivered yet", ph.From, ph.To)
			}
		}
		return nil
	})

	done := make(chan struct{})
	go func() {
		d.stop()
		close(done)
	}()
	stopped = true
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not return")
	}
}
