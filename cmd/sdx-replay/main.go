// Command sdx-replay replays a textual BGP update trace (the format
// cmd/bgpgen emits, read by workload.ReadTrace) against an SDX:
//
//	bgpgen -participants 50 -prefixes 5000 -updates 2000 > trace.txt
//	sdx-replay -participants 50 -prefixes 5000 < trace.txt
//
// By default the exchange is rebuilt in-process from the same topology
// flags (and seed) the trace was generated with, the §6.1 policy mix is
// installed, and the replay reports the incremental-update metrics of the
// paper's §6.3: fast-path latency percentiles, additional rules, and
// background recompilations.
//
// With -target <host:port>, updates are instead streamed to a running
// sdxd over real BGP sessions, one per distinct peer in the trace (the
// peers must be registered participants there). Either way each
// announcement's next hop is its peer's first port IP in the topology the
// flags describe.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
	"sdx/internal/rs"
	"sdx/internal/workload"
)

func main() {
	participants := flag.Int("participants", 100, "IXP participants (must match the trace's generator)")
	prefixes := flag.Int("prefixes", 10000, "announced prefixes (must match the trace's generator)")
	seed := flag.Int64("seed", 1, "topology seed (must match the trace's generator)")
	target := flag.String("target", "", "stream to a running sdxd at host:port instead of replaying in-process")
	recompileEvery := flag.Int("recompile-every", 500, "run the background optimization after this many updates (0 = never)")
	metrics := flag.Bool("metrics", false, "print the controller's telemetry registry after an in-process replay")
	flag.Parse()

	x := workload.NewIXP(workload.DefaultTopology(*participants, *prefixes, *seed))
	tr, err := workload.ReadTrace(os.Stdin, x)
	if err != nil {
		log.Fatal(err)
	}
	events := tr.Events
	log.Printf("loaded %d updates from %d peers", len(events), countPeers(events))

	if *target != "" {
		if err := stream(*target, events); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctrl, err := workload.Load(x)
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.InstallPolicies(ctrl, workload.AssignPolicies(x, workload.DefaultPolicyMix(*seed))); err != nil {
		log.Fatal(err)
	}
	rep := ctrl.Recompile()
	log.Printf("exchange ready: %d groups, %d rules", rep.Groups, rep.Rules)

	var times []time.Duration
	additional, affected, recompiles := 0, 0, 0
	start := time.Now()
	for i, e := range events {
		res := ctrl.ApplyBatch(rs.PeerUpdate{From: e.Peer, Update: e.Update})
		times = append(times, res.Elapsed)
		additional += res.AdditionalRules
		affected += res.AffectedGroups
		if *recompileEvery > 0 && (i+1)%*recompileEvery == 0 {
			ctrl.Recompile()
			recompiles++
		}
	}
	wall := time.Since(start)
	ctrl.Recompile()

	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	pct := func(p float64) time.Duration { return times[int(p*float64(len(times)-1))] }
	fmt.Printf("updates           %d in %v (%.0f/s)\n",
		len(events), wall.Round(time.Millisecond), float64(len(events))/wall.Seconds())
	fmt.Printf("policy-affected   %d updates, %d fast-band rules pushed\n", affected, additional)
	fmt.Printf("fast path         P50 %v  P90 %v  P99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("recompilations    %d background + 1 final; final table %d rules\n",
		recompiles, ctrl.Switch().Table().Len())
	if *metrics {
		fmt.Printf("--- telemetry ---\n")
		ctrl.Metrics().WriteText(os.Stdout)
	}
}

func countPeers(events []workload.TraceEvent) int {
	seen := map[uint32]bool{}
	for _, e := range events {
		seen[e.Peer] = true
	}
	return len(seen)
}

// stream pushes the trace to a remote route server over one BGP session
// per peer.
func stream(target string, events []workload.TraceEvent) error {
	sessions := map[uint32]*bgp.Session{}
	defer func() {
		for _, s := range sessions {
			// Close sends a best-effort CEASE; the replay is already done.
			_ = s.Close()
		}
	}()
	sent := 0
	start := time.Now()
	for _, e := range events {
		sess := sessions[e.Peer]
		if sess == nil {
			conn, err := net.Dial("tcp", target)
			if err != nil {
				return err
			}
			sess, err = bgp.Establish(conn, bgp.SessionConfig{
				LocalAS:  e.Peer,
				RouterID: iputil.Addr(e.Peer),
			})
			if err != nil {
				return fmt.Errorf("peer AS%d: %w", e.Peer, err)
			}
			sess.Start()
			sessions[e.Peer] = sess
		}
		if err := sess.SendUpdate(e.Update); err != nil {
			return fmt.Errorf("peer AS%d: %w", e.Peer, err)
		}
		sent++
	}
	log.Printf("streamed %d updates over %d sessions in %v",
		sent, len(sessions), time.Since(start).Round(time.Millisecond))
	return nil
}
