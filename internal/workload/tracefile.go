package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"sdx/internal/bgp"
	"sdx/internal/iputil"
)

// The textual trace format cmd/bgpgen writes and cmd/sdx-replay reads is
// one update per line, its offset from the trace start in whole
// milliseconds:
//
//	<offset-ms> <peer-as> announce <prefix> <as-path...>
//	<offset-ms> <peer-as> withdraw <prefix>
//
// Blank lines and lines starting with '#' are skipped. A line carries no
// next hop: ReadTrace derives it from the IXP the way the generators do,
// so a trace read back against the topology it was generated from equals
// the generated one.

// WriteTrace writes tr's events in the textual format, offsets truncated
// to milliseconds.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, e := range tr.Events {
		if len(e.Update.Withdrawn) > 0 {
			fmt.Fprintf(bw, "%d %d withdraw %s\n", e.At.Milliseconds(), e.Peer, e.Update.Withdrawn[0])
			continue
		}
		fmt.Fprintf(bw, "%d %d announce %s", e.At.Milliseconds(), e.Peer, e.Update.NLRI[0])
		for _, as := range e.Update.Attrs.ASPath {
			fmt.Fprintf(bw, " %d", as)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadTrace parses a textual trace. Each announcement's next hop is the
// peer's first port IP in x; an announcement without a path gets the
// peer's AS as its path. The returned trace has no Bursts.
func ReadTrace(r io.Reader, x *IXP) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) < 4 {
			return nil, fmt.Errorf("line %d: too few fields", lineno)
		}
		ms, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad offset %q", lineno, fields[0])
		}
		peer, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad peer %q", lineno, fields[1])
		}
		prefix, err := iputil.ParsePrefix(fields[3])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineno, err)
		}
		ev := TraceEvent{At: time.Duration(ms) * time.Millisecond, Peer: uint32(peer)}
		switch fields[2] {
		case "withdraw":
			ev.Update = &bgp.Update{Withdrawn: []iputil.Prefix{prefix}}
		case "announce":
			attrs := &bgp.PathAttrs{NextHop: x.nextHop(ev.Peer)}
			for _, a := range fields[4:] {
				asn, err := strconv.ParseUint(a, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad AS %q", lineno, a)
				}
				attrs.ASPath = append(attrs.ASPath, uint32(asn))
			}
			if len(attrs.ASPath) == 0 {
				attrs.ASPath = []uint32{ev.Peer}
			}
			ev.Update = &bgp.Update{Attrs: attrs, NLRI: []iputil.Prefix{prefix}}
		default:
			return nil, fmt.Errorf("line %d: unknown verb %q", lineno, fields[2])
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr, sc.Err()
}
