package dataplane

import (
	"testing"

	"sdx/internal/iputil"
	"sdx/internal/pkt"
)

// fuzzCursor consumes a fuzz input byte stream; exhausted reads return
// zero, so any input decodes to some (possibly empty) scenario.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) byte() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

func (c *fuzzCursor) u16() uint16 { return uint16(c.byte())<<8 | uint16(c.byte()) }

func (c *fuzzCursor) addr() iputil.Addr {
	// Two bytes spread over the high half keeps destinations clustered
	// enough that prefixes overlap and rules actually collide.
	return iputil.Addr(c.u16()) << 16
}

// decodeRule turns 8 bytes into a classifier-shaped entry: flag-selected
// match fields, bounded priorities and cookies so ties and equal-cookie
// bands occur often.
func decodeRule(c *fuzzCursor) *FlowEntry {
	flags := c.byte()
	m := pkt.MatchAll
	if flags&1 != 0 {
		m = m.DstIP(iputil.NewPrefix(c.addr(), uint8(c.byte())%33))
	} else {
		c.u16()
		c.byte()
	}
	if flags&2 != 0 {
		m = m.InPort(pkt.PortID(c.byte() % 8))
	} else {
		c.byte()
	}
	if flags&4 != 0 {
		m = m.DstMAC(pkt.MAC(c.byte() % 8))
	} else {
		c.byte()
	}
	if flags&8 != 0 {
		m = m.EthType([]uint16{pkt.EthTypeIPv4, pkt.EthTypeARP}[c.byte()%2])
	} else {
		c.byte()
	}
	if flags&16 != 0 {
		m = m.DstPort([]uint16{80, 443, 53}[c.byte()%3])
	} else {
		c.byte()
	}
	var acts []pkt.Action
	if flags&32 == 0 { // most rules forward; flag 32 makes a drop rule
		acts = []pkt.Action{pkt.Output(pkt.PortID(100 + flags%4))}
	}
	return &FlowEntry{
		Priority: int(c.byte() % 16),
		Match:    m,
		Actions:  acts,
		Cookie:   uint64(c.byte() % 4),
	}
}

func decodePacket(c *fuzzCursor) pkt.Packet {
	return pkt.Packet{
		InPort:  pkt.PortID(c.byte() % 10),
		DstMAC:  pkt.MAC(c.byte() % 10),
		EthType: []uint16{pkt.EthTypeIPv4, pkt.EthTypeARP, 0x9999}[c.byte()%3],
		DstIP:   iputil.Addr(c.u16())<<16 | iputil.Addr(c.byte()),
		Proto:   c.byte() % 4,
		DstPort: []uint16{80, 443, 53, 9000}[c.byte()%4],
	}
}

// FuzzCompiledLookup decodes arbitrary bytes into a rule set, a probe
// set, a sequence of additive batches and a final mutation of any kind,
// then differentially checks the compiled engine against the naive scan:
// identical chosen entries (as found and freshly stamped) and identical
// Process outputs, at the start and after every step. The probes are
// warm from the previous pass when each batch lands, so the fuzzer hunts
// for revalidation bugs — a fold that picks the wrong winner, a log that
// slid past a verdict still being served — as well as dispatch bugs.
func FuzzCompiledLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x0a\x00\x18\x02\x00\x00\x00\x05\x01" + "\x01\x0a\x00\x00\x00\x00\x01"))
	f.Add([]byte("\x21\x00\xc0\xa8\x10\x01\x02\x03\x04\x07\x02" + "\x02\x01\x00\xc0\xa8\x00\x02\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzCursor{data: data}
		nRules := int(c.byte()%48) + 1
		var es []*FlowEntry
		for i := 0; i < nRules; i++ {
			es = append(es, decodeRule(c))
		}
		nPkts := int(c.byte()%24) + 1
		pkts := make([]pkt.Packet, 0, nPkts)
		for i := 0; i < nPkts; i++ {
			pkts = append(pkts, decodePacket(c))
		}

		tbl := NewFlowTable()
		tbl.AddBatch(es)

		checkAll := func(stage string) {
			for i, p := range pkts {
				want := tbl.LookupNaive(p)
				for _, pass := range []string{"as found", "restamped"} {
					if got := tbl.Lookup(p); got != want {
						t.Fatalf("%s: packet %d (%s): compiled %s, naive %s",
							stage, i, pass, entryID(got), entryID(want))
					}
				}
				gotOut, wantOut := tbl.Process(p), tbl.ProcessNaive(p)
				if (gotOut == nil) != (wantOut == nil) || len(gotOut) != len(wantOut) {
					t.Fatalf("%s: packet %d: Process %d pkts, naive %d", stage, i, len(gotOut), len(wantOut))
				}
				for j := range gotOut {
					if !gotOut[j].SameHeader(wantOut[j]) {
						t.Fatalf("%s: packet %d output %d differs", stage, i, j)
					}
				}
			}
		}

		checkAll("initial")
		// Up to 7 batches, each up to a little over the add-log's bound:
		// enough to slide its floor several times over, or to overflow it
		// in one batch.
		for round, rounds := 0, int(c.byte()%8); round < rounds; round++ {
			gen := tbl.Generation()
			if n := int(c.byte()) % (addLogBound + 8); n == 0 {
				tbl.Add(decodeRule(c))
			} else {
				batch := make([]*FlowEntry, n)
				for i := range batch {
					batch[i] = decodeRule(c)
				}
				tbl.AddBatch(batch)
			}
			if tbl.Generation() == gen {
				t.Fatalf("additive batch %d did not advance generation", round)
			}
			checkAll("after additive batch")
		}
		mutSel := c.byte()
		gen := tbl.Generation()
		switch mutSel % 4 {
		case 0:
			tbl.Add(decodeRule(c))
		case 1:
			tbl.DeleteCookie(uint64(mutSel>>2) % 4)
		case 2:
			tbl.Replace(uint64(mutSel>>2)%4, []*FlowEntry{decodeRule(c), decodeRule(c)})
		case 3:
			tbl.Flush()
		}
		if tbl.Generation() == gen {
			t.Fatalf("mutation %d did not advance generation", mutSel%4)
		}
		checkAll("after mutation")
	})
}
