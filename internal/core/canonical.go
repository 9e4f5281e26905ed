package core

import (
	"fmt"
	"strings"
)

// Canonical renders a compilation result in a stable text form — groups
// with their VNH/VMAC assignments, then both bands rule by rule with
// explicit priorities. Two results are byte-identical compilations iff
// their canonical forms are equal, which is what the golden-file tests
// and the differential corpus compare.
func (c *Compiled) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "groups=%d band1=%d band2=%d\n", len(c.Groups), len(c.Band1), len(c.Band2))
	for gi := range c.Groups {
		g := &c.Groups[gi]
		fmt.Fprintf(&b, "group %d: default=AS%d sets=%v", gi, g.DefaultAS, g.Sets)
		if gi < len(c.VMACs) {
			fmt.Fprintf(&b, " vmac=%s vnh=%s", c.VMACs[gi], c.VNHs[gi])
		}
		fmt.Fprintf(&b, " prefixes=[")
		for i, p := range g.Prefixes {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(p.String())
		}
		b.WriteString("]\n")
	}
	writeBand := func(name string, cl []string) {
		fmt.Fprintf(&b, "%s:\n", name)
		for i, line := range cl {
			fmt.Fprintf(&b, "  %4d %s\n", len(cl)-i, line)
		}
	}
	band1 := make([]string, len(c.Band1))
	for i, r := range c.Band1 {
		band1[i] = r.String()
	}
	band2 := make([]string, len(c.Band2))
	for i, r := range c.Band2 {
		band2[i] = r.String()
	}
	writeBand("band1", band1)
	writeBand("band2", band2)
	return b.String()
}
