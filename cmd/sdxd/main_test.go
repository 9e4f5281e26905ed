package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdx"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "exchange.conf")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfig(t *testing.T) {
	ctrl := sdx.New()
	path := writeConfig(t, `
# Figure 1 exchange
communities 64512
participant 100 A 1
participant 200 B 2 3
participant 400 tenant -

policy 100 out fwd 200 dstport 80
policy 100 out drop dstport 25
policy 200 in port 2 srcip 0.0.0.0/1
policy 200 in port 3 srcip 128.0.0.0/1
`)
	if err := loadConfig(ctrl, path); err != nil {
		t.Fatal(err)
	}
	if ports, want := ctrl.Switch().PortIDs(), []sdx.PortID{1, 2, 3}; !slices.Equal(ports, want) {
		t.Fatalf("ports = %v, want %v", ports, want)
	}
	for _, as := range []uint32{100, 200, 400} {
		if _, ok := ctrl.Participant(as); !ok {
			t.Fatalf("participant AS%d missing", as)
		}
	}
	p, _ := ctrl.Participant(400)
	if len(p.Ports()) != 0 {
		t.Fatal("tenant should be remote")
	}
	rep := ctrl.Recompile()
	if rep.Rules == 0 {
		// No routes yet, but the inbound policies alone produce no rules
		// either (no announced prefixes). That's fine; loadConfig's job
		// is registration + validation.
		_ = rep
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		conf string
	}{
		{"bad directive", "frobnicate 1 2 3"},
		{"bad communities", "communities zero one"},
		{"zero communities AS", "communities 0"},
		{"short participant", "participant 100"},
		{"bad AS", "participant xx A 1"},
		{"bad port", "participant 100 A yy"},
		{"duplicate participant", "participant 100 A 1\nparticipant 100 B 2"},
		{"policy for unknown AS", "policy 999 out fwd 1 dstport 80"},
		{"bad policy action", "participant 100 A 1\npolicy 100 out teleport 3"},
		{"inbound fwd", "participant 100 A 1\npolicy 100 in fwd 200"},
		{"bad direction", "participant 100 A 1\npolicy 100 inn fwd 200"},
		{"outbound port", "participant 100 A 1\npolicy 100 out port 1"},
		{"dangling match", "participant 100 A 1\npolicy 100 out drop dstport"},
		{"bad dstport", "participant 100 A 1\npolicy 100 out drop dstport zz"},
		{"bad prefix", "participant 100 A 1\npolicy 100 out drop srcip 10.0.0.0/99"},
		{"unknown match field", "participant 100 A 1\npolicy 100 out drop color red"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := sdx.New()
			if err := loadConfig(ctrl, writeConfig(t, tc.conf)); err == nil {
				t.Fatalf("config %q should fail", tc.conf)
			}
		})
	}
	if err := loadConfig(sdx.New(), "/nonexistent/path.conf"); err == nil {
		t.Fatal("missing file should fail")
	}

	// Two invalid policies: the first one in the file is reported, every
	// time.
	path := writeConfig(t, `
participant 100 A 1
participant 200 B 2
policy 200 out fwd 999
policy 100 out fwd 999
`)
	for i := 0; i < 20; i++ {
		err := loadConfig(sdx.New(), path)
		if err == nil || !strings.Contains(err.Error(), "policy for AS200") {
			t.Fatalf("run %d: got %v, want the AS200 policy error", i, err)
		}
	}
}

func TestParseTermMatches(t *testing.T) {
	term, err := parseTerm([]string{"fwd", "200", "dstport", "443", "srcip", "10.0.0.0/8", "proto", "6"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if term.Action.ToParticipant != 200 {
		t.Fatalf("target = %d", term.Action.ToParticipant)
	}
	if v, ok := term.Match.GetDstPort(); !ok || v != 443 {
		t.Fatal("dstport not parsed")
	}
	if v, ok := term.Match.GetSrcIP(); !ok || v != sdx.MustParsePrefix("10.0.0.0/8") {
		t.Fatal("srcip not parsed")
	}
	if v, ok := term.Match.GetProto(); !ok || v != 6 {
		t.Fatal("proto not parsed")
	}

	drop, err := parseTerm([]string{"drop", "dstip", "8.8.8.0/24"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !drop.Action.Drop {
		t.Fatal("drop flag not set")
	}
	if _, ok := drop.Match.GetDstIP(); !ok {
		t.Fatal("drop match not parsed")
	}

	if _, err := parseTerm(nil, false); err == nil {
		t.Fatal("empty term should fail")
	}
	if _, err := parseTerm([]string{"fwd"}, false); err == nil {
		t.Fatal("fwd without target should fail")
	}
	if _, err := parseTerm([]string{"port"}, true); err == nil {
		t.Fatal("port without id should fail")
	}
	if _, err := parseTerm([]string{"port", "zz"}, true); err == nil {
		t.Fatal("bad port id should fail")
	}
	if _, err := parseTerm([]string{"fwd", "zz"}, false); err == nil {
		t.Fatal("bad target should fail")
	}
	if _, err := parseTerm([]string{"drop", "srcport", "zz"}, false); err == nil {
		t.Fatal("bad srcport should fail")
	}
}
