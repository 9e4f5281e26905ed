package experiments

import "testing"

func TestAblation(t *testing.T) {
	rows, err := Ablation(30, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]AblationRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	full, ok := byMode["full"]
	if !ok || full.Rules == 0 {
		t.Fatalf("missing full mode: %+v", rows)
	}
	// §4.2: without VNH grouping the rule count explodes (each covered
	// prefix needs its own rules instead of one per group).
	novnh := byMode["no-vnh"]
	if novnh.Rules <= full.Rules {
		t.Fatalf("no-vnh rules (%d) should exceed full rules (%d)", novnh.Rules, full.Rules)
	}
	if float64(novnh.Rules) < 1.5*float64(full.Rules) {
		t.Fatalf("no-vnh blowup too small: %d vs %d", novnh.Rules, full.Rules)
	}
	// §4.3.1: disabling disjoint concatenation must not change the
	// semantics-bearing output size dramatically (cross-product emits
	// the same reachable rules, possibly plus shadowed ones).
	noconcat := byMode["no-concat"]
	if noconcat.Groups != full.Groups {
		t.Fatalf("no-concat changed grouping: %+v", noconcat)
	}
	if noconcat.Rules == 0 {
		t.Fatal("no-concat produced nothing")
	}
}
