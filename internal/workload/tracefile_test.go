package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestTraceTextRoundTrip: both generators' traces, written in the textual
// format and read back against the same topology, give the generated
// events, next hops included.
func TestTraceTextRoundTrip(t *testing.T) {
	x := NewIXP(DefaultTopology(40, 2000, 5))
	for name, tr := range map[string]*Trace{
		"trace": GenerateTrace(x, DefaultTrace(3000, 5)),
		"churn": GenerateChurn(x, DefaultChurn(3000, 5)),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTrace(&buf, x)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Events) != len(tr.Events) {
				t.Fatalf("read %d events, wrote %d", len(got.Events), len(tr.Events))
			}
			for i := range tr.Events {
				if !reflect.DeepEqual(got.Events[i], tr.Events[i]) {
					t.Fatalf("event %d: read %+v %v, wrote %+v %v",
						i, got.Events[i], got.Events[i].Update, tr.Events[i], tr.Events[i].Update)
				}
			}
		})
	}
}

func TestReadTraceErrors(t *testing.T) {
	x := NewIXP(DefaultTopology(5, 50, 1))
	for _, line := range []string{
		"0 100 announce",
		"x 100 announce 10.0.0.0/8",
		"0 x announce 10.0.0.0/8",
		"0 100 announce 10.0.0.0/99",
		"0 100 announce 10.0.0.0/8 zz",
		"0 100 flap 10.0.0.0/8",
	} {
		if _, err := ReadTrace(strings.NewReader(line), x); err == nil {
			t.Errorf("%q should fail", line)
		}
	}
	tr, err := ReadTrace(strings.NewReader("# comment\n\n5 100 announce 10.0.0.0/8\n"), x)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].Update.Attrs.ASPath[0] != 100 {
		t.Fatalf("read %+v", tr.Events)
	}
}
