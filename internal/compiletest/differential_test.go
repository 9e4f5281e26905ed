package compiletest

import (
	"fmt"
	"testing"
)

// TestDifferentialSerialVsParallel runs the differential corpus: 200
// randomized IXP workloads. (The name predates the single policy
// compiler; it is kept so per-case results stay comparable across
// history.) Each case checks two properties:
//
//   - Determinism: two controllers built from the same workload and fed
//     the same BGP update trace produce byte-identical canonical
//     classifier dumps, fabric rule streams and fast-band rule counts.
//   - Soundness: the installed tables pass the semantic verifier and the
//     compiled dispatch engine agrees with the naive table scan, after the
//     initial compile, after the burst replay through CompileFast, and
//     after the post-burst recompilation; and forwarding with the fast
//     band active equals forwarding after that recompilation.
//
// The third property of the corpus, that grouping is an optimisation,
// needs the test-only per-prefix lowering of package core; it is
// core's TestDifferentialCorpus.
func TestDifferentialSerialVsParallel(t *testing.T) {
	for i := 0; i < CorpusSize; i++ {
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			w, bursts := CorpusWorkload(i)

			a, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build(w)
			if err != nil {
				t.Fatal(err)
			}

			if err := DiffText("initial compile", a.Compile(), b.Compile()); err != nil {
				t.Fatal(err)
			}
			if err := DiffLines("initial rule stream", a.Rules.Log(), b.Rules.Log()); err != nil {
				t.Fatal(err)
			}
			if err := b.VerifyTables(); err != nil {
				t.Fatalf("initial compile: %v", err)
			}
			if err := b.VerifyEngine(4, 6); err != nil {
				t.Fatalf("initial compile: engine divergence: %v", err)
			}

			if bursts > 0 {
				// Same trace content on both sides: instances are
				// identical, so Trace() synthesizes identical event streams.
				fastA := a.Replay(a.Trace(bursts*3, w.Seed+99))
				fastB := b.Replay(b.Trace(bursts*3, w.Seed+99))
				if fastA != fastB {
					t.Fatalf("fast-band rules diverged: %d vs %d", fastA, fastB)
				}
				if err := DiffLines("burst rule stream", a.Rules.Log(), b.Rules.Log()); err != nil {
					t.Fatal(err)
				}
				if err := b.VerifyTables(); err != nil {
					t.Fatalf("after burst replay: %v", err)
				}
				if err := b.VerifyEngine(4, 6); err != nil {
					t.Fatalf("after burst replay: engine divergence: %v", err)
				}

				// CompileFast semantics: forwarding outcomes with the fast
				// band active must survive a from-scratch recompilation
				// untouched.
				before := Outcomes(b.Ctrl, 4, 6)
				if err := DiffText("post-burst compile", a.Compile(), b.Compile()); err != nil {
					t.Fatal(err)
				}
				if err := DiffOutcomes("fast-vs-full forwarding", before, Outcomes(b.Ctrl, 4, 6)); err != nil {
					t.Fatal(err)
				}
				if err := b.VerifyTables(); err != nil {
					t.Fatalf("post-burst recompile: %v", err)
				}
				if err := b.VerifyEngine(4, 6); err != nil {
					t.Fatalf("post-burst recompile: engine divergence: %v", err)
				}
			}

			if err := DiffOutcomes("forwarding", Outcomes(a.Ctrl, 4, 6), Outcomes(b.Ctrl, 4, 6)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
