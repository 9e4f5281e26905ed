package sdx

import (
	"runtime"
	"testing"
)

// TestRecompileHeapBounded: full passes must not accumulate memory. After
// 200 alternating policy recompiles of the policy-dense exchange, the live
// heap is within 1 MB of the live heap after the first pass — nothing of
// one pass (policy trees, intermediate classifiers, fast-band state)
// outlives the next.
func TestRecompileHeapBounded(t *testing.T) {
	ctrl, _, _, recompile := groupedRecompiler(t)
	recompile(0)
	runtime.GC()
	first := liveHeapMB()
	for i := 1; i <= 200; i++ {
		recompile(i)
	}
	runtime.GC()
	last := liveHeapMB()
	runtime.KeepAlive(ctrl)
	t.Logf("live heap: %.2f MB after the first pass, %.2f MB after 200 more", first, last)
	if last > first+1 {
		t.Fatalf("live heap grew from %.2f MB to %.2f MB over 200 passes (bound: +1 MB)", first, last)
	}
}
