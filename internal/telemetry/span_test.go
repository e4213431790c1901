package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanDisabledFastPath(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)

	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "phase")
	if span != nil {
		t.Fatal("disabled StartSpan must return nil span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan must not derive a new context")
	}
	if d := span.End(); d != 0 {
		t.Fatal("nil span End must return 0")
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)

	ctx1, outer := StartSpan(ctx, "refine")
	for i := 0; i < 3; i++ {
		_, inner := StartSpan(ctx1, "cell")
		time.Sleep(time.Millisecond)
		if inner.End() <= 0 {
			t.Fatal("span duration must be positive")
		}
	}
	outer.End()

	snap := r.Snapshot()
	root, ok := snap.Phases["refine"]
	if !ok {
		t.Fatalf("missing root phase, got %v", snap.Phases)
	}
	cell, ok := snap.Phases["refine/cell"]
	if !ok {
		t.Fatalf("missing nested phase, got %v", snap.Phases)
	}
	if root.Count != 1 || cell.Count != 3 {
		t.Fatalf("counts root=%d cell=%d, want 1 and 3", root.Count, cell.Count)
	}
	if root.NS < cell.NS {
		t.Fatalf("outer span (%d ns) must cover nested spans (%d ns)", root.NS, cell.NS)
	}
	if snap.RootPhaseNS() != root.NS {
		t.Fatalf("RootPhaseNS %d must count only top-level phases (%d)", snap.RootPhaseNS(), root.NS)
	}
}

func TestSpanSiblingsShareAggregate(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "campaign")
		s.End()
	}
	if got := r.Snapshot().Phases["campaign"].Count; got != 5 {
		t.Fatalf("aggregate count = %d, want 5", got)
	}
}

func TestContextRegistryOverridesDefault(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	def := New()
	SetDefault(def)

	local := New()
	ctx := WithRegistry(context.Background(), local)
	_, s := StartSpan(ctx, "p")
	s.End()
	if n := local.Snapshot().Phases["p"].Count; n != 1 {
		t.Fatalf("context registry must receive the span, got %d", n)
	}
	if n := def.Snapshot().Phases["p"].Count; n != 0 {
		t.Fatalf("default registry must not receive the span, got %d", n)
	}

	// Without a context registry, spans fall back to the default.
	_, s2 := StartSpan(context.Background(), "q")
	s2.End()
	if n := def.Snapshot().Phases["q"].Count; n != 1 {
		t.Fatalf("default registry fallback broken, got %d", n)
	}
}

// allocSink keeps TestSpanAllocsTracked's objects on the heap.
var allocSink [][]byte

// TestSpanAllocsTracked allocates objects above the runtime's 32 KiB
// large-object threshold: those reach /gc/heap/allocs:objects as they
// are allocated, while small objects are counted only when a per-P
// cache flushes, so a small-object count can lag behind the span.
func TestSpanAllocsTracked(t *testing.T) {
	const n, size = 100, 40 << 10
	r := New()
	ctx := WithRegistry(context.Background(), r)
	_, s := StartSpan(ctx, "alloc")
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, size))
	}
	s.End()
	allocSink = nil
	if got := r.Snapshot().Phases["alloc"].Allocs; got < n {
		t.Fatalf("allocs = %d, want >= %d", got, n)
	}
}

func TestFormatTreeRendersNesting(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)
	c1, outer := StartSpan(ctx, "refine")
	_, inner := StartSpan(c1, "cell")
	inner.End()
	outer.End()
	tree := r.Snapshot().FormatTree()
	if !strings.Contains(tree, "refine") || !strings.Contains(tree, "  cell") {
		t.Fatalf("tree missing indented child:\n%s", tree)
	}
	if !strings.Contains(tree, "wall ") {
		t.Fatalf("tree missing wall summary:\n%s", tree)
	}
}
