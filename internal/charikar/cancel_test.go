package charikar

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"densestream/internal/gen"
	"densestream/internal/graph"
)

// countdownCtx reports context.Canceled after limit Err polls, landing
// a deterministic cancellation inside the peel loop.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func TestDensestCtxCancelsMidPeel(t *testing.T) {
	// > peelCheckMask nodes, so the loop polls more than once.
	g, err := gen.ChungLu(3*(peelCheckMask+1), 6*int64(peelCheckMask+1), 2.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	free := &countdownCtx{Context: context.Background(), limit: 1 << 62}
	want, err := Densest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Densest(free, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Density != want.Density || got.Peels != want.Peels {
		t.Fatal("ctx peel diverged from plain peel")
	}
	polls := free.polls.Load()
	if polls < 2 {
		t.Fatalf("full peel polled ctx %d times; the loop is not polling", polls)
	}
	mid := &countdownCtx{Context: context.Background(), limit: polls / 2}
	if _, err := Densest(mid, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-peel cancellation: want context.Canceled, got %v", err)
	}
}

func TestDensestWeightedCtxCancelsMidPeel(t *testing.T) {
	n := 2 * (peelCheckMask + 1)
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddWeightedEdge(int32(i), int32(i+1), 1.5); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	free := &countdownCtx{Context: context.Background(), limit: 1 << 62}
	if _, err := DensestWeighted(free, g); err != nil {
		t.Fatal(err)
	}
	polls := free.polls.Load()
	if polls < 2 {
		t.Fatalf("weighted peel polled ctx %d times", polls)
	}
	mid := &countdownCtx{Context: context.Background(), limit: polls / 2}
	if _, err := DensestWeighted(mid, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
