package flow

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"densestream/internal/gen"
)

// countdownCtx reports context.Canceled after its Err has been polled
// limit times — a deterministic way to land a cancellation in the
// middle of the flow computation, proving the loops really poll.
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

func TestExactDensestCancelsMidFlow(t *testing.T) {
	g, err := gen.ChungLu(800, 5000, 2.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Unlimited polls: the run completes and matches the plain solver.
	free := &countdownCtx{Context: context.Background(), limit: 1 << 62}
	want, err := ExactDensest(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactDensest(free, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Numer != want.Numer || got.Denom != want.Denom {
		t.Fatalf("ctx solver density %d/%d != %d/%d", got.Numer, got.Denom, want.Numer, want.Denom)
	}
	totalPolls := free.polls.Load()
	if totalPolls < 4 {
		t.Fatalf("full run polled ctx only %d times; the loops are not polling", totalPolls)
	}
	// Cancel roughly mid-run (by poll count): the solver must abort
	// with context.Canceled instead of finishing.
	mid := &countdownCtx{Context: context.Background(), limit: totalPolls / 2}
	if _, err := ExactDensest(mid, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation: want context.Canceled, got %v", err)
	}
}

func TestMaxFlowPreCanceled(t *testing.T) {
	nw := NewNetwork(3, 2)
	if err := nw.AddArc(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddArc(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.MaxFlow(ctx, 0, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
